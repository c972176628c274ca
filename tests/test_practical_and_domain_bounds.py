"""Unit tests for the practical algorithm and Proposition 4.9 domain bounds."""

import pytest

from repro import q
from repro.core import (
    CardinalityConstraintKnowledge,
    KeyConstraintKnowledge,
    TupleStatusKnowledge,
    analysis_domain,
    analysis_schema,
    decide_security,
    decide_with_cardinality_constraint,
    decide_with_key_constraints,
    decide_with_knowledge,
    decide_with_prior_view,
    decide_with_tuple_status,
    max_symbol_count,
    practical_security_check,
    required_domain_size,
)
from repro.exceptions import SecurityAnalysisError
from repro.relational import Domain, Fact


class TestPracticalAlgorithm:
    def test_certifies_table1_row_4(self):
        verdict = practical_security_check(
            q("S4(n) :- Emp(n, HR, p)"), q("V4(n) :- Emp(n, Mgmt, p)")
        )
        assert verdict.certainly_secure
        assert not verdict.possibly_insecure
        assert verdict.unifiable_pairs == ()
        assert "secure" in verdict.explain()

    def test_flags_overlapping_subgoals(self):
        verdict = practical_security_check(
            q("S2(n, p) :- Emp(n, d, p)"),
            [q("V2(n, d) :- Emp(n, d, p)"), q("V2p(d, p) :- Emp(n, d, p)")],
        )
        assert verdict.possibly_insecure
        assert len(verdict.unifiable_pairs) == 2
        assert "unifies" in verdict.explain()

    def test_distinct_relations_are_secure(self):
        verdict = practical_security_check(q("S() :- Secret(x)"), q("V() :- Public(x)"))
        assert verdict.certainly_secure

    def test_requires_views(self):
        with pytest.raises(SecurityAnalysisError):
            practical_security_check(q("S() :- R(x)"), [])

    def test_soundness_against_exact_decision(self, emp_schema):
        # Whenever the quick check certifies security, the exact decision must
        # agree (the quick check has false alarms but no false certificates).
        pairs = [
            (q("S(n) :- Emp(n, HR, p)"), q("V(n) :- Emp(n, Mgmt, p)")),
            (q("S(n, p) :- Emp(n, d, p)"), q("V(n, d) :- Emp(n, d, p)")),
            (q("S(p) :- Emp(n, d, p)"), q("V(n) :- Emp(n, d, p)")),
        ]
        for secret, view in pairs:
            quick = practical_security_check(secret, view)
            if quick.certainly_secure:
                assert decide_security(secret, view, emp_schema).secure


class TestDomainBounds:
    def test_max_symbol_count(self):
        queries = [q("S(y) :- R(x, y)"), q("V() :- R('a', x), R(x, 'b')")]
        # Second query: variable x plus constants a, b = 3; first query: 2.
        assert max_symbol_count(queries) == 3
        assert max_symbol_count([]) == 0

    def test_required_size_without_order_predicates(self):
        queries = [q("S(y) :- R(x, y)")]
        assert required_domain_size(queries) == 2

    def test_required_size_with_order_predicates(self):
        queries = [q("S() :- R(x, y), x < y")]
        assert required_domain_size(queries) == 2 * 3

    def test_analysis_domain_contains_query_constants(self):
        queries = [q("S(n) :- Emp(n, HR, p)"), q("V(n) :- Emp(n, Mgmt, p)")]
        domain = analysis_domain(queries)
        assert "HR" in domain
        assert "Mgmt" in domain
        assert len(domain) >= required_domain_size(queries)

    def test_analysis_domain_minimum_size(self):
        domain = analysis_domain([q("S() :- R(x)")], minimum_size=5)
        assert len(domain) == 5

    def test_numeric_order_domain_interleaves_fresh_values(self):
        queries = [q("Q() :- R(x, y), x < y, x != 3, y != 7")]
        domain = analysis_domain(queries)
        values = [v for v in domain if isinstance(v, (int, float))]
        assert 3 in values and 7 in values
        assert any(3 < v < 7 for v in values)
        assert any(v < 3 for v in values)
        assert any(v > 7 for v in values)

    def test_analysis_schema_strips_attribute_domains(self, emp_schema):
        queries = [q("S(n) :- Emp(n, d, p)")]
        stripped = analysis_schema(emp_schema, queries)
        relation = stripped.relation("Emp")
        assert relation.attribute_domains == {}
        assert len(stripped.domain) >= required_domain_size(queries)



_SECRET, _VIEW = q("S(n, p) :- Emp(n, d, p)"), q("V(n, d) :- Emp(n, d, p)")
_KEYS = KeyConstraintKnowledge({"Emp": [0]})


class TestExplicitDomainContract:
    """Every decision procedure holds an explicit domain to Proposition 4.9."""

    @pytest.mark.parametrize(
        "rule,queries_and_knowledge",
        [
            (decide_with_key_constraints, (_SECRET, _VIEW, _KEYS)),
            (
                decide_with_cardinality_constraint,
                (_SECRET, _VIEW, CardinalityConstraintKnowledge("exactly", 1, "Emp")),
            ),
            (
                decide_with_tuple_status,
                (_SECRET, _VIEW, TupleStatusKnowledge(present=[Fact("Emp", ("a", "a", "a"))])),
            ),
            (
                decide_with_prior_view,
                (q("S() :- Emp(n, d, p)"), q("V() :- Emp(n, d, d)"), q("U() :- Emp(n, n, p)")),
            ),
            (decide_with_knowledge, (_SECRET, _VIEW, _KEYS)),
        ],
        ids=["keys", "cardinality", "tuple-status", "prior-view", "dispatch"],
    )
    def test_undersized_explicit_domain_is_rejected(
        self, emp_schema, rule, queries_and_knowledge
    ):
        with pytest.raises(SecurityAnalysisError, match="Proposition 4.9"):
            rule(*queries_and_knowledge, emp_schema, Domain(["a"]))
