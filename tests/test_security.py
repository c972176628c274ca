"""Unit tests for query-view security decisions (Theorem 4.5 / Definition 4.1)."""

from fractions import Fraction

import pytest

from repro import Dictionary, q
from repro.core import (
    decide_security,
    independence_gap,
    is_secure,
    verify_security_probabilistically,
)
from repro.exceptions import SecurityAnalysisError
from repro.relational import Domain, Fact


class TestDecideSecurity:
    def test_example_4_2_insecure(self, binary_ab_schema, example_42_queries):
        secret, view = example_42_queries
        decision = decide_security(secret, view, binary_ab_schema)
        assert not decision.secure
        assert decision.common_critical
        assert view in decision.insecure_views
        assert "NOT secure" in decision.explain()

    def test_example_4_3_secure(self, binary_ab_schema, example_43_queries):
        secret, view = example_43_queries
        decision = decide_security(secret, view, binary_ab_schema)
        assert decision.secure
        assert decision.common_critical == frozenset()
        assert decision.insecure_views == ()
        assert "secure" in decision.explain()

    def test_table1_row_4(self, emp_schema):
        assert is_secure(
            q("S4(n) :- Emp(n, HR, p)"), q("V4(n) :- Emp(n, Mgmt, p)"), emp_schema
        )

    def test_table1_rows_1_to_3_insecure(self, emp_schema):
        assert not is_secure(q("S1(d) :- Emp(n, d, p)"), q("V1(n, d) :- Emp(n, d, p)"), emp_schema)
        assert not is_secure(
            q("S2(n, p) :- Emp(n, d, p)"),
            [q("V2(n, d) :- Emp(n, d, p)"), q("V2p(d, p) :- Emp(n, d, p)")],
            emp_schema,
        )
        assert not is_secure(q("S3(p) :- Emp(n, d, p)"), q("V3(n) :- Emp(n, d, p)"), emp_schema)

    def test_multiple_views_secure_iff_each_secure(self, emp_schema):
        secret = q("S(n) :- Emp(n, HR, p)")
        safe = q("V(n) :- Emp(n, Mgmt, p)")
        unsafe = q("W(n, d) :- Emp(n, d, p)")
        assert decide_security(secret, [safe], emp_schema).secure
        both = decide_security(secret, [safe, unsafe], emp_schema)
        assert not both.secure
        assert both.insecure_views == (unsafe,)

    def test_requires_at_least_one_view(self, binary_ab_schema):
        with pytest.raises(SecurityAnalysisError):
            decide_security(q("S() :- R(x, y)"), [], binary_ab_schema)

    def test_explicit_domain_must_be_large_enough(self, binary_ab_schema):
        secret = q("S(y) :- R(x, y)")
        view = q("V(x) :- R(x, y)")
        with pytest.raises(SecurityAnalysisError):
            decide_security(secret, view, binary_ab_schema, domain=Domain.of("a"))

    def test_explicit_domain_accepted(self, binary_ab_schema):
        secret = q("S(y) :- R(y, 'a')")
        view = q("V(x) :- R(x, 'b')")
        decision = decide_security(secret, view, binary_ab_schema, domain=Domain.of("a", "b", "c"))
        assert decision.secure
        assert decision.domain == Domain.of("a", "b", "c")

    def test_disjoint_relations_are_secure(self, manufacturing):
        secret = q("S(p, c) :- Cost(p, c)")
        views = [
            q("V1(p, x, y) :- Part(p, x, y)"),
            q("V2(p, f, s) :- Product(p, f, s)"),
            q("V3(p, l) :- Labor(p, l)"),
        ]
        assert decide_security(secret, views, manufacturing).secure


class TestProbabilisticVerification:
    def test_example_4_2_fails_for_uniform_half(self, half_dictionary, example_42_queries):
        secret, view = example_42_queries
        assert not verify_security_probabilistically(secret, view, half_dictionary)

    def test_example_4_3_holds_for_uniform_half(self, half_dictionary, example_43_queries):
        secret, view = example_43_queries
        assert verify_security_probabilistically(secret, view, half_dictionary)

    def test_trivial_distribution_hides_everything(self, binary_ab_schema, example_42_queries):
        # With P(t) = 1 for every tuple the database is known, so even the
        # insecure pair of Example 4.2 satisfies Definition 4.1.
        secret, view = example_42_queries
        certain = Dictionary.uniform(binary_ab_schema, 1)
        assert verify_security_probabilistically(secret, view, certain)

    def test_section_2_1_boolean_example(self, binary_ab_schema):
        # S asserts a specific tuple; V is true whenever some tuple shares
        # the row or the column — seeing V raises the probability of S.
        dictionary = Dictionary.uniform(binary_ab_schema, Fraction(1, 2))
        secret = q("S() :- R('a', 'b')")
        view = q("V() :- R('a', x), R(y, 'b')")
        assert not verify_security_probabilistically(secret, view, dictionary)

    def test_requires_views(self, half_dictionary):
        with pytest.raises(SecurityAnalysisError):
            verify_security_probabilistically(q("S() :- R(x, y)"), [], half_dictionary)

    def test_agreement_with_theorem_4_5_on_examples(
        self, binary_ab_schema, half_dictionary, example_42_queries, example_43_queries
    ):
        for secret, view in (example_42_queries, example_43_queries):
            logical = decide_security(secret, view, binary_ab_schema).secure
            probabilistic = verify_security_probabilistically(secret, view, half_dictionary)
            assert logical == probabilistic


class TestIndependenceGap:
    def test_zero_gap_for_secure_pair(self, half_dictionary, example_43_queries):
        secret, view = example_43_queries
        assert independence_gap(secret, view, half_dictionary) == 0

    def test_positive_gap_for_insecure_pair(self, half_dictionary, example_42_queries):
        secret, view = example_42_queries
        gap = independence_gap(secret, view, half_dictionary)
        assert gap > 0

    def test_gap_shrinks_with_sparser_dictionaries(self, binary_ab_schema, example_42_queries):
        secret, view = example_42_queries
        dense = Dictionary.uniform(binary_ab_schema, Fraction(1, 2))
        sparse = Dictionary.uniform(binary_ab_schema, Fraction(1, 100))
        assert independence_gap(secret, view, sparse) < independence_gap(secret, view, dense)

    def test_gap_requires_a_view(self, half_dictionary, example_42_queries):
        # No views is not "independent": like the verifier, the gap
        # refuses the input instead of reporting 0.
        secret, _ = example_42_queries
        for check in (independence_gap, verify_security_probabilistically):
            with pytest.raises(SecurityAnalysisError, match="at least one view"):
                check(secret, [], half_dictionary)
