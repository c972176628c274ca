"""Unit tests for critical tuples (Definition 4.4)."""

import pytest

from repro import q
from repro.core import (
    candidate_critical_facts,
    common_critical_tuples,
    critical_tuples,
    is_critical,
)
from repro.exceptions import IntractableAnalysisError, SecurityAnalysisError
from repro.reference import critical_tuples as minimal_critical_tuples
from repro.reference import critical_tuples_naive, is_critical_naive
from repro.relational import Domain, Fact, Instance, RelationSchema, Schema


@pytest.fixture
def binary(binary_ab_schema):
    return binary_ab_schema


class TestSimpleCases:
    def test_fact_query_critical_tuples(self, binary):
        # Q() :- R(a1, x): every tuple R(a1, *) is critical (the paper's
        # illustration below Definition 4.4).
        query = q("Q() :- R('a', x)")
        crit = critical_tuples(query, binary)
        assert crit == {Fact("R", ("a", "a")), Fact("R", ("a", "b"))}

    def test_example_4_6_every_tuple_critical(self, binary):
        view = q("V(x) :- R(x, y)")
        secret = q("S(y) :- R(x, y)")
        all_facts = {
            Fact("R", (x, y)) for x in ("a", "b") for y in ("a", "b")
        }
        assert critical_tuples(view, binary) == all_facts
        assert critical_tuples(secret, binary) == all_facts

    def test_example_4_7_disjoint_critical_sets(self, binary):
        view = q("V(x) :- R(x, 'b')")
        secret = q("S(y) :- R(y, 'a')")
        assert critical_tuples(secret, binary) == {Fact("R", ("a", "a")), Fact("R", ("b", "a"))}
        assert critical_tuples(view, binary) == {Fact("R", ("a", "b")), Fact("R", ("b", "b"))}

    def test_tuple_outside_tuple_space_is_not_critical(self, binary):
        assert not is_critical(Fact("R", ("z", "z")), q("Q() :- R(x, y)"), binary)
        assert not is_critical(Fact("S", ("a",)), q("Q() :- R(x, y)"), binary)


class TestTheorem410Example:
    """The homomorphic-image-but-not-critical example after Theorem 4.10."""

    @pytest.fixture
    def schema(self) -> Schema:
        return Schema(
            [RelationSchema("R", tuple(f"a{i}" for i in range(5)))],
            domain=Domain.of("a", "b", "c"),
        )

    @pytest.fixture
    def query(self):
        return q("Q() :- R(x, y, z, z, u), R(x, x, x, y, y)")

    def test_candidate_but_not_critical(self, schema, query):
        fact = Fact("R", ("a", "a", "b", "b", "c"))
        assert fact in candidate_critical_facts(query, schema)
        assert not is_critical(fact, query, schema)

    def test_collapsed_tuple_is_critical(self, schema, query):
        assert is_critical(Fact("R", ("a", "a", "a", "a", "a")), query, schema)


class TestNaiveAgreement:
    def test_minimal_instance_search_matches_naive(self, binary):
        queries = [
            q("Q1(x) :- R(x, y)"),
            q("Q2() :- R('a', x), R(x, x)"),
            q("Q3(x) :- R(x, x)"),
            q("Q4() :- R(x, y), x != y"),
        ]
        for query in queries:
            naive = critical_tuples_naive(query, binary)
            assert minimal_critical_tuples(query, binary) == naive, f"mismatch for {query!r}"
            assert critical_tuples(query, binary) == naive, f"mismatch for {query!r}"

    def test_is_critical_naive_detects_blowup(self, binary):
        with pytest.raises(IntractableAnalysisError):
            is_critical_naive(
                Fact("R", ("a", "a")), q("Q() :- R(x, y)"), binary, max_tuples=2
            )


class TestComparisons:
    def test_inequality_restricts_critical_tuples(self, binary):
        query = q("Q() :- R(x, y), x != y")
        crit = critical_tuples(query, binary)
        assert crit == {Fact("R", ("a", "b")), Fact("R", ("b", "a"))}

    def test_order_predicates(self):
        schema = Schema([RelationSchema("R", ("x", "y"))], domain=Domain.of(1, 2, 3))
        query = q("Q() :- R(x, y), x < y")
        crit = critical_tuples(query, schema)
        assert Fact("R", (1, 2)) in crit
        assert Fact("R", (2, 1)) not in crit


class TestConstraints:
    def test_key_constraint_changes_critical_tuples(self):
        schema = Schema([RelationSchema("R", ("k", "v"))], domain=Domain.of("a", "b"))
        query = q("Q() :- R(x, 'a'), R(x, 'b')")

        def one_value_per_key(instance: Instance) -> bool:
            seen = {}
            for fact in instance.relation("R"):
                if fact.values[0] in seen and seen[fact.values[0]] != fact:
                    return False
                seen[fact.values[0]] = fact
            return True

        unconstrained = critical_tuples(query, schema)
        constrained = critical_tuples(query, schema, constraint=one_value_per_key)
        assert unconstrained  # the query is satisfiable without the key
        # Under the key constraint R(x,'a') and R(x,'b') can never coexist,
        # so no tuple can change the (always-false) answer.
        assert constrained == frozenset()


class TestCommonCriticalTuples:
    def test_table_1_row_4_has_no_overlap(self, emp_schema):
        secret = q("S4(n) :- Emp(n, HR, p)")
        view = q("V4(n) :- Emp(n, Mgmt, p)")
        assert common_critical_tuples(secret, [view], emp_schema) == frozenset()

    def test_overlap_detected(self, binary):
        secret = q("S() :- R('a', -)")
        view = q("V() :- R(-, 'b')")
        common = common_critical_tuples(secret, [view], binary)
        assert common == {Fact("R", ("a", "b"))}

    def test_requires_views(self, binary):
        with pytest.raises(SecurityAnalysisError):
            common_critical_tuples(q("S() :- R(x, y)"), [], binary)

    def test_union_over_views(self, binary):
        secret = q("S(x, y) :- R(x, y)")
        views = [q("V1() :- R('a', 'a')"), q("V2() :- R('b', 'b')")]
        common = common_critical_tuples(secret, views, binary)
        assert common == {Fact("R", ("a", "a")), Fact("R", ("b", "b"))}
