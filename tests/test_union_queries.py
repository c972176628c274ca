"""Tests for the union-of-conjunctive-queries (UCQ) extension.

The paper proves Theorems 4.5/4.8 for monotone queries in general;
this extension exercises them beyond plain conjunctive queries.
"""

from fractions import Fraction

import pytest

from repro import Dictionary, q, union_of
from repro.core import (
    critical_tuples,
    decide_security,
    positive_leakage,
    practical_security_check,
    verify_security_probabilistically,
)
from repro.cq import UnionQuery, evaluate, evaluate_boolean
from repro.exceptions import QueryError
from repro.reference import critical_tuples_naive
from repro.relational import Domain, Fact, Instance, RelationSchema, Schema


@pytest.fixture
def schema() -> Schema:
    return Schema([RelationSchema("R", ("x", "y"))], domain=Domain.of("a", "b"))


@pytest.fixture
def emp_union_schema(emp_schema):
    return emp_schema


class TestConstruction:
    def test_requires_disjuncts(self):
        with pytest.raises(QueryError):
            UnionQuery([])

    def test_requires_equal_arity(self):
        with pytest.raises(QueryError):
            union_of(q("A(x) :- R(x, y)"), q("B() :- R(x, y)"))

    def test_disjuncts_are_renamed_apart(self):
        union = union_of(q("A(x) :- R(x, 'a')"), q("B(x) :- R(x, 'b')"))
        first, second = union.disjuncts
        assert not (first.variables & second.variables)

    def test_aggregate_properties(self):
        union = union_of(q("A(x) :- R(x, 'a')"), q("B(y) :- S(y, z), y < z"))
        assert union.arity == 1
        assert union.relation_names == {"R", "S"}
        assert union.constants == {"a"}
        assert union.has_order_predicates
        assert union.is_monotone
        assert union.symbol_count() == 2
        assert len(union.body) == 2
        assert "UNION" in repr(union)

    def test_with_name_and_rename_apart(self):
        union = union_of(q("A(x) :- R(x, y)"), q("B(x) :- R(x, x)"), name="U")
        assert union.with_name("W").name == "W"
        renamed = union.rename_apart(union.variables)
        assert not (renamed.variables & union.variables)


class TestEvaluation:
    def test_union_semantics(self):
        union = union_of(q("A(x) :- R(x, 'a')"), q("B(x) :- R('b', x)"))
        instance = Instance.of(Fact("R", ("a", "a")), Fact("R", ("b", "c")))
        assert evaluate(union, instance) == frozenset({("a",), ("c",)})

    def test_boolean_union(self):
        union = union_of(q("A() :- R('a', 'a')"), q("B() :- R('b', 'b')"))
        assert evaluate_boolean(union, Instance.of(Fact("R", ("b", "b"))))
        assert not evaluate_boolean(union, Instance.of(Fact("R", ("a", "b"))))

    def test_monotone(self):
        union = union_of(q("A(x) :- R(x, 'a')"), q("B(x) :- R('b', x)"))
        small = Instance.of(Fact("R", ("a", "a")))
        large = small.add(Fact("R", ("b", "b")))
        assert evaluate(union, small) <= evaluate(union, large)


class TestCriticalTuples:
    def test_union_critical_tuples_are_union_of_disjunct_ones_here(self, schema):
        left = q("A() :- R('a', 'a')")
        right = q("B() :- R('b', 'b')")
        union = union_of(left, right)
        assert critical_tuples(union, schema) == (
            critical_tuples(left, schema) | critical_tuples(right, schema)
        )

    def test_redundant_disjunct_contributes_nothing(self, schema):
        # B is subsumed by A (A is more general), so the union is equivalent
        # to A alone and B's extra "witnesses" must not create new critical
        # tuples beyond A's.
        general = q("A() :- R(x, y)")
        specific = q("B() :- R('a', 'a')")
        union = union_of(general, specific)
        assert critical_tuples(union, schema) == critical_tuples(general, schema)

    def test_agrees_with_naive_enumeration(self, schema):
        union = union_of(q("A() :- R('a', x)"), q("B() :- R(x, x)"))
        assert critical_tuples(union, schema) == critical_tuples_naive(union, schema)

    def test_union_can_mask_a_tuple(self, schema):
        # In A OR B where B is 'some tuple exists in row a' and A is the
        # specific tuple R(a,b): R(a,b) is critical for A alone, but the
        # union is equivalent to B, for which... R(a,b) is still critical.
        # Use instead a disjunct that swallows the other entirely:
        union = union_of(q("A() :- R('a', 'b'), R('a', 'a')"), q("B() :- R('a', 'a')"))
        # The union is equivalent to B alone, so only B's tuple is critical.
        assert critical_tuples(union, schema) == {Fact("R", ("a", "a"))}


class TestSecurityWithUnions:
    def test_theorem_4_5_holds_for_unions(self, schema):
        dictionary = Dictionary.uniform(schema, Fraction(1, 2))
        secret = union_of(q("A() :- R('a', 'a')"), q("B() :- R('a', 'b')"), name="S")
        secure_view = union_of(q("C() :- R('b', 'a')"), q("D() :- R('b', 'b')"), name="V")
        leaky_view = union_of(q("C() :- R('b', 'a')"), q("D() :- R('a', 'b')"), name="W")

        assert not (critical_tuples(secret, schema) & critical_tuples(secure_view, schema))
        assert verify_security_probabilistically(secret, secure_view, dictionary)

        assert critical_tuples(secret, schema) & critical_tuples(leaky_view, schema)
        assert not verify_security_probabilistically(secret, leaky_view, dictionary)

    def test_decide_security_accepts_unions(self, emp_union_schema):
        secret = union_of(
            q("S1(n) :- Emp(n, HR, p)"), q("S2(n) :- Emp(n, Payroll, p)"), name="Sensitive"
        )
        safe_view = q("V(n) :- Emp(n, Mgmt, p)")
        leaky_view = q("W(n) :- Emp(n, Payroll, p)")
        assert decide_security(secret, safe_view, emp_union_schema).secure
        assert not decide_security(secret, leaky_view, emp_union_schema).secure

    def test_practical_check_accepts_unions(self, emp_union_schema):
        secret = union_of(
            q("S1(n) :- Emp(n, HR, p)"), q("S2(n) :- Emp(n, Payroll, p)"), name="Sensitive"
        )
        assert practical_security_check(secret, q("V(n) :- Emp(n, Mgmt, p)")).certainly_secure
        assert practical_security_check(secret, q("W(n, d) :- Emp(n, d, p)")).possibly_insecure

    def test_leakage_accepts_unions(self, schema):
        dictionary = Dictionary.uniform(schema, Fraction(1, 3))
        secret = union_of(q("A(x) :- R(x, 'a')"), q("B(x) :- R(x, 'b')"), name="S")
        view = q("V(x) :- R('a', x)")
        result = positive_leakage(secret, view, dictionary)
        assert result.leakage > 0

    def test_auditor_accepts_union_queries(self, emp_union_schema):
        from repro import SecurityAuditor

        auditor = SecurityAuditor(emp_union_schema)
        secret = union_of(
            q("S1(n) :- Emp(n, HR, p)"), q("S2(n) :- Emp(n, Payroll, p)"), name="Sensitive"
        )
        decision = auditor.decide(secret, "V(n) :- Emp(n, Mgmt, p)")
        assert decision.secure
        assessment = auditor.classify(secret, "W(n) :- Emp(n, Payroll, p)")
        assert not assessment.secure

    def test_boolean_specialisation(self):
        union = union_of(q("A(x) :- R(x, 'a')"), q("B(x) :- R('b', x)"), name="U")
        spec = union.boolean_specialisation(("a",))
        assert spec.is_boolean
        assert len(spec.disjuncts) == 2
        assert evaluate_boolean(spec, Instance.of(Fact("R", ("a", "a"))))
        assert evaluate_boolean(spec, Instance.of(Fact("R", ("b", "a"))))
        assert not evaluate_boolean(spec, Instance.of(Fact("R", ("b", "b"))))
