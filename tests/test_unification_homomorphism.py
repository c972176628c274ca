"""Unit tests for unification, homomorphisms, containment and composition."""

import pytest

from repro.cq import (
    Atom,
    Constant,
    UnionQuery,
    Variable,
    are_equivalent,
    atoms_unifiable,
    canonical_instance,
    conjoin,
    conjoin_all,
    determines,
    evaluate_boolean,
    find_query_homomorphism,
    has_query_homomorphism,
    is_contained_in,
    match_atom_to_fact,
    q,
    queries_share_unifiable_subgoals,
    unifiable_subgoal_pairs,
    union_of,
    unify_atoms,
)
from repro.exceptions import QueryError
from repro.relational import Domain, Fact, Instance, RelationSchema, Schema

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


class TestUnification:
    def test_different_relations_never_unify(self):
        assert unify_atoms(Atom("R", (X,)), Atom("S", (X,))) is None

    def test_different_arities_never_unify(self):
        assert unify_atoms(Atom("R", (X,)), Atom("R", (X, Y))) is None

    def test_constants_must_match(self):
        assert unify_atoms(Atom("R", (Constant(1),)), Atom("R", (Constant(2),))) is None
        assert unify_atoms(Atom("R", (Constant(1),)), Atom("R", (Constant(1),))) == {}

    def test_variable_binds_to_constant(self):
        result = unify_atoms(Atom("R", (X,)), Atom("R", (Constant(1),)))
        assert result == {X: Constant(1)}

    def test_transitive_bindings(self):
        # R(x, x) with R(y, 'a') forces x = y = 'a'.
        result = unify_atoms(Atom("R", (X, X)), Atom("R", (Y, Constant("a"))))
        assert result is not None
        resolved = {k: v for k, v in result.items()}
        assert Constant("a") in resolved.values()

    def test_conflicting_repeated_variable(self):
        result = unify_atoms(
            Atom("R", (X, X)), Atom("R", (Constant("a"), Constant("b")))
        )
        assert result is None

    def test_atoms_unifiable_renames_apart(self):
        # The same variable name on both sides must not accidentally link them.
        assert atoms_unifiable(Atom("R", (X, Constant(1))), Atom("R", (Constant(2), X)))

    def test_match_atom_to_fact(self):
        result = match_atom_to_fact(Atom("R", (X, Constant("a"))), Fact("R", ("z", "a")))
        assert result == {X: "z"}
        assert match_atom_to_fact(Atom("R", (X, Constant("a"))), Fact("R", ("z", "b"))) is None


class TestSubgoalPairs:
    def test_disjoint_relations_share_nothing(self):
        secret = q("S() :- R1(x)")
        view = q("V() :- R2(x)")
        assert unifiable_subgoal_pairs(secret, view) == ()
        assert not queries_share_unifiable_subgoals(secret, [view])

    def test_shared_selection_constants_can_prevent_unification(self):
        secret = q("S(n) :- Emp(n, HR, p)")
        view = q("V(n) :- Emp(n, Mgmt, p)")
        assert unifiable_subgoal_pairs(secret, view) == ()

    def test_overlapping_subgoals_detected(self):
        secret = q("S(n, p) :- Emp(n, d, p)")
        view = q("V(n, d) :- Emp(n, d, p)")
        assert len(unifiable_subgoal_pairs(secret, view)) == 1


class TestHomomorphisms:
    def test_simple_containment_homomorphism(self):
        general = q("Q(x) :- R(x, y)")
        specific = q("Q(x) :- R(x, y), S(y)")
        # general is 'larger': there is a homomorphism general -> specific.
        assert has_query_homomorphism(general, specific)
        assert not has_query_homomorphism(specific, general)

    def test_head_must_be_preserved(self):
        left = q("Q(x) :- R(x, y)")
        same_up_to_renaming = q("Q(u) :- R(u, v)")
        mapping = find_query_homomorphism(left, same_up_to_renaming)
        assert mapping is not None
        assert mapping[Variable("x")] == Variable("u")
        # Projecting a *different* column is not the same query: no
        # head-preserving homomorphism exists in either direction.
        other_column = q("Q(y) :- R(x, y)")
        assert find_query_homomorphism(left, other_column) is None
        assert find_query_homomorphism(other_column, left) is None

    def test_arity_mismatch(self):
        assert find_query_homomorphism(q("Q(x) :- R(x)"), q("Q() :- R(x)")) is None

    def test_canonical_instance_freezes_variables(self):
        query = q("Q(x) :- R(x, y), S(y)")
        instance, assignment = canonical_instance(query)
        assert len(instance) == 2
        assert set(assignment) == query.variables


class TestContainment:
    def test_containment_directions(self):
        bigger = q("Q(x) :- R(x, y)")
        smaller = q("Q(x) :- R(x, y), R(y, x)")
        assert is_contained_in(smaller, bigger)
        assert not is_contained_in(bigger, smaller)

    def test_equivalence_up_to_variable_names(self):
        left = q("Q(x) :- R(x, y)")
        right = q("Q(u) :- R(u, v)")
        assert are_equivalent(left, right)

    def test_comparisons_are_rejected(self):
        with pytest.raises(QueryError):
            is_contained_in(q("Q(x) :- R(x, y), x < y"), q("Q(x) :- R(x, y)"))

    def test_determines_detects_total_disclosure(self):
        schema = Schema([RelationSchema("Emp", ("n", "d", "p"))], domain=Domain.of("a", "b"))
        views = [q("V(n, d) :- Emp(n, d, p)")]
        secret = q("S(d) :- Emp(n, d, p)")
        assert determines(views, secret, schema)

    def test_determines_rejects_partial_disclosure(self):
        schema = Schema([RelationSchema("Emp", ("n", "d", "p"))], domain=Domain.of("a", "b"))
        views = [q("V(n, d) :- Emp(n, d, p)"), q("W(d, p) :- Emp(n, d, p)")]
        secret = q("S(n, p) :- Emp(n, d, p)")
        assert not determines(views, secret, schema)


class TestConjoin:
    def test_conjoin_requires_boolean_queries(self):
        with pytest.raises(QueryError):
            conjoin(q("Q(x) :- R(x)"), q("P() :- R(x)"))

    def test_conjoin_renames_apart(self):
        left = q("A() :- R(x, 'a')")
        right = q("B() :- R(x, 'b')")
        combined = conjoin(left, right)
        assert len(combined.body) == 2
        # The two x's must not have been identified.
        assert len(combined.variables) == 2

    def test_conjoin_all(self):
        queries = [q("A() :- R(x)"), q("B() :- S(x)"), q("C() :- T(x)")]
        combined = conjoin_all(queries, name="ABC")
        assert combined.name == "ABC"
        assert len(combined.body) == 3

    def test_conjoin_distributes_over_a_union(self):
        union = union_of(q("A() :- R(x, 'a')"), q("B() :- R(x, 'b')"))
        combined = conjoin(union, q("C() :- S(x)"), name="UC")
        assert isinstance(combined, UnionQuery)
        assert combined.name == "UC"
        assert [len(d.body) for d in combined.disjuncts] == [2, 2]
        instance = Instance.of(Fact("R", ("c", "b")), Fact("S", ("c",)))
        assert evaluate_boolean(combined, instance)
        assert not evaluate_boolean(combined, Instance.of(Fact("R", ("c", "b"))))

    def test_conjoin_all_requires_queries(self):
        with pytest.raises(QueryError):
            conjoin_all([])
