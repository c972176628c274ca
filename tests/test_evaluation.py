"""Unit tests for conjunctive-query evaluation."""

import pytest

from repro.cq import evaluate, evaluate_boolean, q, satisfying_assignments
from repro.cq.evaluation import answer_tuple
from repro.cq.terms import Variable
from repro.relational import Fact, Instance


@pytest.fixture
def employee_instance() -> Instance:
    return Instance.of(
        Fact("Emp", ("ann", "hr", 100)),
        Fact("Emp", ("bob", "hr", 200)),
        Fact("Emp", ("cat", "it", 300)),
    )


class TestEvaluation:
    def test_projection_query(self, employee_instance):
        answers = evaluate(q("V(n, d) :- Emp(n, d, p)"), employee_instance)
        assert answers == frozenset({("ann", "hr"), ("bob", "hr"), ("cat", "it")})

    def test_selection_with_constant(self, employee_instance):
        answers = evaluate(q("V(n) :- Emp(n, 'hr', p)"), employee_instance)
        assert answers == frozenset({("ann",), ("bob",)})

    def test_join_via_shared_variable(self, employee_instance):
        # Pairs of employees in the same department.
        answers = evaluate(q("Q(a, b) :- Emp(a, d, p1), Emp(b, d, p2)"), employee_instance)
        assert ("ann", "bob") in answers
        assert ("ann", "cat") not in answers

    def test_comparison_filters_assignments(self, employee_instance):
        answers = evaluate(q("Q(n) :- Emp(n, d, p), p > 150"), employee_instance)
        assert answers == frozenset({("bob",), ("cat",)})

    def test_inequality_join(self, employee_instance):
        answers = evaluate(
            q("Q(a, b) :- Emp(a, d, p1), Emp(b, d, p2), a != b"), employee_instance
        )
        assert answers == frozenset({("ann", "bob"), ("bob", "ann")})

    def test_boolean_query_true_false(self, employee_instance):
        assert evaluate_boolean(q("Q() :- Emp(n, 'it', p)"), employee_instance)
        assert not evaluate_boolean(q("Q() :- Emp(n, 'sales', p)"), employee_instance)

    def test_boolean_answer_sets(self, employee_instance):
        assert evaluate(q("Q() :- Emp(n, 'it', p)"), employee_instance) == frozenset({()})
        assert evaluate(q("Q() :- Emp(n, 'sales', p)"), employee_instance) == frozenset()

    def test_empty_instance(self):
        assert evaluate(q("Q(x) :- R(x)"), Instance.empty()) == frozenset()

    def test_repeated_variable_in_atom(self):
        instance = Instance.of(Fact("R", ("a", "a")), Fact("R", ("a", "b")))
        answers = evaluate(q("Q(x) :- R(x, x)"), instance)
        assert answers == frozenset({("a",)})

    def test_constant_head_term(self, employee_instance):
        answers = evaluate(q("Q(Label, n) :- Emp(n, 'it', p)"), employee_instance)
        assert answers == frozenset({("Label", "cat")})

    def test_constant_only_comparison(self):
        instance = Instance.of(Fact("R", ("a",)))
        assert not evaluate_boolean(q("Q() :- R(x), 1 = 2"), instance)
        assert evaluate_boolean(q("Q() :- R(x), 1 != 2"), instance)

    def test_anonymous_variables_do_not_join(self):
        instance = Instance.of(Fact("R", ("a", "b")))
        # Each '-' is a distinct variable, so this is satisfied even though
        # the two anonymous positions hold different values.
        assert evaluate_boolean(q("Q() :- R(-, -)"), instance)


class TestAssignments:
    def test_satisfying_assignments_are_total(self, employee_instance):
        query = q("Q(n) :- Emp(n, d, p)")
        for assignment in satisfying_assignments(query, employee_instance):
            assert set(assignment) == {Variable("n"), Variable("d"), Variable("p")}

    def test_answer_tuple_uses_head_order(self, employee_instance):
        query = q("Q(p, n) :- Emp(n, d, p)")
        assignment = next(iter(satisfying_assignments(query, employee_instance)))
        row = answer_tuple(query, assignment)
        assert row == (assignment[Variable("p")], assignment[Variable("n")])
