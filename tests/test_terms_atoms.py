"""Unit tests for query terms, atoms and comparison predicates."""

import pytest

from repro.cq import Atom, Comparison, Constant, Variable
from repro.exceptions import QueryError
from repro.relational import Fact


class TestTerms:
    def test_variable_equality(self):
        assert Variable("x") == Variable("x")
        assert Variable("x") != Variable("y")

    def test_constant_equality(self):
        assert Constant("a") == Constant("a")
        assert Constant(1) != Constant("1")

    def test_variables_and_constants_never_equal(self):
        assert Variable("a") != Constant("a")


class TestAtom:
    def test_variables_and_constants(self):
        atom = Atom("R", (Variable("x"), Constant("a"), Variable("x")))
        assert atom.variables == {Variable("x")}
        assert atom.constants == {"a"}
        assert atom.arity == 3

    def test_invalid_term_type_rejected(self):
        with pytest.raises(QueryError):
            Atom("R", ("not-a-term",))

    def test_empty_relation_name_rejected(self):
        with pytest.raises(QueryError):
            Atom("", (Variable("x"),))

    def test_substitute(self):
        atom = Atom("R", (Variable("x"), Variable("y")))
        result = atom.substitute({Variable("x"): Constant(1)})
        assert result == Atom("R", (Constant(1), Variable("y")))

    def test_ground_produces_fact(self):
        atom = Atom("R", (Variable("x"), Constant("a")))
        assert atom.ground({Variable("x"): 7}) == Fact("R", (7, "a"))

    def test_ground_requires_total_assignment(self):
        atom = Atom("R", (Variable("x"),))
        with pytest.raises(QueryError):
            atom.ground({})

    def test_as_fact_requires_ground_atom(self):
        assert Atom("R", (Constant(1),)).as_fact() == Fact("R", (1,))
        with pytest.raises(QueryError):
            Atom("R", (Variable("x"),)).as_fact()


class TestComparison:
    def test_unsupported_operator_rejected(self):
        with pytest.raises(QueryError):
            Comparison(Variable("x"), "~", Variable("y"))

    def test_evaluate_with_assignment(self):
        comparison = Comparison(Variable("x"), "<", Constant(5))
        assert comparison.evaluate({Variable("x"): 3})
        assert not comparison.evaluate({Variable("x"): 7})

    def test_evaluate_requires_bound_variables(self):
        comparison = Comparison(Variable("x"), "=", Constant(5))
        with pytest.raises(QueryError):
            comparison.evaluate({})

    def test_incomparable_values_raise(self):
        comparison = Comparison(Variable("x"), "<", Constant(5))
        with pytest.raises(QueryError):
            comparison.evaluate({Variable("x"): "text"})

    def test_order_predicate_detection(self):
        assert Comparison(Variable("x"), "<", Variable("y")).is_order_predicate
        assert not Comparison(Variable("x"), "!=", Variable("y")).is_order_predicate

    def test_substitute(self):
        comparison = Comparison(Variable("x"), "!=", Variable("y"))
        result = comparison.substitute({Variable("y"): Constant(2)})
        assert result.right == Constant(2)

    @pytest.mark.parametrize(
        "op,left,right,expected",
        [
            ("=", 1, 1, True),
            ("!=", 1, 1, False),
            ("<=", 1, 2, True),
            (">=", 1, 2, False),
            (">", 3, 2, True),
        ],
    )
    def test_all_operators(self, op, left, right, expected):
        comparison = Comparison(Constant(left), op, Constant(right))
        assert comparison.evaluate({}) is expected
