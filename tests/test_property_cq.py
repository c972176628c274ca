"""Property-based tests (hypothesis) for the relational and query substrates."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro import Dictionary, q
from repro.cq import (
    Atom,
    Comparison,
    ConjunctiveQuery,
    Constant,
    Variable,
    determines,
    evaluate,
    is_answerable_from,
    parse_query,
)
from repro.exceptions import IntractableAnalysisError
from repro.reference import determines_naive
from repro.relational import Domain, Fact, Instance, RelationSchema, Schema, tuple_space

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
DOMAIN_VALUES = ("a", "b", "c")
VARIABLE_NAMES = ("x", "y", "z")

binary_schema = Schema([RelationSchema("R", ("c1", "c2"))], domain=Domain(DOMAIN_VALUES))
ALL_FACTS = tuple(tuple_space(binary_schema))


def terms():
    variables = st.sampled_from([Variable(n) for n in VARIABLE_NAMES])
    constants = st.sampled_from([Constant(v) for v in DOMAIN_VALUES])
    return st.one_of(variables, constants)


def atoms():
    return st.builds(lambda t1, t2: Atom("R", (t1, t2)), terms(), terms())


@st.composite
def conjunctive_queries(draw, max_subgoals: int = 3, allow_head: bool = True):
    body = draw(st.lists(atoms(), min_size=1, max_size=max_subgoals))
    body_variables = sorted({v for atom in body for v in atom.variables})
    if allow_head and body_variables and draw(st.booleans()):
        head_size = draw(st.integers(min_value=1, max_value=len(body_variables)))
        head = tuple(body_variables[:head_size])
    else:
        head = ()
    return ConjunctiveQuery(head, body, name="Q")


def instances():
    return st.sets(st.sampled_from(ALL_FACTS), max_size=len(ALL_FACTS)).map(Instance)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------
class TestInstanceProperties:
    @settings(max_examples=60, deadline=None)
    @given(instances(), instances())
    def test_union_and_intersection_are_commutative(self, left, right):
        assert left.union(right) == right.union(left)
        assert left.intersection(right) == right.intersection(left)

    @settings(max_examples=60, deadline=None)
    @given(instances(), instances())
    def test_difference_disjoint_from_other(self, left, right):
        difference = left.difference(right)
        assert difference.intersection(right) == Instance.empty()
        assert difference.union(left.intersection(right)) == left

    @settings(max_examples=40, deadline=None)
    @given(instances())
    def test_add_then_remove_roundtrip(self, instance):
        fact = ALL_FACTS[0]
        without = instance.remove(fact)
        assert without.add(fact).remove(fact) == without


class TestQueryProperties:
    @settings(max_examples=60, deadline=None)
    @given(conjunctive_queries(), instances(), instances())
    def test_monotonicity(self, query, smaller, larger):
        merged = smaller.union(larger)
        assert evaluate(query, smaller) <= evaluate(query, merged)

    @settings(max_examples=60, deadline=None)
    @given(conjunctive_queries(), instances())
    def test_evaluation_is_deterministic(self, query, instance):
        assert evaluate(query, instance) == evaluate(query, instance)

    @settings(max_examples=60, deadline=None)
    @given(conjunctive_queries())
    def test_repr_parses_back_to_the_same_query(self, query):
        reparsed = parse_query(repr(query))
        assert repr(reparsed) == repr(query)

    @settings(max_examples=60, deadline=None)
    @given(conjunctive_queries(), instances())
    def test_answers_use_only_instance_and_query_constants(self, query, instance):
        allowed = {v for fact in instance for v in fact.values} | query.constants
        for row in evaluate(query, instance):
            assert set(row) <= allowed

    @settings(max_examples=40, deadline=None)
    @given(conjunctive_queries(), instances())
    def test_rename_apart_preserves_semantics(self, query, instance):
        renamed = query.rename_apart(query.variables)
        assert evaluate(renamed, instance) == evaluate(query, instance)


PROBABILITIES = st.sampled_from(
    [Fraction(0), Fraction(1, 8), Fraction(1, 3), Fraction(1, 2), Fraction(7, 8), Fraction(1)]
)


class TestDictionaryProperties:
    @settings(max_examples=30, deadline=None)
    @given(PROBABILITIES)
    def test_instance_probabilities_sum_to_one(self, probability):
        dictionary = Dictionary.uniform(binary_schema, probability)
        from repro.relational import enumerate_instances

        total = sum(
            dictionary.instance_probability(instance)
            for instance in enumerate_instances(binary_schema)
        )
        assert total == 1

    @settings(max_examples=30, deadline=None)
    @given(instances(), PROBABILITIES)
    def test_instance_probability_in_unit_interval(self, instance, probability):
        dictionary = Dictionary.uniform(binary_schema, probability)
        value = dictionary.instance_probability(instance)
        assert 0 <= value <= 1


# ---------------------------------------------------------------------------
# Answerability: the mask-table test against the per-instance oracle
# ---------------------------------------------------------------------------
ANSWERABILITY_SCHEMA = Schema(
    [RelationSchema("R", ("c1", "c2")), RelationSchema("T", ("c1",))],
    domain=Domain(("a", "b")),
)


def _random_answerability_query(rng, name):
    """1–3 subgoals over ``R``/``T`` with constants, an optional comparison and head."""
    pool = [Variable(n) for n in VARIABLE_NAMES] + [Constant(v) for v in ("a", "b")]

    def term():
        # ``c`` lies outside the domain: such a subgoal is never grounded.
        return Constant("c") if rng.random() < 0.01 else rng.choice(pool)

    body = []
    for _ in range(rng.randint(1, 3)):
        relation, arity = rng.choice((("R", 2), ("R", 2), ("T", 1)))
        body.append(Atom(relation, tuple(term() for _ in range(arity))))
    variables = sorted({v for atom in body for v in atom.variables})
    comparisons = []
    if variables and rng.random() < 0.3:
        left = rng.choice(variables)
        right = rng.choice([v for v in variables if v != left] + pool[-2:])
        comparisons.append(Comparison(left, rng.choice(("!=", "<", "=", ">=")), right))
    head = tuple(rng.sample(variables, rng.randint(0, len(variables))))
    return ConjunctiveQuery(head, body, comparisons, name=name)


class TestAnswerability:
    """``determines`` reads mask tables; ``determines_naive`` enumerates instances."""

    @pytest.mark.parametrize("seed", range(4))
    def test_determines_matches_the_instance_enumeration(self, seed):
        rng = random.Random(seed)
        verdicts = []
        for _ in range(300):
            secret = _random_answerability_query(rng, "S")
            views = [
                _random_answerability_query(rng, f"V{i}") for i in range(rng.randint(1, 2))
            ]
            expected = determines_naive(views, secret, ANSWERABILITY_SCHEMA)
            assert determines(views, secret, ANSWERABILITY_SCHEMA) is expected, (
                secret,
                views,
            )
            assert is_answerable_from(secret, views, ANSWERABILITY_SCHEMA) is expected
            verdicts.append(expected)
        # Both outcomes are exercised in every batch of 300.
        assert 20 <= sum(verdicts) <= 280

    def test_an_explicit_domain_is_the_one_decided_over(self):
        schema = Schema([RelationSchema("R", ("c1", "c2"))], domain=Domain(("a",)))
        view = q("V(x) :- R(x, y)")
        secret = q("S(x, y) :- R(x, y)")
        # Over one value the view's row fixes the only fact; over two it does not.
        assert determines([view], secret, schema) is True
        wider = Domain(("a", "b"))
        assert determines([view], secret, schema, domain=wider) is False
        assert determines_naive([view], secret, schema, domain=wider) is False

    def test_max_tuples_bounds_the_mentioned_relations_only(self):
        schema = Schema(
            [RelationSchema("R", ("c1", "c2")), RelationSchema("U", ("c1", "c2", "c3"))],
            domain=Domain(("a", "b")),
        )  # 4 facts of R, 8 of U: 12 in tup(D)
        views = [q("V(x, y) :- R(x, y)")]
        secret = q("S(x) :- R(x, x)")
        with pytest.raises(IntractableAnalysisError):
            determines_naive(views, secret, schema, max_tuples=6)
        assert determines(views, secret, schema, max_tuples=6) is True
        with pytest.raises(IntractableAnalysisError):
            determines([q("W(x) :- U(x, y, z)")], secret, schema, max_tuples=6)
