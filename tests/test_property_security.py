"""Property-based tests (hypothesis) for the security core.

These tests drive the paper's central equivalences with randomly
generated boolean queries over a fixed small schema:

* the polynomial ``f_Q`` agrees with the brute-force probability and its
  variables are exactly the critical tuples (Proposition 4.13),
* crit-disjointness coincides with exact statistical independence
  (Theorem 4.5) and with the FKG-style inequality being tight,
* the production critical-tuple engine agrees with the naive
  enumeration oracle (Definition 4.4),
* leakage is zero exactly for secure pairs and never negative.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro import Dictionary, q
from repro.core import (
    critical_tuples,
    positive_leakage,
    practical_security_check,
)
from repro.cq import Atom, ConjunctiveQuery, Constant, Variable, conjoin
from repro.probability import ExactEngine, QueryTrue, query_polynomial
from repro.reference import critical_tuples_naive
from repro.relational import Domain, Fact, RelationSchema, Schema, tuple_space

DOMAIN_VALUES = ("a", "b")
VARIABLE_NAMES = ("x", "y")

SCHEMA = Schema([RelationSchema("R", ("c1", "c2"))], domain=Domain(DOMAIN_VALUES))
ALL_FACTS = tuple(tuple_space(SCHEMA))
HALF = Dictionary.uniform(SCHEMA, Fraction(1, 2))
THIRD = Dictionary.uniform(SCHEMA, Fraction(1, 3))


def terms():
    variables = st.sampled_from([Variable(n) for n in VARIABLE_NAMES])
    constants = st.sampled_from([Constant(v) for v in DOMAIN_VALUES])
    return st.one_of(variables, constants)


def atoms():
    return st.builds(lambda t1, t2: Atom("R", (t1, t2)), terms(), terms())


def boolean_queries(max_subgoals: int = 2):
    return st.lists(atoms(), min_size=1, max_size=max_subgoals).map(
        lambda body: ConjunctiveQuery((), tuple(body), name="Q")
    )


def probability_assignments():
    probabilities = st.sampled_from(
        [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(1)]
    )
    return st.tuples(*([probabilities] * len(ALL_FACTS))).map(
        lambda values: dict(zip(ALL_FACTS, values))
    )


class TestPolynomialProperties:
    @settings(max_examples=50, deadline=None)
    @given(boolean_queries(), probability_assignments())
    def test_polynomial_matches_bruteforce_probability(self, query, assignment):
        poly = query_polynomial(query, ALL_FACTS)
        dictionary = Dictionary(SCHEMA, assignment, default=0)
        engine = ExactEngine(dictionary)
        assert poly.evaluate(assignment) == engine.probability(QueryTrue(query))

    @settings(max_examples=50, deadline=None)
    @given(boolean_queries())
    def test_polynomial_variables_are_the_critical_tuples(self, query):
        poly = query_polynomial(query, ALL_FACTS)
        assert poly.variables == critical_tuples(query, SCHEMA)

    @settings(max_examples=50, deadline=None)
    @given(boolean_queries(), boolean_queries())
    def test_product_rule_iff_disjoint_critical_tuples(self, secret, view):
        left_crit = critical_tuples(secret, SCHEMA)
        right_crit = critical_tuples(view, SCHEMA)
        engine = ExactEngine(HALF)
        joint = engine.joint_probability([QueryTrue(secret), QueryTrue(view)])
        product = engine.probability(QueryTrue(secret)) * engine.probability(QueryTrue(view))
        # FKG inequality: monotone events are positively correlated.
        assert joint >= product
        if not (left_crit & right_crit):
            assert joint == product


class TestCriticalTupleProperties:
    @settings(max_examples=40, deadline=None)
    @given(boolean_queries())
    def test_fast_and_naive_critical_tuples_agree(self, query):
        assert critical_tuples(query, SCHEMA) == critical_tuples_naive(query, SCHEMA)

    @settings(max_examples=40, deadline=None)
    @given(boolean_queries())
    def test_critical_tuples_are_subgoal_images(self, query):
        from repro.core import candidate_critical_facts

        assert critical_tuples(query, SCHEMA) <= candidate_critical_facts(query, SCHEMA)

    @settings(max_examples=40, deadline=None)
    @given(boolean_queries(), boolean_queries())
    def test_conjunction_critical_tuples_within_union(self, left, right):
        combined = conjoin(left, right)
        union = critical_tuples(left, SCHEMA) | critical_tuples(right, SCHEMA)
        assert critical_tuples(combined, SCHEMA) <= union


class TestSecurityProperties:
    @settings(max_examples=30, deadline=None)
    @given(boolean_queries(), boolean_queries())
    def test_theorem_4_5_for_boolean_queries(self, secret, view):
        from repro.core import verify_security_probabilistically

        disjoint = not (critical_tuples(secret, SCHEMA) & critical_tuples(view, SCHEMA))
        for dictionary in (HALF, THIRD):
            assert verify_security_probabilistically(secret, view, dictionary) == disjoint

    @settings(max_examples=30, deadline=None)
    @given(boolean_queries(), boolean_queries())
    def test_practical_check_is_sound(self, secret, view):
        quick = practical_security_check(secret, view)
        if quick.certainly_secure:
            assert not (critical_tuples(secret, SCHEMA) & critical_tuples(view, SCHEMA))

    @settings(max_examples=20, deadline=None)
    @given(boolean_queries(), boolean_queries())
    def test_leakage_zero_iff_independent(self, secret, view):
        result = positive_leakage(secret, view, THIRD)
        assert result.leakage >= 0
        disjoint = not (critical_tuples(secret, SCHEMA) & critical_tuples(view, SCHEMA))
        if disjoint:
            assert result.leakage == 0

    @settings(max_examples=20, deadline=None)
    @given(boolean_queries())
    def test_security_is_reflexively_violated_for_nontrivial_queries(self, query):
        # A non-trivial query is never secure with respect to itself
        # (symmetry + total disclosure), i.e. its critical set intersects
        # itself unless it is empty.
        crit = critical_tuples(query, SCHEMA)
        from repro.core import verify_security_probabilistically

        if crit:
            assert not verify_security_probabilistically(query, query, HALF)
        else:
            assert verify_security_probabilistically(query, query, HALF)
