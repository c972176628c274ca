"""Property-based tests (hypothesis) for the security core.

These tests drive the paper's central equivalences with randomly
generated boolean queries over a fixed small schema:

* the polynomial ``f_Q`` agrees with the brute-force probability and its
  variables are exactly the critical tuples (Proposition 4.13),
* crit-disjointness coincides with exact statistical independence
  (Theorem 4.5) and with the FKG-style inequality being tight,
* the production critical-tuple engine agrees with the naive
  enumeration oracle (Definition 4.4), and Theorem 4.5's common critical
  set with its definition, with and without a key constraint,
* leakage is zero exactly for secure pairs and never negative, and the
  Eq. (9) search (free, in a session and in the audit's grading),
  Theorem 6.1's ε, Definition 4.1's ``verify`` and the independence gap
  equal their definitions computed pair by pair on the seed enumeration
  engine.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro import Dictionary, q
from repro.audit import classify_disclosure
from repro.core import (
    CardinalityConstraintKnowledge,
    ConjunctionKnowledge,
    KeyConstraintKnowledge,
    PriorKnowledge,
    PriorViewKnowledge,
    TupleStatusKnowledge,
    common_critical_tuples,
    critical_tuples,
    decide_security,
    epsilon_of_theorem_6_1,
    independence_gap,
    positive_leakage,
    practical_security_check,
    verify_security_probabilistically,
    verify_with_knowledge,
)
from repro.core.domain_bounds import analysis_schema
from repro.cq import Atom, ConjunctiveQuery, Constant, Variable, conjoin, conjoin_all
from repro.exceptions import KnowledgeError
from repro.probability import (
    ExactEngine,
    FactPresent,
    Or,
    QueryAnswerIs,
    QueryContains,
    QueryTrue,
    query_polynomial,
)
from repro.reference import NaiveExactEngine, critical_tuples_naive
from repro.relational import Domain, Fact, RelationSchema, Schema, tuple_space
from repro.session import AnalysisSession

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
        if crit:
            assert not verify_security_probabilistically(query, query, HALF)
        else:
            assert verify_security_probabilistically(query, query, HALF)


# ---------------------------------------------------------------------------
# Eq. (7): verify_with_knowledge against the definition, literally
# ---------------------------------------------------------------------------
PROBABILITY_POOL = (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))


def _random_query(
    rng: random.Random, name: str, boolean: bool = False, relations=(("R", 2),)
) -> ConjunctiveQuery:
    """1–2 subgoals over ``(relation, arity)`` pairs, headed by one variable unless boolean."""
    pool = [Variable(n) for n in VARIABLE_NAMES] + [Constant(v) for v in DOMAIN_VALUES]

    def atom() -> Atom:
        relation, arity = relations[0] if len(relations) == 1 else rng.choice(relations)
        return Atom(relation, tuple(rng.choice(pool) for _ in range(arity)))

    body = [atom() for _ in range(rng.randint(1, 2))]
    variables = sorted({v for atom in body for v in atom.variables})
    head = () if boolean or not variables else tuple(rng.sample(variables, 1))
    return ConjunctiveQuery(head, body, name=name)


def _random_knowledge(kind: str, rng: random.Random) -> PriorKnowledge:
    if kind == "keys":
        return KeyConstraintKnowledge({"R": [rng.randint(0, 1)]})
    if kind == "cardinality":
        comparison = rng.choice(["exactly", "at_most", "at_least"])
        return CardinalityConstraintKnowledge(comparison, rng.randint(0, 3), "R")
    if kind == "tuple-status":
        present, absent = rng.sample(ALL_FACTS, 2)
        return TupleStatusKnowledge(present=[present], absent=[absent])
    if kind == "prior-view":
        return PriorViewKnowledge(_random_query(rng, "U", boolean=True))
    return ConjunctionKnowledge(
        [_random_knowledge("keys", rng), _random_knowledge("tuple-status", rng)]
    )


def _literal_equation_7(secret, views, knowledge, dictionary):
    """Eq. (7) for every answer pair, in ``Fraction``s; ``None`` when ``P[K] = 0``."""
    naive = NaiveExactEngine(dictionary)
    p_knowledge = naive.probability(knowledge)
    if p_knowledge == 0:
        return None
    for secret_answer in naive.possible_answers(secret):
        secret_is = QueryAnswerIs(secret, secret_answer)
        view_answer_lists = [naive.possible_answers(view) for view in views]
        for view_answers in itertools.product(*view_answer_lists):
            views_are = [QueryAnswerIs(v, a) for v, a in zip(views, view_answers)]
            joint = naive.joint_probability([secret_is, *views_are, knowledge])
            marginals = naive.joint_probability([secret_is, knowledge]) * (
                naive.joint_probability([*views_are, knowledge])
            )
            if joint * p_knowledge != marginals:
                return False
    return True


class TestEquation7:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize(
        "kind", ["keys", "cardinality", "tuple-status", "prior-view", "conjunction"]
    )
    def test_verify_with_knowledge_matches_the_literal_check(self, kind, seed):
        rng = random.Random(seed)
        dictionary = Dictionary(
            SCHEMA, {fact: rng.choice(PROBABILITY_POOL) for fact in ALL_FACTS}
        )
        secret = _random_query(rng, "S")
        views = [_random_query(rng, f"V{i}") for i in range(rng.randint(1, 2))]
        knowledge = _random_knowledge(kind, rng)
        event = knowledge.event(SCHEMA)
        expected = _literal_equation_7(secret, views, event, dictionary)
        # Either form of the knowledge is accepted.
        for given in (knowledge, event):
            if expected is None:
                with pytest.raises(KnowledgeError):
                    verify_with_knowledge(secret, views, given, dictionary)
            else:
                assert verify_with_knowledge(secret, views, given, dictionary) is expected


# ---------------------------------------------------------------------------
# Eq. (9), Theorem 6.1's ε and Eq. (4) against the definitions, literally
# ---------------------------------------------------------------------------
TWO_RELATIONS = Schema(
    [RelationSchema("R", ("c1", "c2")), RelationSchema("T", ("c1",))],
    domain=Domain(DOMAIN_VALUES),
)
TWO_RELATION_FACTS = tuple(tuple_space(TWO_RELATIONS))
TWO_RELATION_ARITIES = (("R", 2), ("T", 1))
THREE_RELATIONS = Schema(
    [
        RelationSchema("R", ("c1", "c2")),
        RelationSchema("T", ("c1",)),
        RelationSchema("U", ("c1",)),
    ],
    domain=Domain(DOMAIN_VALUES),
)
THREE_RELATION_ARITIES = (("R", 2), ("T", 1), ("U", 1))
#: Certain facts as well: a statement can then have prior 1.
LEAKAGE_POOL = PROBABILITY_POOL + (Fraction(1),)


def _statements(naive, query, max_rows):
    """Every set of 1 to ``max_rows`` rows the query can answer."""
    rows = sorted(set().union(*naive.possible_answers(query)), key=repr)
    return [
        combo
        for size in range(1, max_rows + 1)
        for combo in itertools.combinations(rows, size)
    ]


def _statement_crit(parts, schema):
    """crit of the boolean query ``rows ⊆ Q(I)`` for every ``(Q, rows)`` part."""
    specialisations = [query.boolean_specialisation(row) for query, rows in parts for row in rows]
    return critical_tuples_naive(conjoin_all(specialisations), schema)


def _literal_leakage(secret, views, dictionary, max_secret_rows, max_view_rows):
    """Eq. (9) and Theorem 6.1's ε, pair by pair on the seed engine.

    Returns ``(gains, epsilon, disjoint, explored)``: the gain of every
    pair with ``P[s] > 0`` and ``P[v̄] > 0``, ε, the pairs among those
    whose critical tuples are disjoint, and the pairs with ``P[s] > 0``.
    """
    schema = dictionary.schema
    naive = NaiveExactEngine(dictionary)
    view_statements = list(
        itertools.product(*(_statements(naive, view, max_view_rows) for view in views))
    )
    gains, disjoint, explored, epsilon = {}, set(), 0, Fraction(0)
    for s in _statements(naive, secret, max_secret_rows):
        secret_event = QueryContains(secret, s)
        for v in view_statements:
            view_events = [QueryContains(view, rows) for view, rows in zip(views, v)]
            common = _statement_crit([(secret, s)], schema) & _statement_crit(
                zip(views, v), schema
            )
            p_both = naive.joint_probability([secret_event, *view_events])
            if common and p_both:
                touches = Or(tuple(FactPresent(fact) for fact in common))
                p_touches = naive.joint_probability([touches, secret_event, *view_events])
                epsilon = max(epsilon, p_touches / p_both)
            prior = naive.probability(secret_event)
            p_view = naive.joint_probability(view_events)
            explored += prior != 0
            if prior and p_view:
                gains[s, v] = (p_both / p_view - prior) / prior
                if not common:
                    disjoint.add((s, v))
    return gains, epsilon, disjoint, explored


def _literal_gap(secret, views, dictionary):
    """Eq. (4)'s largest violation ``|P[S=s ∧ V̄=v̄] − P[S=s]·P[V̄=v̄]|`` on the seed engine."""
    naive = NaiveExactEngine(dictionary)
    joint = naive.joint_answer_distribution([secret, *views])
    secret_marginal = naive.answer_distribution(secret)
    views_marginal = naive.joint_answer_distribution(views)
    return max(
        abs(joint.get((s, *v), Fraction(0)) - p_secret * p_views)
        for s, p_secret in secret_marginal.items()
        for v, p_views in views_marginal.items()
    )


def _assert_is_the_literal_search(result, gains, explored):
    assert result.leakage == max([Fraction(0), *gains.values()])
    assert result.explored == explored
    if result.worst_secret_rows is not None:
        worst = (result.worst_secret_rows, result.worst_view_rows)
        assert gains[worst] == result.leakage
        assert result.posterior == result.prior * (1 + result.leakage)


def _check_against_the_definitions(secret, views, dictionary, **rows):
    """Every leakage entry point, ε, ``verify`` and the gap against their definitions."""
    gains, epsilon, disjoint, explored = _literal_leakage(
        secret, views, dictionary, rows["max_secret_rows"], rows["max_view_rows"]
    )
    session = AnalysisSession(dictionary.schema, dictionary=dictionary)

    result = positive_leakage(secret, views, dictionary, **rows)
    _assert_is_the_literal_search(result, gains, explored)
    assert session.leakage(secret, views, **rows).measurement == result
    # Theorem 4.5 per atomic statement: disjoint critical tuples, no gain
    # (the pairs the search skips).
    assert all(gains[pair] == 0 for pair in disjoint)
    # The audit's grading searches single rows on the session's cache.
    assessment = classify_disclosure(
        secret, views, dictionary.schema, dictionary, critical_fn=session.critical_fn
    )
    if assessment.leakage is not None:
        single_gains, _, _, single_explored = _literal_leakage(secret, views, dictionary, 1, 1)
        _assert_is_the_literal_search(assessment.leakage, single_gains, single_explored)

    assert epsilon_of_theorem_6_1(secret, views, dictionary, **rows) == epsilon

    gap = _literal_gap(secret, views, dictionary)
    assert independence_gap(secret, views, dictionary) == gap
    assert verify_security_probabilistically(secret, views, dictionary) is (gap == 0)
    assert session.verify(secret, views).verdict is (gap == 0)
    return result.leakage, epsilon


class TestLeakageDefinitions:
    @pytest.mark.parametrize("seed", range(16))
    def test_random_queries_match_the_definitions(self, seed):
        rng = random.Random(seed)
        dictionary = Dictionary(
            TWO_RELATIONS, {fact: rng.choice(LEAKAGE_POOL) for fact in TWO_RELATION_FACTS}
        )
        secret = _random_query(rng, "S", relations=TWO_RELATION_ARITIES)
        views = [
            _random_query(rng, f"V{i}", relations=TWO_RELATION_ARITIES)
            for i in range(rng.randint(1, 2))
        ]
        _check_against_the_definitions(
            secret,
            views,
            dictionary,
            max_secret_rows=rng.randint(1, 2),
            max_view_rows=rng.randint(1, 2),
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_three_relations_match_the_definitions(self, seed):
        rng = random.Random(seed)
        dictionary = Dictionary(
            THREE_RELATIONS,
            {fact: rng.choice(LEAKAGE_POOL) for fact in tuple_space(THREE_RELATIONS)},
        )
        secret = _random_query(rng, "S", relations=THREE_RELATION_ARITIES)
        views = [
            _random_query(rng, f"V{i}", relations=THREE_RELATION_ARITIES)
            for i in range(rng.randint(1, 2))
        ]
        _check_against_the_definitions(
            secret,
            views,
            dictionary,
            max_secret_rows=rng.randint(1, 2),
            max_view_rows=rng.randint(1, 2),
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_example_4_2_matches_the_definitions(self, seed):
        # The random queries' ε is nearly always 0 or 1: a ground subgoal,
        # a certain or impossible fact, or a 2-row statement whose
        # critical tuples cover the other side's forces L_{s,v̄}.  Single
        # rows of Example 4.2 with no certain or impossible fact do not.
        rng = random.Random(seed)
        dictionary = Dictionary(
            TWO_RELATIONS,
            {fact: rng.choice(PROBABILITY_POOL[1:]) for fact in TWO_RELATION_FACTS},
        )
        leakage, epsilon = _check_against_the_definitions(
            q("S(y) :- R(x, y)"),
            [q("V(x) :- R(x, y)")],
            dictionary,
            max_secret_rows=1,
            max_view_rows=1,
        )
        assert 0 < leakage
        assert 0 < epsilon < 1


# ---------------------------------------------------------------------------
# Theorem 4.5's common critical set: one formula, three computations
# ---------------------------------------------------------------------------
class TestCommonCriticalTuples:
    @pytest.mark.parametrize("keyed", [False, True])
    @pytest.mark.parametrize("seed", range(20))
    def test_common_set_matches_the_definition(self, seed, keyed):
        rng = random.Random(seed)
        secret = _random_query(rng, "S", relations=TWO_RELATION_ARITIES)
        views = [
            _random_query(rng, f"V{i}", relations=TWO_RELATION_ARITIES)
            for i in range(rng.randint(1, 2))
        ]
        constraint = (
            KeyConstraintKnowledge({"R": [0]}).instance_constraint() if keyed else None
        )
        # Definition 4.4, literally, over the fixed two-value schema.
        view_critical = set()
        for view in views:
            view_critical |= critical_tuples_naive(view, TWO_RELATIONS, None, constraint)
        literal = critical_tuples_naive(secret, TWO_RELATIONS, None, constraint) & view_critical
        assert common_critical_tuples(secret, views, TWO_RELATIONS, None, constraint) == literal
        if keyed:
            return
        # Over Proposition 4.9's analysis schema, the set Theorem 4.5 decides by.
        working = analysis_schema(TWO_RELATIONS, [secret, *views])
        decision = decide_security(secret, views, TWO_RELATIONS)
        assert common_critical_tuples(secret, views, working) == decision.common_critical
