"""Cross-validation of the compiled probability kernel.

The kernel (``repro.probability.kernel``) must agree **Fraction for
Fraction** with the seed enumeration engine, which is preserved as
:class:`~repro.reference.NaiveExactEngine` exactly for this
purpose.  The suite pits the two against each other on randomized small
schemas and dictionaries (distributions, conditionals, independence
tests, `independence_gap`, `verify_security_probabilistically`
verdicts), plus the two regression regimes named by the issue: analysis
domains mixing numeric and string constants (the bare ``sorted(facts)``
crash) and disconnected supports (component factorization).
"""

import itertools
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from repro.core.leakage import positive_leakage, possible_answer_tuples
from repro.core.prior import (
    PriorViewKnowledge,
    TupleStatusKnowledge,
    verify_with_knowledge,
)
from repro.core.security import (
    independence_gap,
    verify_security_probabilistically,
)
from repro.cq.parser import parse_query as q
from repro.exceptions import (
    IntractableAnalysisError,
    ProbabilityError,
    SecurityAnalysisError,
)
from repro.probability import (
    And,
    Dictionary,
    ExactEngine,
    FactAbsent,
    FactPresent,
    Not,
    ProbabilityKernel,
    QueryAnswerIs,
    QueryContains,
    QueryTrue,
    truth_table,
)
from repro.cq.witness import subset_zeta
from repro.reference import NaiveExactEngine
from repro.relational import Domain, Fact, Instance, RelationSchema, Schema
from repro.session.engines import SamplingVerificationEngine


# ---------------------------------------------------------------------------
# Helpers: the Definition 4.1 / Eq. (4) checks recomputed on the seed path
# ---------------------------------------------------------------------------
def naive_eq4(secret, views, dictionary):
    """Eq. (4) verdict and largest violation, recomputed on the seed path."""
    engine = NaiveExactEngine(dictionary)
    joint = engine.joint_answer_distribution([secret, *views])
    secret_marginal, views_marginal = {}, {}
    for key, probability in joint.items():
        secret_marginal[key[0]] = secret_marginal.get(key[0], Fraction(0)) + probability
        views_marginal[key[1:]] = views_marginal.get(key[1:], Fraction(0)) + probability
    gap = Fraction(0)
    for secret_answer, p_secret in secret_marginal.items():
        for view_answers, p_views in views_marginal.items():
            p_joint = joint.get((secret_answer, *view_answers), Fraction(0))
            gap = max(gap, abs(p_joint - p_secret * p_views))
    return gap == 0, gap


def naive_verify(secret, views, dictionary):
    """Eq. (4) verdict recomputed entirely on the seed enumeration."""
    return naive_eq4(secret, views, dictionary)[0]


def naive_leakage(secret, views, dictionary):
    """Eq. (9) over single-row statements, recomputed on the seed enumeration."""
    engine = NaiveExactEngine(dictionary)
    view_rows = [possible_answer_tuples(view, dictionary) for view in views]
    best = Fraction(0)
    for row in possible_answer_tuples(secret, dictionary):
        secret_event = QueryContains(secret, [row])
        prior = engine.probability(secret_event)
        if prior == 0:
            continue
        for rows in itertools.product(*view_rows):
            view_event = And(tuple(QueryContains(v, [r]) for v, r in zip(views, rows)))
            p_view = engine.probability(view_event)
            if p_view:
                posterior = engine.joint_probability([secret_event, view_event]) / p_view
                best = max(best, (posterior - prior) / prior)
    return best


# ---------------------------------------------------------------------------
# Randomized schema / dictionary / query generators
# ---------------------------------------------------------------------------
DOMAIN_POOLS = [
    ("a", "b"),
    ("a", "b", "c"),
    ("a", 1, "b"),  # mixed numeric/string domain — unsortable without key=repr
    (1, 2, "x"),
]

PROBABILITY_POOL = [
    Fraction(0),
    Fraction(1, 7),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(1),
]


def random_setup(rng):
    """A random small schema, dictionary and pool of queries over it."""
    values = rng.choice(DOMAIN_POOLS)
    domain = Domain(values, name="D")
    schema = Schema(
        [RelationSchema("R", ("x", "y")), RelationSchema("T", ("x",))], domain=domain
    )
    from repro.relational.tuples import tuple_space

    overrides = {}
    for fact in tuple_space(schema):
        if rng.random() < 0.5:
            overrides[fact] = rng.choice(PROBABILITY_POOL)
    default = rng.choice([Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)])
    dictionary = Dictionary(schema, overrides, default=default)
    constant = rng.choice(values)
    spelled = repr(constant) if isinstance(constant, str) else str(constant)
    pool = [
        q("Q1(x) :- R(x, y)"),
        q("Q2(y) :- R(x, y)"),
        q(f"Q3(x) :- R(x, {spelled})"),
        q("Q4(x) :- T(x)"),
        q("Q5() :- R(x, x)"),
        q(f"Q6() :- R(x, y), T(y), x = {spelled}"),
        q("Q7(x) :- R(x, x), T(x)"),
    ]
    return schema, dictionary, pool


class TestRandomizedCrossValidation:
    def test_kernel_matches_seed_enumeration(self):
        rng = random.Random(20260727)
        for trial in range(6):
            schema, dictionary, pool = random_setup(rng)
            fast = ExactEngine(dictionary)
            naive = NaiveExactEngine(dictionary)
            secret, view = rng.sample(pool, 2)

            assert fast.answer_distribution(secret) == naive.answer_distribution(
                secret
            ), f"trial {trial}: answer distributions diverge"
            assert fast.joint_answer_distribution(
                [secret, view]
            ) == naive.joint_answer_distribution([secret, view]), (
                f"trial {trial}: joint distributions diverge"
            )
            assert set(fast.possible_answers(secret)) == set(
                naive.possible_answers(secret)
            ), f"trial {trial}: possible answers diverge"

            answer = rng.choice(naive.possible_answers(secret))
            given = rng.choice(naive.possible_answers(view))
            s_event = QueryAnswerIs(secret, answer)
            v_event = QueryAnswerIs(view, given)
            assert fast.probability(s_event) == naive.probability(s_event)
            assert fast.joint_probability([s_event, v_event]) == naive.joint_probability(
                [s_event, v_event]
            )
            if naive.probability(v_event) != 0:
                assert fast.conditional_probability(
                    s_event, v_event
                ) == naive.conditional_probability(s_event, v_event)
            else:
                with pytest.raises(ProbabilityError):
                    fast.conditional_probability(s_event, v_event)
            assert fast.are_independent(s_event, v_event) == naive.are_independent(
                s_event, v_event
            )

    def test_verdicts_and_gaps_match_seed_enumeration(self):
        rng = random.Random(42)
        verdicts = set()
        for trial in range(10):
            schema, dictionary, pool = random_setup(rng)
            # One view, then two: Eq. (4) over the views' joint answer.
            secret, *views = rng.sample(pool, 2 + trial % 2)
            expected_verdict, expected_gap = naive_eq4(secret, views, dictionary)
            assert (
                verify_security_probabilistically(secret, views, dictionary)
                == expected_verdict
            ), f"trial {trial}: verdicts diverge"
            gap = independence_gap(secret, views, dictionary)
            assert gap == expected_gap, f"trial {trial}: independence gaps diverge"
            # Consistency of the two kernel answers with each other.
            assert expected_verdict == (gap == 0)
            verdicts.add(expected_verdict)
        assert verdicts == {True, False}, "the trials must hit both verdicts"

    def test_truth_table_matches_brute_force(self):
        from repro.cq.evaluation import evaluate_boolean
        from repro.relational.tuples import tuple_space

        rng = random.Random(7)
        for _ in range(10):
            schema, dictionary, pool = random_setup(rng)
            query = rng.choice(pool)
            facts = tuple_space(schema)[: rng.randint(1, 5)]
            table = truth_table(query, facts)
            for mask in range(1 << len(facts)):
                subset = Instance(
                    facts[j] for j in range(len(facts)) if mask >> j & 1
                )
                assert table[mask] == evaluate_boolean(query, subset)


class TestMixedTypeDomains:
    """Regression: bare ``sorted(facts)`` crashed on mixed-type domains."""

    def setup_method(self):
        domain = Domain(["a", 1, "b"], name="mixed")
        self.schema = Schema([RelationSchema("R", ("x", "y"))], domain=domain)
        self.dictionary = Dictionary.uniform(self.schema, Fraction(1, 2))

    def test_exact_engine_handles_mixed_domains(self):
        engine = ExactEngine(self.dictionary)
        query = q("Q(x) :- R(x, y)")
        distribution = engine.answer_distribution(query)
        assert sum(distribution.values()) == 1
        assert len(engine.possible_answers(query)) == len(distribution)
        joint = engine.joint_answer_distribution([query, q("W(y) :- R(x, y)")])
        assert sum(joint.values()) == 1

    def test_seed_engine_handles_mixed_domains(self):
        # The reference path gets the same key=repr fix so cross-validation
        # can cover mixed domains at all.
        naive = NaiveExactEngine(self.dictionary)
        query = q("Q(x) :- R(x, 1)")
        assert sum(naive.answer_distribution(query).values()) == 1
        assert naive.probability(QueryTrue(query)) == ExactEngine(
            self.dictionary
        ).probability(QueryTrue(query))

    def test_mixed_domain_verification_verdict(self):
        secret = q("S(y) :- R(1, y)")
        view = q("V(y) :- R('a', y)")
        assert verify_security_probabilistically(secret, [view], self.dictionary) == (
            naive_verify(secret, [view], self.dictionary)
        )


class TestComponentFactorization:
    """Disconnected supports are enumerated per component and recombined."""

    def setup_method(self):
        domain = Domain(["a", "b", "c"], name="D")
        self.schema = Schema(
            [
                RelationSchema("A", ("x",)),
                RelationSchema("B", ("x",)),
                RelationSchema("C", ("x",)),
            ],
            domain=domain,
        )
        self.dictionary = Dictionary(
            self.schema,
            {Fact("A", ("a",)): Fraction(1, 7), Fact("B", ("b",)): Fraction(3, 5)},
            default=Fraction(1, 3),
        )
        self.qa = q("QA(x) :- A(x)")
        self.qb = q("QB(x) :- B(x)")
        self.qc = q("QC() :- C(x)")

    def test_factorized_joint_matches_seed_enumeration(self):
        fast = ExactEngine(self.dictionary)
        naive = NaiveExactEngine(self.dictionary)
        queries = [self.qa, self.qb, self.qc]
        assert fast.joint_answer_distribution(queries) == naive.joint_answer_distribution(
            queries
        )
        assert verify_security_probabilistically(
            self.qa, [self.qb], self.dictionary
        )  # disjoint supports are independent for every dictionary
        assert independence_gap(self.qa, [self.qb], self.dictionary) == 0

    def test_factorization_raises_the_effective_support_bound(self):
        # The union support has 9 facts; with a bound of 3 the seed engine
        # refuses, while the kernel enumerates three 3-fact components.
        naive = NaiveExactEngine(self.dictionary, max_support_size=3)
        with pytest.raises(IntractableAnalysisError):
            naive.joint_answer_distribution([self.qa, self.qb, self.qc])
        fast = ExactEngine(self.dictionary, max_support_size=3)
        distribution = fast.joint_answer_distribution([self.qa, self.qb, self.qc])
        assert sum(distribution.values()) == 1

    def test_connected_component_still_guarded(self):
        fast = ExactEngine(self.dictionary, max_support_size=2)
        with pytest.raises(IntractableAnalysisError):
            fast.answer_distribution(self.qa)  # one 3-fact component


class TestKernelSharingAndModes:
    def setup_method(self):
        domain = Domain(["a", "b"], name="D")
        self.schema = Schema([RelationSchema("R", ("x", "y"))], domain=domain)
        self.dictionary = Dictionary.uniform(self.schema, Fraction(1, 3))

    def test_repeated_joint_distribution_is_a_memo_hit(self):
        kernel = ProbabilityKernel(self.dictionary)
        queries = [q("Q1(x) :- R(x, y)"), q("Q2(y) :- R(x, y)")]
        before = dict(kernel.stats)
        first = kernel.joint_answer_distribution(queries)
        mid = dict(kernel.stats)
        # Another kernel over the same dictionary shares its table, and
        # the table keys by content: an α-renamed spelling is a hit too.
        second = ExactEngine(self.dictionary).joint_answer_distribution(queries)
        renamed = kernel.joint_answer_distribution([q("A(u) :- R(u, w)"), q("B(w) :- R(u, w)")])
        after = dict(kernel.stats)
        assert first == second == renamed
        assert mid["distributions"] == before["distributions"] + 1
        assert after["distributions"] == mid["distributions"]
        assert after["distribution_hits"] == mid["distribution_hits"] + 2

    def test_verification_reuses_the_shared_joint_distribution(self):
        kernel = ProbabilityKernel(self.dictionary)
        secret, view = q("S(y) :- R(x, y)"), q("V(x) :- R(x, y)")
        verify_security_probabilistically(secret, [view], self.dictionary)
        enumerations = kernel.stats["distributions"]
        independence_gap(secret, [view], self.dictionary)
        assert kernel.stats["distributions"] == enumerations  # pure cache hit

    def test_event_distributions_are_memoized_by_the_events_content(self):
        # Equal events built apart share one entry; different events never do.
        kernel = ProbabilityKernel(self.dictionary)
        naive = NaiveExactEngine(self.dictionary)
        query = q("Q(x) :- R(x, y)")
        fact = Fact("R", ("a", "b"))
        for event in (FactPresent(fact), FactAbsent(fact), FactPresent(fact)):
            joint = kernel.joint_distribution([query], [event])
            expected = {
                (answer, holds): naive.joint_probability([QueryAnswerIs(query, answer), tested])
                for answer in naive.possible_answers(query)
                for holds, tested in ((True, event), (False, Not(event)))
            }
            assert {key: p for key, p in joint.items() if p} == {
                key: p for key, p in expected.items() if p
            }
        assert (kernel.stats["distributions"], kernel.stats["distribution_hits"]) == (2, 1)

    def test_a_used_dictionary_pickles_with_an_empty_table(self):
        import pickle

        query = q("Q(x) :- R(x, y)")
        expected = ProbabilityKernel(self.dictionary).answer_distribution(query)
        clone = ProbabilityKernel(pickle.loads(pickle.dumps(self.dictionary)))
        assert len(clone._memo) == 0
        assert clone.answer_distribution(query) == expected

    def test_memo_table_is_dropped_with_the_dictionary(self):
        # Nothing points back at the dictionary, so reference counting
        # alone frees it and its table: the collector stays off.
        import gc
        import weakref

        dictionary = Dictionary.uniform(self.schema, Fraction(1, 5))
        kernel = ProbabilityKernel(dictionary)
        kernel.answer_distribution(q("Q(x) :- R(x, y)"))
        kernel.probability(QueryTrue(q("B() :- R(x, x)")))
        assert len(kernel._memo) > 0
        dictionary_ref, table_ref = weakref.ref(dictionary), weakref.ref(kernel._memo)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del dictionary, kernel
            assert dictionary_ref() is None, "the memo table must not keep its dictionary alive"
            assert table_ref() is None, "the memo table must die with its dictionary"
        finally:
            if enabled:
                gc.enable()

    def test_engine_keeps_its_dictionary_alive(self):
        import gc
        import weakref

        dictionary = Dictionary.uniform(self.schema, Fraction(1, 7))
        engine = ExactEngine(dictionary)
        ref = weakref.ref(dictionary)
        del dictionary
        gc.collect()
        assert ref() is not None
        assert sum(engine.answer_distribution(q("Q(x) :- R(x, y)")).values()) == 1

    def test_opaque_predicates_keep_the_seed_support_bound(self):
        # A PredicateEvent component gets none of the compiled speedup, so
        # its *default* bound stays the seed's 22 even though structural
        # components now default to 26; an explicit bound is honoured.
        from repro.core.prior import CardinalityConstraintKnowledge, verify_with_knowledge

        big_schema = Schema(
            [RelationSchema("R", ("x", "y", "z"))], domain=Domain.of("a", "b", "c")
        )  # 27-fact tuple space
        dictionary = Dictionary.uniform(big_schema, Fraction(1, 2))
        knowledge = CardinalityConstraintKnowledge("at_most", 2)  # support unknown
        with pytest.raises(IntractableAnalysisError):
            verify_with_knowledge(
                q("S(x) :- R(x, y, z)"), [q("V(y) :- R(x, y, z)")], knowledge, dictionary
            )

    def test_zeta_transform_is_superset_closure(self):
        n = 4
        witnesses = {0b0011, 0b1000}
        bits = 0
        for w in witnesses:
            bits |= 1 << w
        closed = subset_zeta(bits, n)
        for mask in range(1 << n):
            expected = any(w & mask == w for w in witnesses)
            assert bool(closed >> mask & 1) == expected


class TestMemoTableUnderConcurrency:
    """Threads share one dictionary's memo table while it evicts constantly."""

    def test_concurrent_analyses_equal_the_seed_engine(self, monkeypatch):
        monkeypatch.setattr("repro.probability.kernel._MEMO_LIMIT", 3)
        domain = Domain(["a", "b"], name="D")
        schema = Schema(
            [RelationSchema("R", ("x", "y")), RelationSchema("T", ("x",))], domain=domain
        )
        dictionary = Dictionary(
            schema,
            {Fact("R", ("a", "b")): Fraction(1, 3), Fact("T", ("a",)): Fraction(3, 4)},
            default=Fraction(1, 2),
        )
        pool = [
            q("Q1(x) :- R(x, y)"),
            q("Q2(y) :- R(x, y)"),
            q("Q3(x) :- R(x, 'a')"),
            q("Q4(x) :- T(x)"),
            q("Q5() :- R(x, x)"),
            q("Q6(y) :- R(x, y), T(y)"),
        ]
        pairs = [(secret, [view]) for secret, view in itertools.permutations(pool, 2)][::2]
        pairs += [(pool[0], pool[1:3]), (pool[5], [pool[3], pool[4]])]
        expected = {}
        for index, (secret, views) in enumerate(pairs):
            verdict, gap = naive_eq4(secret, views, dictionary)
            expected[index] = (
                verdict,
                gap,
                naive_leakage(secret, views, dictionary),
                set(NaiveExactEngine(dictionary).possible_answers(secret)),
            )
        assert {entry[0] for entry in expected.values()} == {True, False}

        def analyse(index):
            secret, views = pairs[index]
            return (
                verify_security_probabilistically(secret, views, dictionary),
                independence_gap(secret, views, dictionary),
                positive_leakage(secret, views, dictionary).leakage,
                set(ProbabilityKernel(dictionary).possible_answers(secret)),
            )

        def worker(seed):
            order = [index for _ in range(2) for index in range(len(pairs))]
            random.Random(seed).shuffle(order)
            return [(index, analyse(index)) for index in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often: more interleavings
        try:
            with ThreadPoolExecutor(max_workers=4) as pool_executor:
                runs = list(pool_executor.map(worker, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for run in runs:
            for index, result in run:
                assert result == expected[index], (pairs[index], result, expected[index])
        kernel = ProbabilityKernel(dictionary)
        assert len(kernel._memo) <= 3
        # Entries were evicted and recomputed: more enumerations than pairs.
        assert kernel.stats["distributions"] > len(pairs)


class TestKnowledgeThroughKernel:
    def setup_method(self):
        domain = Domain(["a", "b"], name="D")
        self.schema = Schema([RelationSchema("R", ("x", "y"))], domain=domain)
        self.dictionary = Dictionary.uniform(self.schema, Fraction(1, 2))

    def test_tuple_status_knowledge_matches_legacy_formula(self):
        secret = q("S(y) :- R(x, y)")
        view = q("V(x) :- R(x, y)")
        knowledge = TupleStatusKnowledge(present=[Fact("R", ("a", "b"))])
        result = verify_with_knowledge(secret, [view], knowledge, self.dictionary)
        # Legacy Eq. (7) evaluation on the seed engine.
        naive = NaiveExactEngine(self.dictionary)
        event = knowledge.event(self.schema)
        p_k = naive.probability(event)
        expected = True
        import itertools

        for s in naive.possible_answers(secret):
            s_event = QueryAnswerIs(secret, s)
            p_s_k = naive.joint_probability([s_event, event])
            for v in naive.possible_answers(view):
                v_event = QueryAnswerIs(view, v)
                p_v_k = naive.joint_probability([v_event, event])
                p_all = naive.joint_probability([s_event, v_event, event])
                if p_all * p_k != p_s_k * p_v_k:
                    expected = False
        assert result == expected

    def test_prior_view_knowledge_matches_legacy_formula(self):
        secret = q("S() :- R('a', x)")
        view = q("V() :- R(x, 'b')")
        prior = PriorViewKnowledge(q("U() :- R('a', 'b')"), boolean_answer=True)
        result = verify_with_knowledge(secret, view, prior, self.dictionary)
        assert isinstance(result, bool)

    def test_zero_probability_knowledge_raises(self):
        from repro.exceptions import KnowledgeError

        impossible = TupleStatusKnowledge(
            present=[Fact("R", ("a", "a"))], absent=[Fact("R", ("a", "b"))]
        )
        zero_dictionary = Dictionary(
            self.schema, {Fact("R", ("a", "a")): 0}, default=Fraction(1, 2)
        )
        with pytest.raises(KnowledgeError):
            verify_with_knowledge(
                q("S() :- R(x, x)"), [q("V() :- R(x, y)")], impossible, zero_dictionary
            )


class TestSamplingSeedValidation:
    """The ``seed`` knob is validated like ``samples``/``tolerance_sigmas``."""

    def setup_method(self):
        domain = Domain(["a", "b"], name="D")
        self.schema = Schema([RelationSchema("R", ("x", "y"))], domain=domain)
        self.dictionary = Dictionary.uniform(self.schema, Fraction(1, 2))
        self.engine = SamplingVerificationEngine()
        self.secret = q("S(y) :- R(x, y)")
        self.views = [q("V(x) :- R(x, y)")]

    @pytest.mark.parametrize("bad_seed", [True, False, None, 1.5, "0"])
    def test_invalid_seeds_are_rejected_and_named(self, bad_seed):
        with pytest.raises(SecurityAnalysisError) as excinfo:
            self.engine.verify(
                self.secret, self.views, self.dictionary, samples=10, seed=bad_seed
            )
        assert repr(bad_seed) in str(excinfo.value)

    def test_valid_seed_still_accepted(self):
        verdict = self.engine.verify(
            self.secret, self.views, self.dictionary, samples=50, seed=3
        )
        assert isinstance(verdict, bool)
