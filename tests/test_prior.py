"""Unit tests for security under prior knowledge (Section 5)."""

import random
import sys
import threading
from fractions import Fraction

import pytest

from repro import AnalysisSession, Dictionary, q
from repro.bench import employee_schema, table1_pairs
from repro.core import (
    CardinalityConstraintKnowledge,
    ConjunctionKnowledge,
    KeyConstraintKnowledge,
    PriorViewKnowledge,
    TupleStatusKnowledge,
    decide_security,
    decide_with_cardinality_constraint,
    decide_with_key_constraints,
    decide_with_knowledge,
    decide_with_prior_view,
    decide_with_tuple_status,
    verify_security_probabilistically,
    verify_with_knowledge,
)
from repro.core.criticality import CriticalTupleCache, critical_tuples
from repro.exceptions import KnowledgeError
from repro.probability import PredicateEvent, ProbabilityKernel
from repro.probability.compiled_event import event_key
from repro.relational import Domain, Fact, Instance, RelationSchema, Schema, tuple_space
from repro.relational.tuples import relation_slice


@pytest.fixture
def kv_schema() -> Schema:
    return Schema([RelationSchema("R", ("k", "v"))], domain=Domain.of("a", "b", "c"))


@pytest.fixture
def keyed_schema() -> Schema:
    return Schema(
        [RelationSchema("R", ("k", "v"), key=("k",))], domain=Domain.of("a", "b", "c")
    )


class TestKnowledgeClasses:
    def test_key_knowledge_equivalence_relation(self):
        knowledge = KeyConstraintKnowledge({"R": (0,)})
        assert knowledge.equivalent(Fact("R", ("a", "b")), Fact("R", ("a", "c")))
        assert not knowledge.equivalent(Fact("R", ("a", "b")), Fact("R", ("b", "b")))
        assert not knowledge.equivalent(Fact("R", ("a", "b")), Fact("S", ("a", "b")))

    def test_key_knowledge_without_declared_key_falls_back_to_identity(self):
        knowledge = KeyConstraintKnowledge({})
        assert knowledge.equivalent(Fact("R", ("a", "b")), Fact("R", ("a", "b")))
        assert not knowledge.equivalent(Fact("R", ("a", "b")), Fact("R", ("a", "c")))

    def test_key_knowledge_from_schema(self, keyed_schema):
        knowledge = KeyConstraintKnowledge.from_schema(keyed_schema)
        assert knowledge.key_positions("R") == (0,)

    def test_key_knowledge_from_schema_requires_keys(self, kv_schema):
        with pytest.raises(KnowledgeError):
            KeyConstraintKnowledge.from_schema(kv_schema)

    def test_key_constraint_event(self, keyed_schema):
        knowledge = KeyConstraintKnowledge.from_schema(keyed_schema)
        event = knowledge.event(keyed_schema)
        good = Instance.of(Fact("R", ("a", "b")), Fact("R", ("b", "b")))
        bad = Instance.of(Fact("R", ("a", "b")), Fact("R", ("a", "c")))
        assert event.occurs(good)
        assert not event.occurs(bad)

    def test_cardinality_knowledge_validation(self):
        with pytest.raises(KnowledgeError):
            CardinalityConstraintKnowledge("about", 3)
        with pytest.raises(KnowledgeError):
            CardinalityConstraintKnowledge("exactly", -1)

    def test_cardinality_event_variants(self, kv_schema):
        instance = Instance.of(Fact("R", ("a", "b")), Fact("R", ("b", "c")))
        assert CardinalityConstraintKnowledge("exactly", 2).event(kv_schema).occurs(instance)
        assert CardinalityConstraintKnowledge("at_most", 2).event(kv_schema).occurs(instance)
        assert not CardinalityConstraintKnowledge("at_least", 3).event(kv_schema).occurs(instance)
        per_relation = CardinalityConstraintKnowledge("exactly", 2, relation="R")
        assert per_relation.event(kv_schema).occurs(instance)

    def test_tuple_status_knowledge_consistency(self):
        fact = Fact("R", ("a", "b"))
        with pytest.raises(KnowledgeError):
            TupleStatusKnowledge(present=[fact], absent=[fact])

    def test_tuple_status_event(self, kv_schema):
        present = Fact("R", ("a", "b"))
        absent = Fact("R", ("b", "b"))
        knowledge = TupleStatusKnowledge(present=[present], absent=[absent])
        assert knowledge.covers(present) and knowledge.covers(absent)
        assert not knowledge.covers(Fact("R", ("c", "c")))
        event = knowledge.event(kv_schema)
        assert event.occurs(Instance.of(present))
        assert not event.occurs(Instance.of(present, absent))

    def test_prior_view_knowledge_requires_answer_for_non_boolean(self):
        with pytest.raises(KnowledgeError):
            PriorViewKnowledge(q("U(x) :- R(x, y)"))

    def test_conjunction_knowledge(self, keyed_schema):
        knowledge = ConjunctionKnowledge(
            [
                KeyConstraintKnowledge.from_schema(keyed_schema),
                TupleStatusKnowledge(present=[Fact("R", ("a", "b"))]),
            ]
        )
        event = knowledge.event(keyed_schema)
        assert event.occurs(Instance.of(Fact("R", ("a", "b"))))
        assert not event.occurs(Instance.of(Fact("R", ("b", "c"))))
        assert "AND" in knowledge.describe()

    def test_conjunction_knowledge_requires_parts(self):
        with pytest.raises(KnowledgeError):
            ConjunctionKnowledge([])


class TestApplication2Keys:
    def test_secure_without_keys_insecure_with_keys(self, kv_schema):
        secret = q("S() :- R('a', 'b')")
        view = q("V() :- R('a', 'c')")
        assert decide_security(secret, view, kv_schema).secure
        knowledge = KeyConstraintKnowledge({"R": (0,)})
        decision = decide_with_key_constraints(secret, view, knowledge, kv_schema)
        assert decision.secure is False
        assert decision.conclusive

    def test_distinct_keys_remain_secure(self, kv_schema):
        secret = q("S() :- R('a', 'b')")
        view = q("V() :- R('b', 'c')")
        knowledge = KeyConstraintKnowledge({"R": (0,)})
        decision = decide_with_key_constraints(secret, view, knowledge, kv_schema)
        assert decision.secure is True

    def test_numeric_check_agrees(self, kv_schema):
        # The key-constraint verdicts are confirmed by the literal
        # Definition 5.1 check on a concrete dictionary.
        dictionary = Dictionary.uniform(
            Schema([RelationSchema("R", ("k", "v"))], domain=Domain.of("a", "b", "c")),
            Fraction(1, 3),
        )
        knowledge = KeyConstraintKnowledge({"R": (0,)})
        insecure = verify_with_knowledge(
            q("S() :- R('a', 'b')"), q("V() :- R('a', 'c')"), knowledge, dictionary
        )
        secure = verify_with_knowledge(
            q("S() :- R('a', 'b')"), q("V() :- R('b', 'c')"), knowledge, dictionary
        )
        assert insecure is False
        assert secure is True


class TestApplication3Cardinality:
    def test_cardinality_destroys_security(self, kv_schema):
        secret = q("S() :- R('a', 'b')")
        view = q("V() :- R('b', 'c')")
        assert decide_security(secret, view, kv_schema).secure
        knowledge = CardinalityConstraintKnowledge("exactly", 1)
        decision = decide_with_cardinality_constraint(secret, view, knowledge, kv_schema)
        assert decision.secure is False

    def test_numeric_check_confirms_cardinality_leak(self, kv_schema):
        small = Schema([RelationSchema("R", ("k", "v"))], domain=Domain.of("a", "b"))
        dictionary = Dictionary.uniform(small, Fraction(1, 2))
        knowledge = CardinalityConstraintKnowledge("exactly", 1)
        assert not verify_with_knowledge(
            q("S() :- R('a', 'b')"), q("V() :- R('b', 'a')"), knowledge, dictionary
        )

    def test_trivial_secret_stays_secure(self, kv_schema):
        secret = q("S() :- R(x, y), x != x")  # unsatisfiable, hence trivial
        view = q("V() :- R('b', 'c')")
        knowledge = CardinalityConstraintKnowledge("at_most", 2)
        decision = decide_with_cardinality_constraint(secret, view, knowledge, kv_schema)
        assert decision.secure is True


class TestApplication4TupleStatus:
    def test_disclosing_common_critical_tuple_restores_security(self, binary_ab_schema):
        secret = q("S() :- R('a', -)")
        view = q("V() :- R(-, 'b')")
        assert not decide_security(secret, view, binary_ab_schema).secure
        knowledge = TupleStatusKnowledge(absent=[Fact("R", ("a", "b"))])
        decision = decide_with_tuple_status(secret, view, knowledge, binary_ab_schema)
        assert decision.secure is True

    def test_disclosing_presence_also_works(self, binary_ab_schema):
        secret = q("S() :- R('a', -)")
        view = q("V() :- R(-, 'b')")
        knowledge = TupleStatusKnowledge(present=[Fact("R", ("a", "b"))])
        decision = decide_with_tuple_status(secret, view, knowledge, binary_ab_schema)
        assert decision.secure is True
        dictionary = Dictionary.uniform(binary_ab_schema, Fraction(1, 3))
        assert verify_with_knowledge(secret, view, knowledge, dictionary)

    def test_partial_disclosure_is_inconclusive(self, binary_ab_schema):
        secret = q("S(x, y) :- R(x, y)")
        view = q("V(y, x) :- R(x, y)")
        knowledge = TupleStatusKnowledge(absent=[Fact("R", ("a", "b"))])
        decision = decide_with_tuple_status(secret, view, knowledge, binary_ab_schema)
        assert decision.secure is None
        assert not decision.conclusive

    def test_already_secure_pair(self, binary_ab_schema):
        secret = q("S() :- R('a', 'a')")
        view = q("V() :- R('b', 'b')")
        knowledge = TupleStatusKnowledge()
        decision = decide_with_tuple_status(secret, view, knowledge, binary_ab_schema)
        assert decision.secure is True


class TestApplication5PriorViews:
    @pytest.fixture
    def schema(self) -> Schema:
        return Schema(
            [
                RelationSchema("R1", ("a1", "a2", "a3")),
                RelationSchema("R2", ("a1", "a2", "a3")),
            ],
            domain=Domain.of("a", "b", "c", "d", "e", "f"),
        )

    def test_prior_view_absorbs_new_disclosure(self, schema):
        # A three-column rendition of the paper's Application 5 example.
        prior = q("U() :- R1('a', 'b', -), R2('d', 'e', -)")
        secret = q("S() :- R1('a', -, -), R2('d', 'e', 'f')")
        view = q("V() :- R1('a', 'b', 'c'), R2('d', -, -)")
        assert not decide_security(secret, prior, schema).secure
        assert not decide_security(secret, view, schema).secure
        decision = decide_with_prior_view(secret, view, prior, schema)
        assert decision.secure is True

    def test_detects_additional_disclosure(self, schema):
        prior = q("U() :- R2('d', 'e', -)")
        secret = q("S() :- R1('a', -, -)")
        view = q("V() :- R1('a', 'b', -)")
        decision = decide_with_prior_view(secret, view, prior, schema)
        assert decision.secure is False

    def test_rejects_non_boolean_queries(self, schema):
        with pytest.raises(KnowledgeError):
            decide_with_prior_view(
                q("S(x) :- R1(x, -, -)"), q("V() :- R1('a', -, -)"), q("U() :- R2('d', -, -)"), schema
            )


class TestDispatchAndNumericCheck:
    def test_dispatch_selects_procedures(self, binary_ab_schema, kv_schema):
        key_decision = decide_with_knowledge(
            q("S() :- R('a', 'b')"),
            q("V() :- R('a', 'c')"),
            KeyConstraintKnowledge({"R": (0,)}),
            kv_schema,
        )
        assert key_decision.method == "corollary-5.3-keys"

        card_decision = decide_with_knowledge(
            q("S() :- R('a', 'b')"),
            q("V() :- R('b', 'c')"),
            CardinalityConstraintKnowledge("exactly", 1),
            kv_schema,
        )
        assert card_decision.method == "application-3-cardinality"

        status_decision = decide_with_knowledge(
            q("S() :- R('a', -)"),
            q("V() :- R(-, 'b')"),
            TupleStatusKnowledge(absent=[Fact("R", ("a", "b"))]),
            binary_ab_schema,
        )
        assert status_decision.method == "corollary-5.4-tuple-status"

    def test_dispatch_prior_view(self, binary_ab_schema):
        prior = PriorViewKnowledge(q("U() :- R('a', 'a')"))
        decision = decide_with_knowledge(
            q("S() :- R('a', 'b')"), q("V() :- R('b', 'b')"), prior, binary_ab_schema
        )
        assert decision.method == "corollary-5.5-prior-view"
        assert decision.secure is True

    def test_dispatch_unsupported_combination_is_inconclusive(self, binary_ab_schema):
        prior = PriorViewKnowledge(q("U(x) :- R(x, y)"), answer=[("a",)])
        decision = decide_with_knowledge(
            q("S(x) :- R(x, y)"), q("V(y) :- R(x, y)"), prior, binary_ab_schema
        )
        assert decision.secure is None

    def test_verify_with_knowledge_rejects_zero_probability_knowledge(
        self, binary_ab_schema
    ):
        dictionary = Dictionary.uniform(binary_ab_schema, 0)
        knowledge = TupleStatusKnowledge(present=[Fact("R", ("a", "a"))])
        with pytest.raises(KnowledgeError):
            verify_with_knowledge(
                q("S() :- R('a', 'b')"), q("V() :- R('b', 'b')"), knowledge, dictionary
            )

    def test_relative_security_numeric(self, binary_ab_schema):
        # Relative security: once the prior view U (which equals the secret)
        # has been published, publishing V discloses nothing *additional*
        # about S even though S is insecure w.r.t. V in isolation.
        dictionary = Dictionary.uniform(binary_ab_schema, Fraction(1, 2))
        secret = q("S() :- R('a', 'a')")
        view = q("V() :- R('a', 'a'), R('b', 'b')")
        prior = PriorViewKnowledge(q("U() :- R('a', 'a')"))
        assert not verify_security_probabilistically(secret, view, dictionary)
        assert verify_with_knowledge(secret, view, prior, dictionary)


# ---------------------------------------------------------------------------
# Corollary 5.3 through the critical-tuple cache
# ---------------------------------------------------------------------------
def _quadratic_violating_pairs(knowledge, secret_critical, view_critical):
    """Corollary 5.3's violating pairs by the literal formula (the oracle).

    Every (secret tuple, view tuple) pair in ``repr`` order, kept when the
    two are key-equivalent by the definition of ``≡_K``.
    """

    def equivalent(left, right):
        if left.relation != right.relation:
            return False
        positions = knowledge.key_positions(left.relation)
        if not positions:
            return left == right
        return left.project(positions) == right.project(positions)

    return tuple(
        (t, t2)
        for t in sorted(secret_critical, key=repr)
        for t2 in sorted(view_critical, key=repr)
        if equivalent(t, t2)
    )


class TestKeyConstraintCache:
    @pytest.fixture
    def row2(self):
        return next(row for row in table1_pairs() if row.row == 2)

    def test_a_repeated_decision_is_served_from_the_cache(self, emp_schema, row2):
        session = AnalysisSession(emp_schema)
        knowledge = KeyConstraintKnowledge({"Emp": (0,)})
        first = session.with_knowledge(row2.secret, list(row2.views), knowledge)
        second = session.with_knowledge(row2.secret, list(row2.views), knowledge)
        assert first.cache_used.misses == 1 + len(row2.views)
        assert second.cache_used.misses == 0
        assert second.cache_used.hits >= 2
        assert second.decision == first.decision
        assert first.decision.evidence["violating_pairs"]

    def test_equal_key_declarations_share_one_entry(self, emp_schema):
        tuple_keys = KeyConstraintKnowledge({"Emp": (0,)}).instance_constraint()
        list_keys = KeyConstraintKnowledge({"Emp": [0]}).instance_constraint()
        assert tuple_keys == list_keys and hash(tuple_keys) == hash(list_keys)
        other_keys = KeyConstraintKnowledge({"Emp": (1,)}).instance_constraint()
        assert other_keys != tuple_keys

        query = q("S(n, p) :- Emp(n, d, p)")
        domain = emp_schema.domain
        cache = CriticalTupleCache()
        first = cache.critical_tuples(query, emp_schema, domain, tuple_keys)
        assert first == critical_tuples(query, emp_schema, domain, tuple_keys)
        assert cache.critical_tuples(query, emp_schema, domain, list_keys) is first
        assert (cache.stats().hits, cache.stats().misses, len(cache)) == (1, 1, 1)
        cache.critical_tuples(query, emp_schema, domain, other_keys)
        assert (cache.stats().misses, len(cache)) == (2, 2)

    def test_constrained_and_unconstrained_sets_never_answer_each_other(self, kv_schema):
        # Two facts sharing a key value: no instance satisfying the key
        # constraint witnesses the query, so crit_D(Q, K) is empty.
        query = q("V() :- R(x, y), R(x, z), y != z")
        keys = KeyConstraintKnowledge({"R": (0,)}).instance_constraint()
        domain = kv_schema.domain
        plain = critical_tuples(query, kv_schema, domain)
        keyed = critical_tuples(query, kv_schema, domain, keys)
        assert plain and not keyed
        for order in ((None, keys), (keys, None)):
            cache = CriticalTupleCache()
            for constraint in order:
                expected = keyed if constraint is not None else plain
                assert cache.critical_tuples(query, kv_schema, domain, constraint) == expected
            assert (cache.stats().hits, cache.stats().misses) == (0, 2)

    def test_a_closure_constraint_keys_by_identity(self, kv_schema):
        query = q("V() :- R('a', 'b')")
        keys = KeyConstraintKnowledge({"R": (0,)}).instance_constraint()
        cache = CriticalTupleCache()

        def closure(instance):
            return keys(instance)

        expected = cache.critical_tuples(query, kv_schema, None, keys)
        assert cache.critical_tuples(query, kv_schema, None, closure) == expected
        assert cache.critical_tuples(query, kv_schema, None, closure) == expected
        assert cache.critical_tuples(query, kv_schema, None, lambda i: keys(i)) == expected
        assert (cache.stats().hits, cache.stats().misses) == (1, 3)

    def test_violating_pairs_match_the_quadratic_pairing(self):
        # R/3 keyed on 1–2 positions, T/2 keyed on 1, U/2 unkeyed; the
        # critical sets come from a stub provider, so only the pairing of
        # Corollary 5.3 is under test.
        schema = Schema(
            [
                RelationSchema("R", ("a", "b", "c")),
                RelationSchema("T", ("a", "b")),
                RelationSchema("U", ("a", "b")),
            ],
            domain=Domain.of("x", "y", "z"),
        )
        arities = {"R": 3, "T": 2, "U": 2}
        secret = q("S(x) :- R(x, y, z)")
        views = [q("V1(x) :- T(x, y)"), q("V2(y) :- U(x, y)")]
        rng = random.Random(53)
        values = ("a", "b", "c")

        def random_set():
            return frozenset(
                Fact(relation, [rng.choice(values) for _ in range(arities[relation])])
                for relation in (rng.choice("RTU") for _ in range(rng.randint(0, 12)))
            )

        nonempty = 0
        for _ in range(150):
            keys = {
                "R": tuple(sorted(rng.sample(range(3), rng.choice((1, 2))))),
                "T": (rng.randrange(2),),
            }
            knowledge = KeyConstraintKnowledge(keys)
            sets = {id(query): random_set() for query in (secret, *views)}

            def provider(query, schema, domain, constraint=None, **options):
                assert constraint is not None
                return sets[id(query)]

            decision = decide_with_key_constraints(
                secret, views, knowledge, schema, critical_fn=provider
            )
            view_critical = sets[id(views[0])] | sets[id(views[1])]
            expected = _quadratic_violating_pairs(knowledge, sets[id(secret)], view_critical)
            assert decision.evidence["violating_pairs"] == expected
            assert decision.secure is (not expected)
            nonempty += bool(expected)
        assert 20 < nonempty < 150

    def test_concurrent_decisions_on_one_cache_match_the_uncached_engine(self, emp_schema):
        cases = [
            (row.secret, list(row.views), keys)
            for row in table1_pairs()
            for keys in ((0,), (1,), (0, 2))
        ]
        expected = [
            decide_with_knowledge(
                secret, views, KeyConstraintKnowledge({"Emp": keys}), emp_schema,
                critical_fn=critical_tuples,
            )
            for secret, views, keys in cases
        ]
        cache = CriticalTupleCache()
        barrier = threading.Barrier(8)
        outcomes = {}
        errors = []

        def worker(slot):
            try:
                session = AnalysisSession(emp_schema, cache=cache)
                order = list(range(len(cases)))
                random.Random(slot).shuffle(order)
                barrier.wait(timeout=10)
                for index in order * 2:
                    secret, views, keys = cases[index]
                    knowledge = KeyConstraintKnowledge({"Emp": list(keys)})
                    outcomes[slot, index] = session.with_knowledge(
                        secret, views, knowledge
                    ).decision
            except Exception as error:  # pragma: no cover - reported below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch often, so cold lookups race
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[:3]
        assert len(outcomes) == 8 * len(cases)
        for (_, index), decision in outcomes.items():
            assert decision == expected[index]
            assert (
                decision.evidence["violating_pairs"]
                == expected[index].evidence["violating_pairs"]
            )
        assert cache.stats().hits > cache.stats().misses


def _predicate_form(knowledge, schema):
    """The oracle: the key constraint as an opaque predicate over the keyed relations."""
    keys = knowledge.instance_constraint().keys
    support = frozenset().union(*(relation_slice(schema, name) for name, _ in keys))
    return PredicateEvent(knowledge.instance_constraint(), support=support)


class TestStructuralKnowledgeEvents:
    """Key, tuple-status and per-relation count knowledge, against predicate oracles."""

    @pytest.mark.parametrize(
        "dims, probability", [((2, 2, 2), Fraction(1, 3)), ((2, 2, 3), Fraction(2, 5))]
    )
    @pytest.mark.parametrize("keys", [(0,), (1,), (0, 2), (2,)])
    def test_key_events_match_the_predicate_form(self, dims, probability, keys):
        schema = employee_schema(*dims)
        knowledge = KeyConstraintKnowledge({"Emp": keys})
        structural = knowledge.event(schema)
        oracle = _predicate_form(knowledge, schema)
        assert event_key(structural) is not None and event_key(oracle) is None
        dictionary = Dictionary.uniform(schema, probability)
        kernel = ProbabilityKernel(dictionary)
        for row in table1_pairs():
            queries = [row.secret, *row.views]
            assert kernel.joint_distribution(queries, [structural]) == (
                kernel.joint_distribution(queries, [oracle])
            )
            assert verify_with_knowledge(
                row.secret, list(row.views), knowledge, dictionary
            ) is verify_with_knowledge(row.secret, list(row.views), oracle, dictionary)

    def test_a_key_event_on_single_fact_classes_always_holds(self, kv_schema):
        event = KeyConstraintKnowledge({"R": (0, 1)}).event(kv_schema)
        assert event.support(kv_schema) == frozenset()
        assert event.occurs(Instance(tuple_space(kv_schema)))

    def test_a_repeated_key_check_reads_the_memoized_distribution(self, emp_schema):
        row = next(row for row in table1_pairs() if row.row == 2)
        dictionary = Dictionary.uniform(emp_schema, Fraction(1, 3))
        knowledge = KeyConstraintKnowledge({"Emp": (0,)})

        def hits():
            return ProbabilityKernel(dictionary).stats["distribution_hits"]

        first = verify_with_knowledge(row.secret, list(row.views), knowledge, dictionary)
        before = hits()
        assert verify_with_knowledge(row.secret, list(row.views), knowledge, dictionary) is first
        assert hits() == before + 1
        # The opaque predicate form is compiled again on every call.
        oracle = _predicate_form(knowledge, emp_schema)
        for _ in range(2):
            assert verify_with_knowledge(row.secret, list(row.views), oracle, dictionary) is first
        assert hits() == before + 1

    def test_empty_tuple_status_is_the_trivial_structural_event(self, kv_schema):
        event = TupleStatusKnowledge().event(kv_schema)
        assert event_key(event) is not None
        assert event.support(kv_schema) == frozenset()
        dictionary = Dictionary.uniform(kv_schema, Fraction(1, 3))
        secret, view = q("S(x) :- R(x, y)"), q("V(y) :- R(x, y)")
        trivial = PredicateEvent(lambda _: True, support=[])
        for given in (event, trivial):
            assert verify_with_knowledge(secret, [view], given, dictionary) is (
                verify_security_probabilistically(secret, [view], dictionary)
            )

    def test_a_count_over_one_relation_declares_that_relation(self):
        schema = Schema(
            [RelationSchema("R", ("x", "y")), RelationSchema("S", ("x",))],
            domain=Domain.of("a", "b", "c"),
        )  # 9 facts of R, 3 of S
        assert CardinalityConstraintKnowledge("exactly", 1).event(schema).support(schema) is None
        dictionary = Dictionary.uniform(schema, Fraction(1, 3))
        cases = [
            (q("Q(x) :- R(x, y)"), q("V(y) :- R(x, y)")),
            (q("Q(x) :- R(x, 'a')"), q("V(x) :- S(x)")),
        ]
        for relation in ("R", "S"):
            for comparison, count in (("exactly", 1), ("at_most", 2), ("at_least", 1)):
                knowledge = CardinalityConstraintKnowledge(comparison, count, relation)
                event = knowledge.event(schema)
                assert event.support(schema) == relation_slice(schema, relation)
                whole_space = PredicateEvent(event.occurs, support=None)
                for secret, view in cases:
                    assert verify_with_knowledge(
                        secret, [view], event, dictionary
                    ) is verify_with_knowledge(secret, [view], whole_space, dictionary)
