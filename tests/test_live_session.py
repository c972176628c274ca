"""Tests for :class:`repro.session.live.LiveAuditSession`.

The incremental invariant under test throughout: after any sequence of
deltas, publishes and retracts, the maintained answers and verdicts
must equal what a from-scratch audit of the current state computes —
while the stats counters prove the session actually *skipped* the work
the delta classifier ruled out.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro import Dictionary, q
from repro.cq import Atom, Comparison, ConjunctiveQuery, Constant, Variable, union_of
from repro.exceptions import SecurityAnalysisError
from repro.probability import kernel as kernel_module
from repro.probability.kernel import ProbabilityKernel
from repro.reference import NaiveExactEngine
from repro.reference import critical_tuples as reference_critical_tuples
from repro.relational import Domain, Fact, RelationSchema, Schema
from repro.session import (
    AnalysisSession,
    CriticalTupleCache,
    LiveAuditSession,
    fact_from_document,
    fact_to_document,
    may_affect,
)
from repro.storage.sqlite import SQLiteFactStore


def _reference_verify(secret, view, dictionary) -> bool:
    """Definition 4.1 by Eq. (4) over the seed enumeration engine."""
    joint = NaiveExactEngine(dictionary).joint_answer_distribution([secret, view])
    secret_marginal, view_marginal = {}, {}
    for (secret_answer, view_answer), probability in joint.items():
        secret_marginal[secret_answer] = secret_marginal.get(secret_answer, 0) + probability
        view_marginal[view_answer] = view_marginal.get(view_answer, 0) + probability
    return all(
        joint.get((s, v), 0) == p_s * p_v
        for s, p_s in secret_marginal.items()
        for v, p_v in view_marginal.items()
    )


class TestMayAffect:
    def test_unifiable_fact_may_affect(self):
        query = q("Q(y) :- R(x, y)")
        assert may_affect(query, Fact("R", ("a", "b")))

    def test_wrong_relation_cannot_affect(self):
        query = q("Q(y) :- R(x, y)")
        assert not may_affect(query, Fact("S", ("a", "b")))

    def test_wrong_arity_cannot_affect(self):
        query = q("Q(y) :- R(x, y)")
        assert not may_affect(query, Fact("R", ("a",)))

    def test_constant_mismatch_cannot_affect(self):
        query = q("Q(x) :- R(x, 'a')")
        assert not may_affect(query, Fact("R", ("b", "b")))
        assert may_affect(query, Fact("R", ("b", "a")))

    def test_union_checks_every_disjunct(self):
        union = union_of(q("Q(x) :- R(x, 'a')"), q("Q(x) :- S(x)"))
        assert may_affect(union, Fact("S", ("z",)))
        assert may_affect(union, Fact("R", ("z", "a")))
        assert not may_affect(union, Fact("R", ("z", "b")))


class TestFactDocuments:
    def test_mapping_form(self):
        fact = fact_from_document({"relation": "R", "values": [1, "a"]})
        assert fact == Fact("R", (1, "a"))

    def test_compact_form(self):
        assert fact_from_document(["R", [1, "a"]]) == Fact("R", (1, "a"))

    def test_round_trip(self):
        fact = Fact("Emp", ("alice", "HR", 1234))
        assert fact_from_document(fact_to_document(fact)) == fact

    @pytest.mark.parametrize(
        "document",
        [
            "R",
            {"relation": 3, "values": [1]},
            {"relation": "R"},
            ["R", "ab"],
            ["R", [1], "extra"],
            None,
        ],
    )
    def test_malformed_documents_rejected(self, document):
        with pytest.raises(SecurityAnalysisError):
            fact_from_document(document)


class TestLiveSessionDeltas:
    def test_initial_audit_and_exposure(self, binary_ab_schema, example_42_queries):
        secret, view = example_42_queries
        live = LiveAuditSession(
            binary_ab_schema,
            secrets={"s": secret},
            views={"v": view},
            facts=[Fact("R", ("a", "b"))],
        )
        document = live.verdicts()
        assert document["event"] == "snapshot"
        assert document["revision"] == 0
        assert document["fact_count"] == 1
        # Example 4.2 is not secure, and the secret currently has answers.
        assert document["secrets"]["s"]["secure"] is False
        assert document["secrets"]["s"]["exposed"] is True
        assert document["secrets"]["s"]["insecure_views"] == ["v"]

    def test_delta_flips_exposure_not_security(
        self, binary_ab_schema, example_42_queries
    ):
        secret, view = example_42_queries
        live = LiveAuditSession(
            binary_ab_schema,
            secrets={"s": secret},
            views={"v": view},
            facts=[Fact("R", ("a", "b"))],
        )
        note = live.apply_delta(removed=[Fact("R", ("a", "b"))])
        assert note["event"] == "apply-delta"
        assert note["revision"] == 1
        assert note["fact_count"] == 0
        assert note["changed"] is True
        # The static Theorem 4.5 verdict is instance-independent…
        assert note["secrets"]["s"]["secure"] is False
        # …but the secret is no longer exposed: its answer emptied out.
        assert note["secrets"]["s"]["exposed"] is False
        assert live.stats["verdict_changes"] == 1
        assert live.self_check()["consistent"]

    def test_secure_pair_never_exposed(self, binary_ab_schema, example_43_queries):
        secret, view = example_43_queries
        live = LiveAuditSession(
            binary_ab_schema,
            secrets={"s": secret},
            views={"v": view},
            facts=[Fact("R", ("a", "a"))],
        )
        note = live.apply_delta(added=[Fact("R", ("b", "a"))])
        assert note["secrets"]["s"]["secure"] is True
        assert note["secrets"]["s"]["exposed"] is False
        assert live.stats["verdict_changes"] == 0

    def test_classifier_retains_unrelated_memos(self):
        schema = Schema(
            [RelationSchema("R", ("x", "y")), RelationSchema("T", ("x",))],
            domain=Domain(["a", "b"]),
        )
        live = LiveAuditSession(
            schema,
            secrets={"sr": "S(y) :- R(x, y)", "st": "S2(x) :- T(x)"},
            views={"vr": "V(x) :- R(x, y)", "vt": "W(x) :- T(x)"},
            facts=[Fact("R", ("a", "b")), Fact("T", ("a",))],
        )
        note = live.apply_delta(added=[Fact("T", ("b",))])
        # Only the two T-queries can unify with the changed fact.
        assert note["reaudited"] == ["st", "vt"]
        assert note["retained"] == 2
        assert live.stats["queries_reaudited"] == 2
        assert live.stats["memos_retained"] == 2
        assert note["views"]["vt"]["changed"] is True
        assert note["views"]["vr"]["changed"] is False
        assert live.self_check()["consistent"]

    def test_add_wins_over_remove_of_same_fact(
        self, binary_ab_schema, example_42_queries
    ):
        # The delta contract is ``(facts - removed) | added``: removals
        # apply first, so a fact both removed and added ends up present.
        secret, view = example_42_queries
        live = LiveAuditSession(
            binary_ab_schema,
            secrets={"s": secret},
            views={"v": view},
            facts=[Fact("R", ("a", "b"))],
        )
        fact = Fact("R", ("b", "a"))
        note = live.apply_delta(added=[fact], removed=[fact])
        assert fact in live.state.facts
        assert note["fact_count"] == 2
        assert note["net_facts"] == 1
        assert live.self_check()["consistent"]

    def test_churn_stays_consistent(self, binary_abc_schema, example_42_queries):
        secret, view = example_42_queries
        live = LiveAuditSession(
            binary_abc_schema,
            secrets={"s": secret},
            views={"v": view},
        )
        domain = ["a", "b", "c"]
        revision = 0
        for step in range(12):
            fact = Fact("R", (domain[step % 3], domain[(step * 2) % 3]))
            if fact in live.state.facts:
                note = live.apply_delta(removed=[fact])
            else:
                note = live.apply_delta(added=[fact])
            revision += 1
            assert note["revision"] == revision
        assert live.stats["deltas"] == 12
        check = live.self_check()
        assert check["consistent"], check["mismatches"]


class TestPublishRetract:
    def _session(self, binary_ab_schema, example_43_queries):
        secret, view = example_43_queries
        return LiveAuditSession(
            binary_ab_schema,
            secrets={"s": secret},
            views={"v": view},
            facts=[Fact("R", ("a", "a"))],
        )

    def test_publish_insecure_view_flips_verdict(
        self, binary_ab_schema, example_43_queries
    ):
        live = self._session(binary_ab_schema, example_43_queries)
        assert live.verdicts()["secrets"]["s"]["secure"] is True
        note = live.publish("leak", "V2(x, y) :- R(x, y)")
        assert note["event"] == "publish"
        assert note["view"] == "leak"
        assert note["secrets"]["s"]["secure"] is False
        assert note["secrets"]["s"]["exposed"] is True
        assert note["secrets"]["s"]["insecure_views"] == ["leak"]
        assert live.stats["publishes"] == 1
        assert live.stats["verdict_changes"] == 1
        assert live.view_names == ("v", "leak")

    def test_retract_restores_verdict_and_drops_caches(
        self, binary_ab_schema, example_43_queries
    ):
        live = self._session(binary_ab_schema, example_43_queries)
        live.publish("leak", "V2(x, y) :- R(x, y)")
        note = live.retract("leak")
        assert note["event"] == "retract"
        assert note["secrets"]["s"]["secure"] is True
        assert note["secrets"]["s"]["exposed"] is False
        assert live.stats["retracts"] == 1
        assert live.view_names == ("v",)

    def test_retract_unknown_view_raises(self, binary_ab_schema, example_43_queries):
        live = self._session(binary_ab_schema, example_43_queries)
        with pytest.raises(SecurityAnalysisError):
            live.retract("nope")

    def test_publish_replaces_existing_name(
        self, binary_ab_schema, example_43_queries
    ):
        live = self._session(binary_ab_schema, example_43_queries)
        live.publish("w", "V2(x, y) :- R(x, y)")
        assert live.verdicts()["secrets"]["s"]["secure"] is False
        revision = live.revision
        live.publish("w", "V3(x) :- R(x, 'b')")
        assert live.view_names == ("v", "w")
        assert live.verdicts()["secrets"]["s"]["secure"] is True
        assert live.revision == revision + 1
        assert live.stats["publishes"] == 2

    def test_replacing_a_view_is_one_mutation(
        self, binary_ab_schema, example_43_queries
    ):
        # Both bodies disclose the secret, so its exposure never changes:
        # the replacement is one revision, no retract and no flip.
        live = self._session(binary_ab_schema, example_43_queries)
        live.publish("w", "V2(x, y) :- R(x, y)")
        note = live.publish("w", "V4(y) :- R(y, 'a')")
        assert note["revision"] == live.revision == 2
        assert note["secrets"]["s"]["exposed"] is True
        assert note["secrets"]["s"]["changed"] is False
        assert note["flipped_views"] == ["w"]
        assert live.stats["retracts"] == 0
        assert live.stats["verdict_changes"] == 1

    def test_republished_name_gets_the_new_body_verdict(self, binary_ab_schema):
        # The crit_D set and kernel memos of the retracted body stay
        # cached under its own content key; the new body under the same
        # name must be answered as a fresh session and the reference
        # engines answer it.
        secret, old_body, new_body = (
            "S(y) :- R(y, 'a')",
            "V2(x, y) :- R(x, y)",
            "V3(x) :- R(x, 'b')",
        )
        domain = binary_ab_schema.domain
        live = LiveAuditSession(
            binary_ab_schema,
            secrets={"s": secret},
            facts=[Fact("R", ("a", "a"))],
            dictionary=Dictionary.uniform(binary_ab_schema, Fraction(1, 2)),
        )
        live.publish("w", old_body)
        live.session.critical_tuples(old_body, domain=domain)
        assert live.session.verify(secret, old_body).verdict is False
        live.retract("w")
        note = live.publish("w", new_body)

        fresh = AnalysisSession(
            binary_ab_schema,
            dictionary=Dictionary.uniform(binary_ab_schema, Fraction(1, 2)),
        )
        assert note["secrets"]["s"]["secure"] is fresh.decide(secret, new_body).verdict is True
        crit = live.session.critical_tuples(new_body, domain=domain)
        assert crit == fresh.critical_tuples(new_body, domain=domain)
        assert crit == reference_critical_tuples(q(new_body), binary_ab_schema, domain)
        verified = live.session.verify(secret, new_body).verdict
        assert verified is fresh.verify(secret, new_body).verdict is True
        assert verified is _reference_verify(
            q(secret), q(new_body), Dictionary.uniform(binary_ab_schema, Fraction(1, 2))
        )

    def test_publish_retract_churn_stays_within_cache_bounds(self, monkeypatch):
        # Only the LRU bounds remove cache entries, so a long churn must
        # keep every cache at or below its bound.  The view pool holds
        # more distinct (secret, view) pairs than the kernel's memo table
        # keeps at its (shrunken) bound, so the table must evict.
        monkeypatch.setattr(kernel_module, "_MEMO_LIMIT", 64)
        schema = Schema(
            [RelationSchema(f"T{i}", ("x",)) for i in range(12)],
            domain=Domain(["a", "b"]),
        )
        dictionary = Dictionary.uniform(schema, Fraction(1, 2))
        bodies = [
            f"V(x) :- T{i}(x), T{j}(x)" for i in range(12) for j in range(i + 1, 12)
        ]
        bodies += [f"V() :- T{i}('a'), T{j}('b')" for i in range(12) for j in range(12)]
        secrets = ["S(x) :- T0(x)", "S() :- T1('a')"]
        live = LiveAuditSession(
            schema,
            secrets=dict(zip("st", secrets)),
            session=AnalysisSession(schema, dictionary=dictionary, cache=CriticalTupleCache(8)),
        )
        kernel = ProbabilityKernel(dictionary)
        for cycle in range(1000):
            body = bodies[cycle % len(bodies)]
            live.publish("w", body)
            live.session.verify(secrets[cycle // len(bodies) % 2], body)
            live.retract("w")
        cache = live.session.cache_stats
        assert cache.evictions > 0
        assert cache.size <= cache.maxsize == 8
        # Each distribution computed entered the table, which holds fewer:
        # the rest were evicted.
        assert kernel.stats["distributions"] > kernel_module._MEMO_LIMIT
        assert len(kernel._memo) <= kernel_module._MEMO_LIMIT
        assert live.revision == 2000


class TestStoreBacked:
    def test_store_mutated_in_place(self, binary_ab_schema, example_42_queries):
        secret, view = example_42_queries
        store = SQLiteFactStore.mirror([Fact("R", ("a", "b"))])
        live = LiveAuditSession(
            binary_ab_schema,
            secrets={"s": secret},
            views={"v": view},
            store=store,
        )
        assert live.state is store
        note = live.apply_delta(
            added=[Fact("R", ("b", "a"))], removed=[Fact("R", ("a", "b"))]
        )
        assert live.state is store
        assert Fact("R", ("b", "a")) in store
        assert Fact("R", ("a", "b")) not in store
        assert note["fact_count"] == 1
        assert live.snapshot()["store_backed"] is True
        assert live.self_check()["consistent"]

    def test_unstorable_query_keeps_the_store(self, binary_ab_schema):
        # ``y != None`` cannot be bound to SQL, so the delta's changes
        # come from the compiled engine; the delta still lands in the store.
        view = ConjunctiveQuery(
            (Variable("x"),),
            (Atom("R", (Variable("x"), Variable("y"))),),
            (Comparison(Variable("y"), "!=", Constant(None)),),
            name="V",
        )
        store = SQLiteFactStore.mirror([Fact("R", ("a", "b"))])
        live = LiveAuditSession(
            binary_ab_schema,
            secrets={"s": q("S(y) :- R(x, y)")},
            views={"v": view},
            store=store,
        )
        live.apply_delta(added=[Fact("R", ("b", "a"))])
        assert live.state is store
        assert Fact("R", ("b", "a")) in store
        assert live.snapshot()["store_backed"] is True
        assert live.self_check()["consistent"]

    def test_in_memory_snapshot_not_store_backed(
        self, binary_ab_schema, example_42_queries
    ):
        secret, view = example_42_queries
        live = LiveAuditSession(
            binary_ab_schema, secrets={"s": secret}, views={"v": view}
        )
        assert live.snapshot()["store_backed"] is False


class TestSharedSession:
    def test_shared_analysis_session_reuses_crit_cache(
        self, binary_ab_schema, example_43_queries
    ):
        secret, view = example_43_queries
        shared = AnalysisSession(binary_ab_schema)
        shared.decide(secret, view)
        misses_after_warmup = shared.cache_stats.misses
        live = LiveAuditSession(
            binary_ab_schema,
            secrets={"s": secret},
            views={"v": view},
            session=shared,
        )
        assert live.session is shared
        # The initial audit re-decides the same pair: pure cache hits.
        assert shared.cache_stats.misses == misses_after_warmup
        assert shared.cache_stats.hits > 0
