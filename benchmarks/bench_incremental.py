"""Incremental audit engine: delta-time re-audit vs. full recomputation.

The gate of the incremental layer (:class:`LiveAuditSession` +
symmetric ``delta_apply`` across the engines): on a 10^4-fact
store-backed workload, re-auditing after a one-fact change must be at
least :data:`MIN_INCREMENTAL_SPEEDUP` faster than recomputing every
tracked query from scratch — and the maintained answers must stay
*identical* to a from-scratch reference audit after every delta, both
on the default in-memory engine and on the sql engine over a live
:class:`SQLiteFactStore`.

A second experiment replays a seeded delta stream through a 2-worker
fleet (router + pre-forked workers, deltas routed to the shard owning
the warm session) and checks the streamed verdicts against a
from-scratch audit of the final state.

Results land in ``BENCH_incremental.json``;
``benchmarks/check_trajectory.py`` re-derives the embedded
``required_*`` gates on every run.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

from repro.cq import evaluate, q
from repro.io import schema_from_dict
from repro.relational import Domain, Fact, RelationSchema, Schema
from repro.session import LiveAuditSession, fact_from_document
from repro.service import AuditServiceClient, FleetThread
from repro.storage import SQLiteFactStore
from repro.workload import (
    DeltaStreamSpec,
    InstanceSpec,
    delta_stream_state,
    generate_delta_stream,
    generate_facts,
    replay_workload,
)

#: Required speedup of one-fact re-audit over full recomputation.
MIN_INCREMENTAL_SPEEDUP = 10.0

#: Where the machine-readable results land (repo root under CI).
JSON_PATH = Path("BENCH_incremental.json")

_RESULTS: dict = {}

SECRETS = {"join": "Secret(x, z) :- R(x, y), S(y, z)"}
VIEWS = {"left": "V(x) :- R(x, y)", "right": "W(z) :- S(y, z)"}
SPEC = InstanceSpec(seed=17, facts=10_000, relations={"R": 2, "S": 2}, domain_size=2_000)

#: Single-fact deltas driven through each session: alternating inserts
#: of fresh facts and deletes of facts known to be present.
DELTA_ROUNDS = 10


def _tracked_queries():
    return {name: q(text) for name, text in {**SECRETS, **VIEWS}.items()}


def _delta_plan(facts):
    """Deterministic (added, removed) single-fact deltas for one run."""
    present = sorted(facts)
    deltas = []
    for round_index in range(DELTA_ROUNDS):
        if round_index % 2 == 0:
            fact = Fact("R", (100_000 + round_index, 100_000 + round_index))
            deltas.append(((fact,), ()))
        else:
            deltas.append(((), (present[round_index],)))
    return deltas


def _run_variant(name, live, facts, report):
    """Time incremental deltas vs. from-scratch recomputation.

    Returns the row for the JSON pack.  Every delta is followed by an
    untimed verification pass: the maintained answers must equal what a
    fresh evaluation of each tracked query over the post-delta state
    computes.
    """
    # Warm both paths once so neither timed region pays first-use costs.
    warm = Fact("R", (99_999, 99_999))
    live.apply_delta(added=[warm])
    live.apply_delta(removed=[warm])
    for query in _tracked_queries().values():
        evaluate(query, live.state)

    incremental_total = full_total = 0.0
    for added, removed in _delta_plan(facts):
        gc.collect()
        started = time.perf_counter()
        live.apply_delta(added=added, removed=removed)
        incremental_total += time.perf_counter() - started

        # The comparison point: what a non-incremental deployment pays —
        # re-evaluating every tracked query from scratch (fresh query
        # objects, so plan compilation is included) over the new state.
        fresh_queries = _tracked_queries()
        gc.collect()
        started = time.perf_counter()
        fresh = {
            qname: evaluate(query, live.state)
            for qname, query in fresh_queries.items()
        }
        full_total += time.perf_counter() - started

        check = live.self_check()
        assert check["consistent"], check["mismatches"]
        assert fresh  # the workload is non-trivial

    speedup = full_total / incremental_total
    stats = dict(live.stats)
    report.add_row(
        name,
        len(facts),
        DELTA_ROUNDS,
        f"{full_total / DELTA_ROUNDS * 1000:.1f}",
        f"{incremental_total / DELTA_ROUNDS * 1000:.2f}",
        f"{speedup:.0f}x",
    )
    return {
        "variant": name,
        "facts": len(facts),
        "deltas": DELTA_ROUNDS,
        "full_seconds_per_delta": round(full_total / DELTA_ROUNDS, 6),
        "incremental_seconds_per_delta": round(incremental_total / DELTA_ROUNDS, 6),
        "speedup": round(speedup, 2),
        "memos_retained": stats["memos_retained"],
        "queries_reaudited": stats["queries_reaudited"],
        "verdicts_consistent": True,
    }


def test_incremental_reaudit_speedup(experiment_report):
    report = experiment_report(
        "Incremental audit — one-fact re-audit vs. full recomputation (10^4 facts)",
        ("variant", "facts", "deltas", "full (ms/delta)", "incr (ms/delta)", "speedup"),
    )
    facts = sorted(generate_facts(SPEC))
    schema = Schema(
        [RelationSchema("R", ("a0", "a1")), RelationSchema("S", ("a0", "a1"))],
        domain=Domain(range(SPEC.domain_size)),
    )

    rows = []

    memory_live = LiveAuditSession(
        schema, secrets=SECRETS, views=VIEWS, facts=facts
    )
    rows.append(_run_variant("in-memory/compiled", memory_live, facts, report))

    store = SQLiteFactStore()
    try:
        store_live = LiveAuditSession(
            schema, secrets=SECRETS, views=VIEWS, facts=facts, store=store
        )
        store_row = _run_variant("store-backed/sql", store_live, facts, report)
    finally:
        store.close()
    # The ISSUE gate is the store-backed 10^4-fact workload.
    store_row["required_speedup"] = MIN_INCREMENTAL_SPEEDUP
    rows.append(store_row)

    report.add_note(
        f"gate: store-backed speedup ≥ {MIN_INCREMENTAL_SPEEDUP}x; every delta "
        "verified against a from-scratch evaluation of all tracked queries"
    )
    _RESULTS["one_fact_reaudit"] = {
        "workload": "join-secret-two-views-10k-facts",
        "variants": rows,
    }
    _write_json()
    for row in rows:
        assert row["speedup"] >= MIN_INCREMENTAL_SPEEDUP, (
            f"{row['variant']}: incremental re-audit was only "
            f"{row['speedup']:.2f}x faster than full recomputation "
            f"(required ≥ {MIN_INCREMENTAL_SPEEDUP}x)"
        )


def test_fleet_delta_stream_matches_reference(experiment_report):
    report = experiment_report(
        "Incremental audit — 2-worker fleet delta stream vs. from-scratch reference",
        ("deltas", "notifications", "replay (s)", "verdicts"),
    )
    spec = DeltaStreamSpec(
        seed=29,
        deltas=32,
        live="bench-live",
        instance=InstanceSpec(seed=29, facts=300, domain_size=60),
    )
    requests = generate_delta_stream(spec)
    started = time.perf_counter()
    with FleetThread(workers=2) as fleet:
        summary = replay_workload(
            requests, *fleet.address, concurrency=2, subscribe="bench-live"
        )
        with AuditServiceClient(*fleet.address) as client:
            final = client.call("live-audit", live="bench-live")
    elapsed = time.perf_counter() - started
    assert summary["errors"] == 0, summary
    assert summary["ok"] == len(requests)

    # From-scratch reference over the generator's mirrored final state.
    facts, views = delta_stream_state(requests)
    reference = LiveAuditSession(
        schema_from_dict(requests[0]["schema"]),
        secrets=requests[0]["secrets"],
        views=views,
        facts=[fact_from_document(doc) for doc in facts],
    )
    expected = reference.verdicts()

    def _clean(doc):
        return {
            name: {k: v for k, v in entry.items() if k != "changed"}
            for name, entry in doc["secrets"].items()
        }

    assert _clean(final) == _clean(expected)
    assert final["fact_count"] == expected["fact_count"]
    notes = summary["notifications"]
    assert notes and notes[-1]["fact_count"] == expected["fact_count"]
    assert _clean(notes[-1]) == _clean(expected)

    report.add_row(spec.deltas, len(notes), f"{elapsed:.2f}", "match")
    report.add_note(
        "every streamed verdict chain ends in the from-scratch reference verdict"
    )
    _RESULTS["fleet_delta_stream"] = {
        "workload": "seeded-delta-stream-2-workers",
        "deltas": spec.deltas,
        "notifications": len(notes),
        "replay_seconds": round(elapsed, 3),
        "verdicts_match_reference": True,
        "completed": True,
    }
    _write_json()


def _write_json() -> None:
    JSON_PATH.write_text(
        json.dumps({"benchmark": "incremental", **_RESULTS}, indent=2) + "\n"
    )
