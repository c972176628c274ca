"""Session cache ablation: legacy per-call collusion vs. cached session.

The legacy free-function path recomputes ``crit_D(S)`` once per view
inside a collusion analysis (``k`` views → ``k`` recomputations of the
secret's critical tuples); the session API computes each critical-tuple
set exactly once and serves every other request from its LRU cache.
This benchmark runs the same 8-view collusion analysis both ways,
checks the verdicts agree, and asserts the ≥3× speedup the session
redesign promises (the observed ratio is typically 4–5×).  The legacy
side computes every set with the Appendix A minimal search (the oracle
:func:`repro.reference.critical_tuples`), as the pre-session code did.

The Corollary 5.3 case repeats one key-constraint decision (Table 1
row 2 under ``Emp`` keyed on ``name``) on one session: the relativised
sets ``crit_D(Q, K)`` are cached by their constraint, so the repeat is
served from the cache and must be ≥3× faster than the cold call.

Besides the pytest gates, the run writes ``BENCH_session_cache.json`` so
the perf trajectory is machine-readable across PRs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro import AnalysisSession, PublishingPlan, q
from repro.bench import employee_schema, table1_pairs
from repro.core.collusion import analyse_collusion
from repro.core.prior import KeyConstraintKnowledge
from repro.reference import critical_tuples

#: Required speedup of the cached path (acceptance criterion).
MIN_SPEEDUP = 3.0

#: Where the machine-readable results land (repo root under CI).
JSON_PATH = Path("BENCH_session_cache.json")

SECRET = "S(n, p) :- Emp(n, d, p), Emp(n, d2, p2), Emp(n3, d, p)"
VIEW_COUNT = 8


#: Warm repeats of the Corollary 5.3 decision; the median is compared.
WARM_REPEATS = 5


def _views():
    return [q(f"V{i}(n) :- Emp(n, D{i}, p)") for i in range(VIEW_COUNT)]


def _merge_results(section: str, payload: dict) -> None:
    """Read-modify-write one section of ``BENCH_session_cache.json``."""
    document = {"benchmark": "session_cache"}
    if JSON_PATH.exists():
        document.update(json.loads(JSON_PATH.read_text()))
    document[section] = payload
    JSON_PATH.write_text(json.dumps(document, indent=2) + "\n")


def test_session_cache_speedup_on_collusion(experiment_report):
    report = experiment_report(
        "Session cache — collusion on 8 views (legacy vs. cached)",
        ("path", "time (s)", "crit computations", "verdict"),
    )
    schema = employee_schema()
    secret = q(SECRET)
    views = _views()

    # Legacy per-call path: critical_fn=critical_tuples bypasses every
    # cache, reproducing the pre-session behaviour exactly.
    started = time.perf_counter()
    legacy = analyse_collusion(secret, views, schema, critical_fn=critical_tuples)
    legacy_elapsed = time.perf_counter() - started

    # Session path: a fresh session (cold cache) running the identical
    # analysis; the secret's crit is computed once instead of 8 times.
    session = AnalysisSession(schema)
    started = time.perf_counter()
    cached = session.collusion(secret, views)
    cached_elapsed = time.perf_counter() - started

    legacy_verdicts = [decision.secure for decision in legacy.per_view]
    cached_verdicts = [decision.secure for decision in cached.report.per_view]
    assert legacy_verdicts == cached_verdicts
    assert cached.verdict == legacy.secure_overall

    used = cached.cache_used
    # 1 secret + 8 views are computed once each; the other 7 secret
    # lookups hit the cache.
    assert used.misses == VIEW_COUNT + 1
    assert used.hits == VIEW_COUNT - 1

    speedup = legacy_elapsed / cached_elapsed
    report.add_row(
        "legacy (per-call)", f"{legacy_elapsed:.3f}", 2 * VIEW_COUNT, str(legacy.secure_overall)
    )
    report.add_row(
        "session (cached)", f"{cached_elapsed:.3f}", used.misses, str(cached.verdict)
    )
    report.add_note(f"speedup: {speedup:.2f}x (required ≥ {MIN_SPEEDUP}x)")
    _merge_results(
        "collusion_8_views",
        {
            "workload": "collusion-8-views-emp",
            "required_speedup": MIN_SPEEDUP,
            "speedup": round(speedup, 2),
            "legacy_seconds": round(legacy_elapsed, 6),
            "cached_seconds": round(cached_elapsed, 6),
            "legacy_crit_computations": 2 * VIEW_COUNT,
            "cached_crit_computations": used.misses,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"session-cached collusion was only {speedup:.2f}x faster than the "
        f"legacy per-call path (required ≥ {MIN_SPEEDUP}x)"
    )


def test_plan_audit_shares_critical_tuples_across_secrets(experiment_report):
    report = experiment_report(
        "Session cache — batch plan audit sharing",
        ("stage", "hits", "misses"),
    )
    schema = employee_schema()
    session = AnalysisSession(schema)
    plan = PublishingPlan(
        secrets={
            "hr_phones": "S1(n, p) :- Emp(n, HR, p)",
            "mgmt_names": "S2(n) :- Emp(n, Mgmt, p)",
        },
        views={f"user{i}": f"V{i}(n) :- Emp(n, D{i}, p)" for i in range(6)},
    )
    first = session.audit_plan(plan)
    second = session.audit_plan(plan)
    report.add_row("first audit (cold)", first.cache_used.hits, first.cache_used.misses)
    report.add_row("second audit (warm)", second.cache_used.hits, second.cache_used.misses)

    # 2 secrets + 6 views = 8 distinct critical-tuple sets for 12 pairs.
    assert first.cache_used.misses == 8
    assert first.cache_used.hits == 2 * 6 * 2 - 8
    # A repeated audit is answered entirely from the cache.
    assert second.cache_used.misses == 0
    assert [entry.secure for entry in second.entries] == [
        entry.secure for entry in first.entries
    ]


def test_key_constraint_decision_is_served_from_the_cache(experiment_report):
    report = experiment_report(
        "Session cache — Corollary 5.3 under keys (cold vs. repeated)",
        ("call", "time (ms)", "hits", "misses", "verdict"),
    )
    row = next(row for row in table1_pairs() if row.row == 2)
    views = list(row.views)
    knowledge = KeyConstraintKnowledge({"Emp": (0,)})
    session = AnalysisSession(employee_schema())

    started = time.perf_counter()
    cold = session.with_knowledge(row.secret, views, knowledge)
    cold_elapsed = time.perf_counter() - started
    warm_runs = []
    for _ in range(WARM_REPEATS):
        started = time.perf_counter()
        warm = session.with_knowledge(row.secret, views, knowledge)
        warm_runs.append((time.perf_counter() - started, warm))
    warm_runs.sort(key=lambda run: run[0])
    warm_elapsed, warm = warm_runs[WARM_REPEATS // 2]

    # The secret's and both views' relativised sets: computed once, then
    # every lookup of the repeat hits.
    assert cold.cache_used.misses == 1 + len(views)
    assert warm.cache_used.misses == 0
    assert warm.cache_used.hits == 1 + len(views)
    assert warm.decision == cold.decision

    speedup = cold_elapsed / warm_elapsed
    for label, elapsed, result in (
        ("cold", cold_elapsed, cold),
        (f"repeat (median of {WARM_REPEATS})", warm_elapsed, warm),
    ):
        report.add_row(
            label,
            f"{elapsed * 1000:.3f}",
            result.cache_used.hits,
            result.cache_used.misses,
            str(result.verdict),
        )
    report.add_note(f"speedup: {speedup:.2f}x (required ≥ {MIN_SPEEDUP}x)")
    _merge_results(
        "with_knowledge_keys",
        {
            "workload": "table1-row2-emp-keys-name",
            "required_speedup": MIN_SPEEDUP,
            "speedup": round(speedup, 2),
            "cold_seconds": round(cold_elapsed, 6),
            "warm_seconds": round(warm_elapsed, 6),
            "cold_crit_computations": cold.cache_used.misses,
            "warm_crit_computations": warm.cache_used.misses,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"a repeated Corollary 5.3 decision was only {speedup:.2f}x faster than "
        f"the cold one (required ≥ {MIN_SPEEDUP}x)"
    )
