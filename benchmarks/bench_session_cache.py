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

Besides the pytest gate, the run writes ``BENCH_session_cache.json`` so
the perf trajectory is machine-readable across PRs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro import AnalysisSession, PublishingPlan, q
from repro.bench import employee_schema
from repro.core.collusion import analyse_collusion
from repro.reference import critical_tuples

#: Required speedup of the cached path (acceptance criterion).
MIN_SPEEDUP = 3.0

#: Where the machine-readable results land (repo root under CI).
JSON_PATH = Path("BENCH_session_cache.json")

SECRET = "S(n, p) :- Emp(n, d, p), Emp(n, d2, p2), Emp(n3, d, p)"
VIEW_COUNT = 8


def _views():
    return [q(f"V{i}(n) :- Emp(n, D{i}, p)") for i in range(VIEW_COUNT)]


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
    document = {
        "benchmark": "session_cache",
        "collusion_8_views": {
            "workload": "collusion-8-views-emp",
            "required_speedup": MIN_SPEEDUP,
            "speedup": round(speedup, 2),
            "legacy_seconds": round(legacy_elapsed, 6),
            "cached_seconds": round(cached_elapsed, 6),
            "legacy_crit_computations": 2 * VIEW_COUNT,
            "cached_crit_computations": used.misses,
        },
    }
    JSON_PATH.write_text(json.dumps(document, indent=2) + "\n")
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
