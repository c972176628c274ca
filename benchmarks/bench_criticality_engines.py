"""Criticality-engine ablation: minimal search vs. pruned-parallel.

The production ``pruned-parallel`` engine must return *identical*
critical-tuple sets to the Appendix A minimal search (the oracle
:func:`repro.reference.critical_tuples`) while being at least 2x faster
on the 3-variable benchmark schemas (the acceptance gate wired into
CI).  The workload is the full set of Table 1 query-view pairs over
``Emp(name, department, phone)`` — every query has exactly the paper's
three variables — analysed over untyped Proposition 4.9 domains: once at
the minimum sound size and once enlarged, the regime where the
``O(|candidates| · |D|^{#vars})`` scan dominates and the symmetry
reduction (27 candidate facts collapse to a handful of orbits) pays off.

Besides the pytest gate, the run writes ``BENCH_criticality_engines.json``
(per-domain times and the gated overall speedup) so the perf trajectory
is machine-readable across PRs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.bench import employee_schema, table1_pairs
from repro.core.criticality import critical_tuples
from repro.core.domain_bounds import analysis_domain, untyped_schema
from repro.reference import critical_tuples as minimal_critical_tuples

#: Required speedup of the pruned-parallel engine (acceptance criterion).
MIN_SPEEDUP = 2.0

#: Where the machine-readable results land (repo root under CI).
JSON_PATH = Path("BENCH_criticality_engines.json")

#: Analysis-domain sizes: the Proposition 4.9 minimum for the 3-variable
#: queries, and an enlarged domain (larger domains are always sound).
DOMAIN_SIZES = (3, 6)


def _workload():
    """The Table 1 queries (each with the paper's three variables)."""
    return [query for row in table1_pairs() for query in (row.secret, *row.views)]


def _run(compute, queries, working_schema, domain):
    started = time.perf_counter()
    results = [compute(query, working_schema, domain) for query in queries]
    return time.perf_counter() - started, results


def test_pruned_parallel_engine_speedup(experiment_report):
    report = experiment_report(
        "Criticality engines — minimal vs. pruned-parallel (Table 1 queries)",
        ("|D|", "minimal (s)", "pruned-parallel (s)", "speedup", "identical"),
    )
    schema = employee_schema()
    queries = _workload()

    minimal_total = 0.0
    pruned_total = 0.0
    rows = []
    for size in DOMAIN_SIZES:
        domain = analysis_domain(queries, minimum_size=size)
        working_schema = untyped_schema(schema, domain)
        # Warm-up outside the timed region (imports, first-call overheads).
        critical_tuples(queries[0], working_schema, domain)
        minimal_elapsed, minimal_sets = _run(
            minimal_critical_tuples, queries, working_schema, domain
        )
        pruned_elapsed, pruned_sets = _run(
            critical_tuples, queries, working_schema, domain
        )
        assert minimal_sets == pruned_sets, (
            f"engines disagree over |D|={len(domain)}"
        )
        minimal_total += minimal_elapsed
        pruned_total += pruned_elapsed
        rows.append(
            {
                "domain_size": len(domain),
                "minimal_seconds": round(minimal_elapsed, 6),
                "pruned_seconds": round(pruned_elapsed, 6),
                "speedup": round(minimal_elapsed / pruned_elapsed, 2),
            }
        )
        report.add_row(
            len(domain),
            f"{minimal_elapsed:.3f}",
            f"{pruned_elapsed:.3f}",
            f"{minimal_elapsed / pruned_elapsed:.2f}x",
            "yes",
        )

    speedup = minimal_total / pruned_total
    report.add_note(f"overall speedup: {speedup:.2f}x (required ≥ {MIN_SPEEDUP}x)")
    document = {
        "benchmark": "criticality_engines",
        "table1_pruned_vs_minimal": {
            "workload": "table1-queries-untyped-domains",
            "required_speedup": MIN_SPEEDUP,
            "overall_speedup": round(speedup, 2),
            "minimal_seconds": round(minimal_total, 6),
            "pruned_seconds": round(pruned_total, 6),
            "domains": rows,
        },
    }
    JSON_PATH.write_text(json.dumps(document, indent=2) + "\n")
    assert speedup >= MIN_SPEEDUP, (
        f"pruned-parallel was only {speedup:.2f}x faster than the minimal "
        f"engine on the 3-variable benchmark schemas (required ≥ {MIN_SPEEDUP}x)"
    )


def test_engines_agree_on_manufacturing_schema(experiment_report):
    """Cross-validation on the introduction's multi-relation schema."""
    from repro.bench.schemas import manufacturing_schema
    from repro.cq.parser import parse_query

    report = experiment_report(
        "Criticality engines — manufacturing cross-validation",
        ("query", "crit size", "engines agree"),
    )
    schema = manufacturing_schema()
    queries = [
        parse_query("S(p, c) :- Cost(p, c)"),
        parse_query("V1(p, pa) :- Part(p, pa, sp)"),
        parse_query("V3(p) :- Labor(p, lc)"),
    ]
    for query in queries:
        domain = analysis_domain([query])
        working_schema = untyped_schema(schema, domain)
        minimal_set = minimal_critical_tuples(query, working_schema, domain)
        pruned_set = critical_tuples(query, working_schema, domain)
        assert minimal_set == pruned_set
        report.add_row(query.name, len(pruned_set), "yes")
