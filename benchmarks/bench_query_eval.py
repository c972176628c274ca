"""Query-evaluation ablation: naive backtracking vs. compiled plans.

Two workloads gate the compiled evaluation layer (``repro.cq.plan`` +
``repro.cq.compiled``) against the seed evaluator kept as an oracle
(``repro.reference.naive_*``):

* **Indexed join plans** — 3-atom chain joins over instances of 240
  facts.  The naive evaluator scans every fact of the relation per
  subgoal and copies the assignment dict per candidate; the compiled
  plan probes per-instance hash indexes with slot-array bindings.  Must
  be ≥ :data:`MIN_JOIN_SPEEDUP` faster (the CI acceptance gate).
* **Criticality delta ablation** — ``crit_D(Q)`` over the Definition 4.4
  instance enumeration, where every (instance, fact) pair asks
  ``Q(I) ≠ Q(I − t)``.  With delta evaluation only derivations using the
  removed fact are re-derived; the ablated configuration re-evaluates
  the query twice in full with the reference evaluator.  Must be
  ≥ :data:`MIN_DELTA_SPEEDUP` faster, and the run also times the pruned
  production engine on the same secrets to show the two optimisations
  compound (pruning removes most of the work delta would otherwise
  re-derive).

Besides the pytest gates, the run writes ``BENCH_query_eval.json``
(workload, naive time, compiled time, speedup) so the perf trajectory is
machine-readable across PRs.
"""

from __future__ import annotations

import gc
import json
import os
import random
import time
from pathlib import Path

from repro.bench import employee_schema
from repro.core.criticality import critical_tuples
from repro.cq import delta_changes, plan_for, q
from repro.reference import critical_tuples_naive, naive_evaluate
from repro.relational import Fact, Instance

#: Required speedup of compiled evaluation on the join workload.
MIN_JOIN_SPEEDUP = 5.0

#: Required speedup of delta evaluation on the criticality workload.
MIN_DELTA_SPEEDUP = 2.0

#: Where the machine-readable results land (repo root under CI).
JSON_PATH = Path("BENCH_query_eval.json")

_RESULTS: dict = {}


def _join_workload(seed: int, per_relation: int = 80, domain_size: int = 30):
    """A 3-atom chain join over a 240-fact instance (R ⋈ S ⋈ T)."""
    rng = random.Random(seed)
    facts = []
    for relation in ("R", "S", "T"):
        for _ in range(per_relation):
            facts.append(
                Fact(relation, (rng.randrange(domain_size), rng.randrange(domain_size)))
            )
    return Instance(facts)


def _full_reevaluation(query, instance, fact):
    """``Q(I) ≠ Q(I − t)`` by evaluating both instances in full."""
    return naive_evaluate(query, instance) != naive_evaluate(query, instance.remove(fact))


def test_compiled_join_evaluation_speedup(experiment_report):
    report = experiment_report(
        "Query evaluation — naive backtracking vs. compiled join plans",
        ("instance", "facts", "answers", "naive (s)", "compiled (s)", "speedup"),
    )
    query_text = "Q(x, w) :- R(x, y), S(y, z), T(z, w)"
    instances = [_join_workload(seed) for seed in (7, 11, 13)]

    # Warm both code paths on a small instance so neither timed region
    # pays first-use interpreter costs; every timed compiled run still
    # plans its own fresh query object and builds the instance indexes.
    warmup = _join_workload(3, per_relation=4)
    naive_evaluate(q(query_text), warmup)
    plan_for(q(query_text)).evaluate(warmup)

    naive_total = compiled_total = 0.0
    rows = []
    for seed, instance in zip((7, 11, 13), instances):
        naive_query = q(query_text)
        gc.collect()  # keep a deferred collection out of the timed region
        started = time.perf_counter()
        naive_answer = naive_evaluate(naive_query, instance)
        naive_elapsed = time.perf_counter() - started

        # A fresh query object per timed run, so the timed region includes
        # planning and index construction — the honest cold cost.
        compiled_query = q(query_text)
        gc.collect()
        started = time.perf_counter()
        compiled_answer = plan_for(compiled_query).evaluate(instance)
        compiled_elapsed = time.perf_counter() - started

        assert compiled_answer == naive_answer
        naive_total += naive_elapsed
        compiled_total += compiled_elapsed
        rows.append(
            {
                "instance": f"join-240-seed{seed}",
                "facts": len(instance),
                "answers": len(naive_answer),
                "naive_seconds": round(naive_elapsed, 6),
                "compiled_seconds": round(compiled_elapsed, 6),
                "speedup": round(naive_elapsed / compiled_elapsed, 2),
            }
        )
        report.add_row(
            f"seed {seed}",
            len(instance),
            len(naive_answer),
            f"{naive_elapsed:.4f}",
            f"{compiled_elapsed:.4f}",
            f"{naive_elapsed / compiled_elapsed:.1f}x",
        )

    speedup = naive_total / compiled_total
    report.add_note(
        f"overall join speedup: {speedup:.1f}x (required ≥ {MIN_JOIN_SPEEDUP}x)"
    )
    _RESULTS["join"] = {
        "workload": "three-atom-chain-join-240-facts",
        "required_speedup": MIN_JOIN_SPEEDUP,
        "overall_speedup": round(speedup, 2),
        "instances": rows,
    }
    _write_json()
    assert speedup >= MIN_JOIN_SPEEDUP, (
        f"compiled evaluation was only {speedup:.2f}x faster than the naive "
        f"evaluator on the join workload (required ≥ {MIN_JOIN_SPEEDUP}x)"
    )


def test_criticality_delta_ablation(experiment_report):
    report = experiment_report(
        "Criticality — delta evaluation vs. full re-evaluation",
        ("configuration", "time (s)", "vs. full re-evaluation"),
    )
    schema = employee_schema(names=2, departments=2, phones=3)  # 12-fact tup(D)
    secrets = [
        q("S() :- Emp(n, 'd0', p), Emp(n2, 'd0', p2), n != n2"),
        q("S(n) :- Emp(n, d, p), Emp(n2, d, p2), n != n2").boolean_specialisation(
            ("n0",)
        ),
    ]

    workers = os.environ.get("REPRO_CRITICALITY_WORKERS")
    os.environ["REPRO_CRITICALITY_WORKERS"] = "0"  # serial: deterministic timing
    try:
        def run(compute):
            started = time.perf_counter()
            results = [compute(s, schema) for s in secrets]
            return time.perf_counter() - started, results

        full_elapsed, full_results = run(
            lambda s, schema: critical_tuples_naive(s, schema, changes=_full_reevaluation)
        )
        delta_elapsed, delta_results = run(
            lambda s, schema: critical_tuples_naive(s, schema, changes=delta_changes)
        )
        pruned_elapsed, pruned_results = run(critical_tuples)
    finally:
        if workers is None:
            os.environ.pop("REPRO_CRITICALITY_WORKERS", None)
        else:
            os.environ["REPRO_CRITICALITY_WORKERS"] = workers

    assert delta_results == full_results, (
        "delta evaluation changed a crit_D(Q) verdict on the Definition 4.4 engine"
    )
    assert pruned_results == full_results, (
        "the pruned engine disagrees with the Definition 4.4 enumeration"
    )

    delta_speedup = full_elapsed / delta_elapsed
    compound_speedup = full_elapsed / pruned_elapsed
    report.add_row("Definition 4.4, full re-evaluation", f"{full_elapsed:.3f}", "1.0x")
    report.add_row(
        "Definition 4.4, delta evaluation", f"{delta_elapsed:.3f}", f"{delta_speedup:.1f}x"
    )
    report.add_row(
        "pruned engine (PR 2) + delta", f"{pruned_elapsed:.4f}", f"{compound_speedup:.0f}x"
    )
    report.add_note(
        f"delta speedup {delta_speedup:.1f}x (required ≥ {MIN_DELTA_SPEEDUP}x); "
        f"compounded with pruning: {compound_speedup:.0f}x"
    )
    _RESULTS["criticality_delta"] = {
        "workload": "crit_D-definition-4.4-12-fact-tuple-space",
        "required_speedup": MIN_DELTA_SPEEDUP,
        "full_reevaluation_seconds": round(full_elapsed, 6),
        "delta_seconds": round(delta_elapsed, 6),
        "delta_speedup": round(delta_speedup, 2),
        "pruned_plus_delta_seconds": round(pruned_elapsed, 6),
        "compound_speedup": round(compound_speedup, 2),
    }
    _write_json()
    assert delta_speedup >= MIN_DELTA_SPEEDUP, (
        f"delta evaluation was only {delta_speedup:.2f}x faster than full "
        f"re-evaluation on the criticality workload (required ≥ {MIN_DELTA_SPEEDUP}x)"
    )
    assert pruned_elapsed < full_elapsed, (
        "the pruned engine with delta evaluation failed to beat the ablated stack"
    )


def _write_json() -> None:
    JSON_PATH.write_text(
        json.dumps({"benchmark": "query_eval", **_RESULTS}, indent=2) + "\n"
    )
