"""Observability overhead: tracing off must be (almost) free.

The tracing subsystem promises near-zero cost when no trace is active:
every instrumentation point is one module-global boolean check
returning a shared null object.  This benchmark holds the serving tier
to that promise with an A/B ablation on the seeded Table 1 workload:

* **Baseline** — the pre-tracing request path, reconstructed at runtime
  by bypassing the pipeline's trace wrapper and the daemon's
  traced-submit branch (``_pipeline`` / the bare ``run_in_executor``
  call), i.e. exactly the code that ran before the observability layer
  landed.
* **Tracing off** — the stock server with tracing disabled (the
  default): the wrapper checks ``request.trace`` once and falls
  through.

Each replay gets its own fresh server (no cache warm-over between
runs), after one discarded warm-up replay.  The two sides run in
``PAIRS`` interleaved pairs, alternating which side goes first, so a
host that speeds up or slows down during the run favours neither; each
pair gives one tracing-off / baseline throughput ratio.  The gate: the
median per-pair ratio must stay within ``MAX_OVERHEAD`` (5%) of parity.
Both sides run the same pipeline code, so one pair mostly measures the
host: on a shared 2-vCPU host one pair's ratio spread from 0.51 to 1.96
(standard deviation about 0.2), so the gate reads the median of many
pairs.  A traced replay (every request carrying ``trace``) is also
measured and recorded — ungated — so the cost of *enabled* tracing
stays visible across PRs.

The run writes ``BENCH_observability.json`` with the gate embedded as
``required_throughput_ratio`` (consumed by ``check_trajectory.py``).
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
import types
from pathlib import Path

from repro.obs import span
from repro.service import ServerThread
from repro.workload import WorkloadSpec, generate_workload, replay_workload

#: Tracing off may cost at most this fraction of baseline throughput.
MAX_OVERHEAD = 0.05

#: The acceptance gate on tracing-off / baseline throughput.
MIN_THROUGHPUT_RATIO = 1.0 - MAX_OVERHEAD

#: Interleaved (baseline, tracing-off) replay pairs; the gate reads the
#: median of the per-pair throughput ratios.
PAIRS = 31

#: Mixed-workload size and replay fan-out (mirrors BENCH_service.json).
WORKLOAD_REQUESTS = 200
CONCURRENCY = 12

#: Where the machine-readable results land (repo root under CI).
JSON_PATH = Path("BENCH_observability.json")


def _bare_submit(self, fn, *args):
    """The pre-tracing submit path: no branch, no context copy."""
    return asyncio.get_running_loop().run_in_executor(self._executor, fn, *args)


def _strip_instrumentation(server_thread: ServerThread) -> None:
    """Rebuild the pre-tracing request path on a live server.

    Binding ``_handle`` (the pipeline's trace wrapper) straight to
    ``_pipeline`` and ``_submit`` to the bare executor call removes the
    trace wrapper and the traced-submit branch entirely — the remaining
    code is the request path as it existed before the observability
    layer.
    """
    server = server_thread.server
    server._handle = server._pipeline
    server._submit = types.MethodType(_bare_submit, server)


def _replay(requests, *, strip: bool, traced: bool = False) -> dict:
    """One fresh server, one replay; returns the summary document."""
    if traced:
        requests = [dict(request, trace={"return": True}) for request in requests]
    with ServerThread(workers=4) as server:
        if strip:
            _strip_instrumentation(server)
        return replay_workload(requests, *server.address, concurrency=CONCURRENCY)


def _disarmed_span_cost_ns(iterations: int = 200_000) -> float:
    """Nanoseconds per ``span()`` call with tracing off (the guard cost)."""
    started = time.perf_counter()
    for _ in range(iterations):
        with span("bench.noop"):
            pass
    return (time.perf_counter() - started) / iterations * 1e9


def _median_run(runs):
    """The run with the median throughput (the upper one of an even count)."""
    return sorted(runs, key=lambda s: s["requests_per_second"])[len(runs) // 2]


def test_tracing_off_overhead(experiment_report):
    report = experiment_report(
        "Observability — tracing-off overhead on the Table 1 workload",
        ("configuration", "median rps", "p50 (ms)", "ok", "ratio", "required"),
    )
    spec = WorkloadSpec(
        seed=42, requests=WORKLOAD_REQUESTS, duplicate_fraction=0.3, random_fraction=0.0
    )
    requests = generate_workload(spec)

    _replay(requests, strip=False)  # warm-up: the first replay pays one-off costs
    baseline_runs, off_runs, pair_ratios = [], [], []
    for pair in range(PAIRS):
        if pair % 2:
            off_run = _replay(requests, strip=False)
            baseline_run = _replay(requests, strip=True)
        else:
            baseline_run = _replay(requests, strip=True)
            off_run = _replay(requests, strip=False)
        baseline_runs.append(baseline_run)
        off_runs.append(off_run)
        pair_ratios.append(
            off_run["requests_per_second"] / baseline_run["requests_per_second"]
        )
    for summary in (*baseline_runs, *off_runs):
        assert summary["errors"] == 0, summary.get("failures")
        assert summary["ok"] == WORKLOAD_REQUESTS

    baseline = _median_run(baseline_runs)
    off = _median_run(off_runs)
    ratio = statistics.median(pair_ratios)

    traced = _replay(requests, strip=False, traced=True)
    assert traced["errors"] == 0, traced.get("failures")
    traced_ratio = traced["requests_per_second"] / baseline["requests_per_second"]
    guard_ns = _disarmed_span_cost_ns()

    report.add_row(
        "baseline (pre-tracing path)",
        f"{baseline['requests_per_second']:.0f}",
        f"{baseline['latency_ms']['p50']:.2f}",
        baseline["ok"],
        "1.00",
        "",
    )
    report.add_row(
        "tracing off (stock)",
        f"{off['requests_per_second']:.0f}",
        f"{off['latency_ms']['p50']:.2f}",
        off["ok"],
        f"{ratio:.3f}",
        f"≥ {MIN_THROUGHPUT_RATIO:.2f}",
    )
    report.add_row(
        "traced (every request)",
        f"{traced['requests_per_second']:.0f}",
        f"{traced['latency_ms']['p50']:.2f}",
        traced["ok"],
        f"{traced_ratio:.3f}",
        "(informational)",
    )

    JSON_PATH.write_text(
        json.dumps(
            {
                "benchmark": "observability_overhead",
                "workload": {
                    "seed": spec.seed,
                    "requests": spec.requests,
                    "duplicate_fraction": spec.duplicate_fraction,
                    "source": "table1-3-variable",
                },
                "concurrency": CONCURRENCY,
                "pairs": PAIRS,
                "baseline_requests_per_second": baseline["requests_per_second"],
                "tracing_off_requests_per_second": off["requests_per_second"],
                # The gated figure is the median of the per-pair ratios.
                "pair_ratios": [round(r, 4) for r in pair_ratios],
                "throughput_ratio": round(ratio, 4),
                "required_throughput_ratio": MIN_THROUGHPUT_RATIO,
                "traced_requests_per_second": traced["requests_per_second"],
                # Named so it escapes the ``required_throughput_ratio``
                # suffix gate: enabled tracing is recorded, not gated.
                "traced_vs_baseline": round(traced_ratio, 4),
                "latency_ms": {
                    "baseline_p50": baseline["latency_ms"]["p50"],
                    "tracing_off_p50": off["latency_ms"]["p50"],
                    "traced_p50": traced["latency_ms"]["p50"],
                },
                "disarmed_span_guard_ns": round(guard_ns, 1),
            },
            indent=2,
        )
        + "\n"
    )

    assert ratio >= MIN_THROUGHPUT_RATIO, (
        f"tracing-off throughput is {(1 - ratio) * 100:.1f}% below the "
        f"pre-tracing baseline in the median pair (allowed ≤ "
        f"{MAX_OVERHEAD * 100:.0f}%; pair ratios {pair_ratios})"
    )
