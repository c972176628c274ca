"""Run one workload of the repository benchmark and print its metrics.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all       # every metric, every workload

Workloads: ``service-cold``, ``service-hot``, ``live-delta`` and
``decision-path`` (see ``perfbench/README.md``).  With ``--trace 0`` the
run sets the workload up five times (``setup_s`` is the median), then
measures for ``--seconds`` with no wrappers installed and reports the
end-to-end metrics.  With ``--trace 1`` it measures once untraced, then
once more with every layer function wrapped, and reports the per-layer
metrics.  The outputs of every measured window are checked against an
in-process reference; a workload that lost its shape (for example a cold
workload served from a cache) fails the run with exit code 2.

The second-to-last line of standard output is a report with the
provenance of the run; the last line is the result document
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Reference loops timed before and after each host-corrected set-up.
SETUP_REFERENCES = 3

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "setup_s": "s",
    "rss_mb": "MiB",
}


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation between ranks."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` ("unknown" outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _checked(workload, inputs, state, measurement) -> List[str]:
    """Guard the workload's shape, then return its wrong answers."""
    workload.guard(inputs, state, measurement)
    return workload.check(inputs, measurement)


def run_untraced(workload, inputs, seconds: float, scratch: Path, repeats: int = SETUP_REPEATS):
    """``repeats`` set-ups, then one measured window on the last."""
    from perfbench.layers import wrapped_targets
    from perfbench.workloads import REFERENCE_NOMINAL_S, host_reference_seconds

    if wrapped_targets():
        raise RuntimeError(f"end-to-end run with wrapped functions: {wrapped_targets()}")
    setups: List[float] = []
    walls: List[float] = []
    state = None
    for _ in range(repeats):
        if state is not None:
            workload.teardown(state)
            state = None
        if workload.host_corrected:
            before = host_reference_seconds(SETUP_REFERENCES)
        started = time.perf_counter()
        state = workload.setup(inputs, scratch, None)
        walls.append(time.perf_counter() - started)
        setups.append(walls[-1])
        if workload.host_corrected:
            reference = (before + host_reference_seconds(SETUP_REFERENCES)) / 2
            setups[-1] *= REFERENCE_NOMINAL_S / reference
    try:
        measurement = workload.measure(state, inputs, seconds)
    finally:
        workload.teardown(state)
    if workload.host_corrected:
        measurement.details["setup_s_uncorrected_each"] = walls
    wrong = _checked(workload, inputs, state, measurement)
    return measurement, setups, wrong


def run_traced(workload, inputs, seconds: float, scratch: Path):
    """One untraced window, then one with every layer function wrapped."""
    from perfbench.layers import install
    from perfbench.tracer import Tracer, merge_records

    untraced, _, wrong = run_untraced(workload, inputs, seconds, scratch, repeats=1)
    trace_dir = scratch / "trace"
    trace_dir.mkdir()
    if workload.window is None:
        tracer = Tracer()
        uninstall = install(tracer)
        try:
            state = workload.setup(inputs, scratch, None)
            tracer.start()
            try:
                measurement = workload.measure(state, inputs, seconds)
            finally:
                tracer.stop()
                workload.teardown(state)
        finally:
            uninstall()
        records = [tracer.record()]
    else:
        state = workload.setup(inputs, scratch, trace_dir)
        try:
            workload.window(state, True)
            measurement = workload.measure(state, inputs, seconds)
            workload.window(state, False)
        finally:
            workload.teardown(state)
        records = [
            json.loads(path.read_text()) for path in sorted(trace_dir.glob("trace-*.json"))
        ]
    wrong += _checked(workload, inputs, state, measurement)
    return untraced, measurement, merge_records(records), len(records), wrong


def end_to_end(measurement, setups: List[float]) -> Dict[str, float]:
    latencies = measurement.corrected if measurement.corrected is not None else measurement.latencies
    latencies_ms = [latency * 1000.0 for latency in latencies]
    return {
        "throughput_ops_s": measurement.throughput,
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p95_ms": percentile(latencies_ms, 95),
        "setup_s": statistics.median(setups),
        "rss_mb": measurement.rss_mb,
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one workload; returns ``(report, result)``."""
    from perfbench.layers import PER_LAYER_UNITS, per_layer_metrics
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    scratch = ROOT / ".perfbench" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workload.prepare(seed)
        report: Dict[str, Any] = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "commit": git_commit(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
        }
        if not trace:
            measurement, setups, wrong = run_untraced(workload, inputs, seconds, scratch)
            failed = measurement.failed
            values = end_to_end(measurement, setups)
            units = END_TO_END_UNITS
            report["setup_s_each"] = setups
            if measurement.corrected is not None:
                raw_ms = [latency * 1000.0 for latency in measurement.latencies]
                report["uncorrected"] = {
                    "throughput_ops_s": measurement.ops / sum(measurement.latencies),
                    "latency_p50_ms": percentile(raw_ms, 50),
                    "latency_p95_ms": percentile(raw_ms, 95),
                }
        else:
            untraced, measurement, record, processes, wrong = run_traced(
                workload, inputs, seconds, scratch
            )
            failed = measurement.failed + untraced.failed
            latency_sum = sum(measurement.latencies)
            values = per_layer_metrics(
                record,
                ops=measurement.ops,
                latency_sum_s=latency_sum,
                window=(measurement.start, measurement.end),
                benchmark_intervals=measurement.benchmark_intervals,
                server_cpu_s=measurement.server_cpu_s,
                cached=measurement.cached,
                coalesced=measurement.coalesced,
                errors=measurement.failed + len(wrong),
                attempted=measurement.attempted,
                traced_throughput=measurement.throughput,
                untraced_throughput=untraced.throughput,
            )
            units = PER_LAYER_UNITS
            report["traced_processes"] = processes
            report["layer_calls"] = {key: entry[0] for key, entry in record["layers"].items()}
        report.update(
            {
                "ops": measurement.ops,
                "attempted": measurement.attempted,
                "measured_seconds": measurement.seconds,
                "percentile_samples": {
                    "latency_p50_ms": measurement.ops,
                    "latency_p95_ms": measurement.ops,
                    "beyond_p95": measurement.ops - int(0.95 * measurement.ops),
                },
                "cached": measurement.cached,
                "coalesced": measurement.coalesced,
                "peak_rss_mb": measurement.peak_rss_mb,
                **measurement.details,
                "wrong_answers": wrong[:5],
                "metrics": {metric: [value, units[metric]] for metric, value in values.items()},
            }
        )
        result = {
            "correct": not wrong and failed == 0,
            "attempted": measurement.attempted,
            "failed": measurement.failed + len(wrong),
            "metrics": {
                metric: {"value": value, "unit": units[metric]} for metric, value in values.items()
            },
        }
        return report, result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        import repro  # noqa: F401 - the program under test, built from src/
        from perfbench.workloads import WORKLOADS, ShapeError
    except ImportError as error:
        print(f"perfbench: cannot import the program under test: {error}", file=sys.stderr)
        return 1
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)} or 'all'")
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    all_correct = True
    for name in names:
        for trace in traces:
            try:
                report, result = run(name, args.seed, seconds, bool(trace))
            except ShapeError as error:
                print(f"perfbench: {name}: {error}", file=sys.stderr)
                return 2
            all_correct = all_correct and result["correct"]
            if args.workload == "all":
                for metric, value in result["metrics"].items():
                    print(f"{name:14} {metric:40} {value['value']:14.6g} {value['unit']}")
                print(
                    f"{name:14} {'output checks':40} "
                    f"{'passed' if result['correct'] else 'FAILED'} "
                    f"({result['failed']} of {result['attempted']} ops failed)"
                )
            else:
                print(json.dumps({"report": report}))
                print(json.dumps(result))
    return 0 if all_correct or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
