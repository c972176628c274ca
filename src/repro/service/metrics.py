"""Operational metrics of the audit service.

The server records one observation per handled request:

* ``computed`` — the request ran an analysis on the worker pool;
* ``coalesced`` — the request awaited an identical in-flight computation;
* ``cached`` — the request was answered from the server's result cache;
* ``error`` — the request failed (malformed, analysis error, internal);
* ``shed`` — the request was rejected because the worker queue was full;
* ``deadline`` — the request's ``deadline_ms`` budget expired before an
  answer was ready (the computation was abandoned or never started).

Latencies are kept per operation in a bounded ring (the most recent
:data:`LATENCY_WINDOW` observations) from which the ``stats`` operation
derives p50/p95/p99.  Everything is guarded by one lock: observations
come from the event loop *and* from worker threads.

Fleet aggregation
-----------------
A multi-worker fleet holds one :class:`ServiceMetrics` per worker
process plus one in the router, so the ``stats`` operation needs a
*mergeable* form: :meth:`ServiceMetrics.mergeable_snapshot` exports the
raw counters and the latency reservoir itself (not derived percentiles),
and :func:`merge_snapshots` combines any number of those into one
document.  :meth:`ServiceMetrics.snapshot` is the merge of one part, so
a single server and a fleet derive their documents the same way.
Because the reservoirs travel whole, the merged p50/p95/p99 are
computed over the union of the samples — identical to what a single
combined stream would report (up to each ring's :data:`LATENCY_WINDOW`
truncation) — instead of averaging per-worker percentiles, which has no
fidelity guarantee.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Mapping, Optional

__all__ = [
    "ServiceMetrics",
    "LATENCY_WINDOW",
    "HISTOGRAM_BUCKETS_MS",
    "percentile",
    "merge_snapshots",
    "stats_gauges",
]

#: Number of recent latency samples kept per operation.
LATENCY_WINDOW = 4096

#: Observation outcomes (see module docstring).
OUTCOMES = ("computed", "coalesced", "cached", "error", "shed", "deadline")

#: Upper bounds (milliseconds) of the cumulative latency histogram.  The
#: windowed percentile ring forgets old observations; these counters are
#: *cumulative over the process lifetime*, which is what Prometheus-style
#: exposition requires (a scraper computes rates from monotone counters).
HISTOGRAM_BUCKETS_MS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0, 30000.0,
)


def percentile(samples: List[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    ``samples`` must be sorted ascending and non-empty.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if len(samples) == 1:
        return samples[0]
    position = (len(samples) - 1) * q / 100.0
    lower = int(position)
    upper = min(lower + 1, len(samples) - 1)
    weight = position - lower
    return samples[lower] * (1 - weight) + samples[upper] * weight


class _OpMetrics:
    """Counters, a latency ring, and a cumulative histogram for one operation."""

    __slots__ = ("counts", "latencies", "bucket_counts", "latency_sum", "latency_count")

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {outcome: 0 for outcome in OUTCOMES}
        self.latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        #: Per-bucket (non-cumulative) counts; the final slot is overflow.
        self.bucket_counts: List[int] = [0] * (len(HISTOGRAM_BUCKETS_MS) + 1)
        self.latency_sum = 0.0
        self.latency_count = 0

    def observe_latency(self, elapsed_ms: float) -> None:
        self.latencies.append(elapsed_ms)
        self.bucket_counts[bisect_left(HISTOGRAM_BUCKETS_MS, elapsed_ms)] += 1
        self.latency_sum += elapsed_ms
        self.latency_count += 1


def _histogram_doc(
    bucket_counts: List[int], latency_sum: float, latency_count: int
) -> Dict[str, object]:
    """Render raw per-bucket counts as the exposed cumulative form."""
    cumulative: Dict[str, int] = {}
    running = 0
    for bound, count in zip(HISTOGRAM_BUCKETS_MS, bucket_counts):
        running += count
        label = str(int(bound)) if float(bound).is_integer() else str(bound)
        cumulative[label] = running
    return {
        "buckets_ms": cumulative,
        "sum_ms": round(latency_sum, 3),
        "count": latency_count,
    }


def _latency_doc(ordered: List[float]) -> Dict[str, object]:
    """The derived latency block of one sorted, non-empty sample list."""
    return {
        "count": len(ordered),
        "mean": round(sum(ordered) / len(ordered), 3),
        "p50": round(percentile(ordered, 50), 3),
        "p95": round(percentile(ordered, 95), 3),
        "p99": round(percentile(ordered, 99), 3),
        "max": round(ordered[-1], 3),
    }


class ServiceMetrics:
    """Thread-safe counters + latency percentiles, snapshot as plain JSON."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.time()
        self._ops: Dict[str, _OpMetrics] = {}

    def observe(
        self, op: str, outcome: str, elapsed_seconds: Optional[float] = None
    ) -> None:
        """Record one handled request."""
        if outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r}; expected one of {OUTCOMES}")
        with self._lock:
            entry = self._ops.get(op)
            if entry is None:
                entry = self._ops[op] = _OpMetrics()
            entry.counts[outcome] += 1
            if elapsed_seconds is not None:
                entry.observe_latency(elapsed_seconds * 1000.0)

    # -- reading -----------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """The metrics as one JSON-serialisable document.

        ``totals.duplicate_hits`` = coalesced + result-cache hits: the
        number of requests that never reached the worker pool because an
        identical question was in flight or already answered.
        """
        return merge_snapshots([self.mergeable_snapshot()])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        totals = self.snapshot()["totals"]
        return f"ServiceMetrics(requests={totals['requests']}, duplicates={totals['duplicate_hits']})"

    def mergeable_snapshot(self) -> Dict[str, Any]:
        """The raw, lossless form :func:`merge_snapshots` combines.

        Unlike :meth:`snapshot`, latency reservoirs are exported as the
        sample lists themselves so the fleet can derive percentiles over
        the *union* of the workers' observations::

            {"started": <epoch>,
             "operations": {op: {"counts": {...}, "latencies_ms": [...],
                                 "histogram": {"buckets": [...], "sum_ms": ..., "count": ...}}}}

        The histogram travels as the raw per-bucket count list (final
        slot = overflow) so merging is element-wise addition.
        """
        with self._lock:
            return {
                "started": self._started,
                "operations": {
                    op: {
                        "counts": dict(entry.counts),
                        "latencies_ms": [round(v, 6) for v in entry.latencies],
                        "histogram": {
                            "buckets": list(entry.bucket_counts),
                            "sum_ms": round(entry.latency_sum, 6),
                            "count": entry.latency_count,
                        },
                    }
                    for op, entry in self._ops.items()
                },
            }


def merge_snapshots(parts: Iterable[Any]) -> Dict[str, object]:
    """Combine mergeable snapshots into one :meth:`ServiceMetrics.snapshot` doc.

    Counters are summed and latency reservoirs concatenated, so the
    merged p50/p95/p99 equal those of a single stream that had seen every
    observation (each source ring is still bounded by
    :data:`LATENCY_WINDOW`, so extremely long-lived fleets merge the most
    recent window of each worker).  ``uptime_seconds`` is measured from
    the earliest ``started`` stamp.

    A shard that dies between stats polls contributes a malformed part
    (``None``, an exception's string form, an empty doc): such parts are
    skipped and the merged document carries ``partial: true`` instead of
    the merge raising fleet-wide.
    """
    started: Optional[float] = None
    counts: Dict[str, Dict[str, int]] = {}
    samples: Dict[str, List[float]] = {}
    buckets: Dict[str, List[int]] = {}
    sums: Dict[str, float] = {}
    hist_counts: Dict[str, int] = {}
    partial = False
    for part in parts:
        if not isinstance(part, Mapping):
            partial = True
            continue
        part_started = part.get("started")
        if isinstance(part_started, (int, float)):
            started = part_started if started is None else min(started, part_started)
        operations = part.get("operations")
        if not isinstance(operations, Mapping):
            if operations is not None:
                partial = True
            continue
        for op, entry in operations.items():
            if not isinstance(entry, Mapping):
                partial = True
                continue
            merged = counts.setdefault(op, {outcome: 0 for outcome in OUTCOMES})
            part_counts = entry.get("counts")
            if isinstance(part_counts, Mapping):
                for outcome, count in part_counts.items():
                    if outcome in merged and isinstance(count, int):
                        merged[outcome] += count
            latencies = entry.get("latencies_ms") or []
            samples.setdefault(op, []).extend(
                float(v) for v in latencies if isinstance(v, (int, float))
            )
            histogram = entry.get("histogram")
            if isinstance(histogram, Mapping):
                part_buckets = histogram.get("buckets")
                if (
                    isinstance(part_buckets, list)
                    and len(part_buckets) == len(HISTOGRAM_BUCKETS_MS) + 1
                ):
                    merged_buckets = buckets.setdefault(
                        op, [0] * (len(HISTOGRAM_BUCKETS_MS) + 1)
                    )
                    for index, count in enumerate(part_buckets):
                        if isinstance(count, int):
                            merged_buckets[index] += count
                sum_ms = histogram.get("sum_ms")
                if isinstance(sum_ms, (int, float)):
                    sums[op] = sums.get(op, 0.0) + float(sum_ms)
                count = histogram.get("count")
                if isinstance(count, int):
                    hist_counts[op] = hist_counts.get(op, 0) + count

    operations_doc: Dict[str, object] = {}
    totals = {outcome: 0 for outcome in OUTCOMES}
    for op in sorted(counts):
        op_counts = counts[op]
        for outcome, count in op_counts.items():
            totals[outcome] += count
        op_doc: Dict[str, object] = {"requests": sum(op_counts.values()), **op_counts}
        if samples.get(op):
            op_doc["latency_ms"] = _latency_doc(sorted(samples[op]))
        if hist_counts.get(op):
            op_doc["histogram"] = _histogram_doc(
                buckets.get(op, [0] * (len(HISTOGRAM_BUCKETS_MS) + 1)),
                sums.get(op, 0.0),
                hist_counts[op],
            )
        operations_doc[op] = op_doc
    requests = sum(totals.values())
    duplicates = totals["coalesced"] + totals["cached"]
    merged_doc: Dict[str, object] = {
        "uptime_seconds": round(time.time() - started, 3) if started is not None else 0.0,
        "totals": {
            "requests": requests,
            **totals,
            "duplicate_hits": duplicates,
            "coalescing_hit_rate": totals["coalesced"] / requests if requests else 0.0,
            "duplicate_hit_rate": duplicates / requests if requests else 0.0,
        },
        "operations": operations_doc,
    }
    if partial:
        merged_doc["partial"] = True
    return merged_doc


def stats_gauges(stats: Mapping[str, Any]) -> Dict[str, Any]:
    """Point-in-time gauges of one server's ``stats`` payload.

    The Prometheus ``metrics`` operation renders these next to the
    request counters; a fleet router sums them over its workers' payloads.
    """
    live = stats["live"]
    return {
        "pending_analyses": stats["pending"],
        "connections": stats["connections"],
        "sessions": len(stats["sessions"]),
        "result_cache_entries": stats["result_cache_entries"],
        "workers": stats["workers"],
        "queue_limit": stats["queue_limit"],
        "live_sessions": len(live),
        "live_subscribers": sum(entry["subscribers"] for entry in live.values()),
    }
