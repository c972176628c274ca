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

Fleet counts
------------
A fleet counts each request once, at the tier that answers its client:
the router.  Its :class:`ServiceMetrics` is the fleet's record, with
every request timed at the router (queue, forward, worker and reply),
so a fleet's ``stats`` and ``metrics`` merge nothing.  Workers keep
their own :class:`ServiceMetrics`, which only their own ``stats``
reports; the router reads their point-in-time :func:`stats_gauges` and
sums them.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections import deque
from typing import Any, Deque, Dict, List, Mapping, Optional

__all__ = [
    "ServiceMetrics",
    "LATENCY_WINDOW",
    "HISTOGRAM_BUCKETS_MS",
    "percentile",
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

    def document(self) -> Dict[str, object]:
        """This operation's counters, derived latencies and cumulative histogram."""
        doc: Dict[str, object] = {"requests": sum(self.counts.values()), **self.counts}
        if self.latencies:
            doc["latency_ms"] = _latency_doc(sorted(self.latencies))
        if self.latency_count:
            doc["histogram"] = _histogram_doc(
                self.bucket_counts, self.latency_sum, self.latency_count
            )
        return doc


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
        with self._lock:
            operations = {op: self._ops[op].document() for op in sorted(self._ops)}
        totals = {
            outcome: sum(doc[outcome] for doc in operations.values()) for outcome in OUTCOMES
        }
        requests = sum(totals.values())
        duplicates = totals["coalesced"] + totals["cached"]
        return {
            "uptime_seconds": round(time.time() - self._started, 3),
            "totals": {
                "requests": requests,
                **totals,
                "duplicate_hits": duplicates,
                "coalescing_hit_rate": totals["coalesced"] / requests if requests else 0.0,
                "duplicate_hit_rate": duplicates / requests if requests else 0.0,
            },
            "operations": operations,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        totals = self.snapshot()["totals"]
        return f"ServiceMetrics(requests={totals['requests']}, duplicates={totals['duplicate_hits']})"


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
