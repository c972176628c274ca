"""Bounded collection of finished traces, with head+tail+slow sampling.

Keeping *every* trace of a busy fleet is out of the question, and
keeping only the most recent window loses exactly the traces an
operator wants (the first requests after a deploy, the slowest ones of
the hour).  The buffer therefore samples three ways at once:

* **head** — the first ``head`` traces since the last reset, verbatim
  (cold-start behaviour: session construction, first kernel build);
* **tail** — a ring of the most recent ``tail`` traces (what is
  happening right now);
* **slow** — the ``slow`` largest-duration traces seen so far, kept in
  a min-heap (the outliers, which the tail ring would age out).

Snapshots are plain JSON.  Only the tier that opened a trace records
it, so a fleet's router buffer is the fleet's whole record: one document
per traced request, the workers' spans grafted inside it.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import deque
from typing import Any, Dict, List, Mapping

__all__ = ["TraceBuffer", "TRACES"]

#: Default section bounds of the process-wide buffer.
DEFAULT_HEAD = 16
DEFAULT_TAIL = 64
DEFAULT_SLOW = 16


class TraceBuffer:
    """A bounded, thread-safe store of finished trace documents."""

    def __init__(
        self, head: int = DEFAULT_HEAD, tail: int = DEFAULT_TAIL, slow: int = DEFAULT_SLOW
    ):
        self._head_limit = max(0, head)
        self._slow_limit = max(0, slow)
        self._lock = threading.Lock()
        self._head: List[Dict[str, Any]] = []
        self._tail: "deque[Dict[str, Any]]" = deque(maxlen=max(1, tail))
        #: Min-heap of (duration_ms, tiebreak, trace) — the root is the
        #: *fastest* of the kept slow traces, evicted first.
        self._slow: List[Any] = []
        self._counter = itertools.count()
        self._recorded = 0

    def record(self, trace_doc: Mapping[str, Any]) -> None:
        """Store one finished trace document."""
        document = dict(trace_doc)
        duration = float(document.get("duration_ms") or 0.0)
        with self._lock:
            self._recorded += 1
            if len(self._head) < self._head_limit:
                self._head.append(document)
            self._tail.append(document)
            if self._slow_limit:
                entry = (duration, next(self._counter), document)
                if len(self._slow) < self._slow_limit:
                    heapq.heappush(self._slow, entry)
                elif duration > self._slow[0][0]:
                    heapq.heapreplace(self._slow, entry)

    def reset(self) -> None:
        """Clear every section (tests/benchmarks)."""
        with self._lock:
            self._head.clear()
            self._tail.clear()
            self._slow.clear()
            self._recorded = 0

    def snapshot(self) -> Dict[str, Any]:
        """Every section as one JSON-serialisable document."""
        with self._lock:
            slow = [entry[2] for entry in sorted(self._slow, reverse=True)]
            return {
                "recorded": self._recorded,
                "head": list(self._head),
                "tail": list(self._tail),
                "slow": slow,
                "limits": {
                    "head": self._head_limit,
                    "tail": self._tail.maxlen,
                    "slow": self._slow_limit,
                },
            }


#: The per-process buffer of the traces this process opened.
TRACES = TraceBuffer()

