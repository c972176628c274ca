"""Span recording for the benchmark's traced runs.

A :class:`Tracer` wraps functions of the program under test.  Every
wrapped call is one span: its layer key, its start and end on the
process-wide monotonic clock, and the wrapped call it is nested in on
the same thread (the thread-local stack).  Spans are folded into
per-layer sums as they close, so a run with millions of calls keeps a
bounded record:

* ``layers[key] = [calls, total_s, self_s]`` — self time is the span's
  duration minus the durations of the wrapped calls nested directly
  inside it on the same thread;
* ``groups[group]`` — inclusive time of the spans that have no ancestor
  of the same group on their thread (time spent "inside" the group);
* ``intervals`` — the ``[start, end]`` of every top-level span, kept
  whole so the union of covered wall time can be taken across threads
  and processes (what no span covers is *unattributed*);
* ``counters`` — numbers read from call arguments or results (cache
  hits, retained memos), summed.

Recording only happens while the tracer is active.  Server processes are
switched on and off by signals (``SIGUSR1`` starts a fresh window,
``SIGUSR2`` ends it and writes the process's record to a file), so the
warm-up traffic before a window is never counted.  A forked child starts
with an empty record of its own.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import threading
import time
import weakref
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

#: Attribute set on every wrapper; tells wrapped callables from originals.
WRAPPED_MARK = "_perfbench_span"


class Tracer:
    """Per-process span recorder (see the module docstring)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.active = False
        # Re-entrant: the window signals run their handler on the main
        # thread, possibly between two statements of a span it is closing.
        self._lock = threading.RLock()
        self._local = threading.local()
        self.reset()

    # -- window control -----------------------------------------------------------
    def reset(self) -> None:
        """Drop everything recorded so far."""
        with self._lock:
            self.layers: Dict[str, List[float]] = {}
            self.groups: Dict[str, float] = {}
            self.intervals: List[List[float]] = []
            self.counters: Dict[str, float] = {}

    def start(self) -> None:
        """Open a fresh recording window."""
        self.reset()
        self.active = True

    def stop(self) -> None:
        """Close the window; recorded data stays until the next start."""
        self.active = False

    def record(self) -> Dict[str, Any]:
        """This process's record as a JSON-ready document."""
        with self._lock:
            return {
                "pid": os.getpid(),
                "layers": {key: list(value) for key, value in self.layers.items()},
                "groups": dict(self.groups),
                "intervals": [list(interval) for interval in self.intervals],
                "counters": dict(self.counters),
            }

    def dump(self, path: str) -> None:
        """Write :meth:`record` to ``path`` atomically."""
        temporary = f"{path}.tmp"
        with open(temporary, "w", encoding="utf8") as handle:
            json.dump(self.record(), handle)
        os.replace(temporary, path)

    def control_by_signals(self, directory: str) -> None:
        """Let another process open and close this process's window.

        ``SIGUSR1`` starts a window and creates ``started-<pid>`` in
        ``directory``; ``SIGUSR2`` stops it and writes
        ``trace-<pid>.json``.  Forked children inherit the handlers and
        start with an empty record.
        """

        def _start(signum, frame) -> None:
            self.start()
            open(os.path.join(directory, f"started-{os.getpid()}"), "w").close()

        def _stop(signum, frame) -> None:
            self.stop()
            self.dump(os.path.join(directory, f"trace-{os.getpid()}.json"))

        signal.signal(signal.SIGUSR1, _start)
        signal.signal(signal.SIGUSR2, _stop)
        self.follow_forks()

    def follow_forks(self) -> None:
        """Give every process forked from now on an empty, inactive record."""
        reference = weakref.ref(self)

        def _after_fork() -> None:
            tracer = reference()
            if tracer is not None:
                tracer.active = False
                tracer._lock = threading.RLock()
                tracer._local = threading.local()
                tracer.reset()

        os.register_at_fork(after_in_child=_after_fork)

    # -- wrapping -------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        key: str,
        group: str,
        *,
        count_result: Optional[Callable[[Any], Mapping[str, float]]] = None,
        count_delta: Optional[Callable[[Sequence[Any]], Mapping[str, float]]] = None,
    ) -> Callable:
        """A recording wrapper around ``fn``.

        ``count_result(result)`` and the difference of ``count_delta(args)``
        read after and before the call are added to :attr:`counters`, but
        only for calls with no ancestor of the same group, so nested
        calls of one layer are counted once.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.depth = {}
            depth = local.depth
            depth[group] = depth.get(group, 0) + 1
            before = count_delta(args) if count_delta is not None else None
            frame = [0.0]  # time covered by wrapped calls nested in this one
            stack.append(frame)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                outermost = depth[group] == 1
                depth[group] -= 1
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                tracer._close(key, group, start, end, duration - frame[0], outermost, not stack)
            if outermost:
                if count_result is not None:
                    tracer._count(count_result(result))
                if before is not None:
                    after = count_delta(args)
                    tracer._count({name: after[name] - before[name] for name in after})
            return result

        setattr(wrapper, WRAPPED_MARK, key)
        return wrapper

    def _close(
        self,
        key: str,
        group: str,
        start: float,
        end: float,
        self_time: float,
        outermost: bool,
        top_level: bool,
    ) -> None:
        with self._lock:
            entry = self.layers.get(key)
            if entry is None:
                entry = self.layers[key] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_time
            if outermost:
                self.groups[group] = self.groups.get(group, 0.0) + (end - start)
            if top_level:
                intervals = self.intervals
                if intervals and start <= intervals[-1][1]:
                    intervals[-1][1] = max(intervals[-1][1], end)
                else:
                    intervals.append([start, end])

    def _count(self, values: Mapping[str, float]) -> None:
        with self._lock:
            for name, value in values.items():
                self.counters[name] = self.counters.get(name, 0) + value


# ---------------------------------------------------------------------------
# Combining records
# ---------------------------------------------------------------------------
def merge_records(records: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Sum the records of several processes into one."""
    merged: Dict[str, Any] = {"layers": {}, "groups": {}, "intervals": [], "counters": {}}
    for record in records:
        for key, (calls, total, own) in record["layers"].items():
            entry = merged["layers"].setdefault(key, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for table in ("groups", "counters"):
            for name, value in record[table].items():
                merged[table][name] = merged[table].get(name, 0) + value
        merged["intervals"].extend(record["intervals"])
    return merged


def covered_seconds(intervals: Iterable[Sequence[float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(low, start), min(high, end))
        for low, high in intervals
        if high > start and low < end
    )
    covered = 0.0
    current_low: Optional[float] = None
    current_high = 0.0
    for low, high in clipped:
        if current_low is None or low > current_high:
            if current_low is not None:
                covered += current_high - current_low
            current_low, current_high = low, high
        else:
            current_high = max(current_high, high)
    if current_low is not None:
        covered += current_high - current_low
    return covered


def unattributed_share(
    intervals: Iterable[Sequence[float]],
    start: float,
    end: float,
    excluded: Iterable[Sequence[float]] = (),
) -> float:
    """Share of the window ``[start, end]`` that no span covers.

    ``excluded`` intervals (the benchmark's own work) are taken out of
    the window before the share is computed.
    """
    excluded = list(excluded)
    excluded_s = covered_seconds(excluded, start, end)
    window = end - start - excluded_s
    if window <= 0:
        raise ValueError("the traced window is empty")
    covered = covered_seconds([*intervals, *excluded], start, end) - excluded_s
    return 1.0 - covered / window
