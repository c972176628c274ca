"""Trace contexts and span trees for the audit service.

One *trace* covers one request end to end — router, worker,
session, engine, SQL — as a tree of named *spans*.  The design goals,
in order:

1. **Near-zero cost when tracing is off.**  Every instrumentation site
   calls :func:`span`, whose first statement checks one module-global
   boolean; when no trace is active anywhere in the process it returns
   a single preallocated null span — no allocation, no contextvar read,
   no clock read.  Hot paths (``delta_changes`` runs tens of thousands
   of times per audit) pay one attribute load and one branch.

2. **Fork- and thread-safety.**  The active span lives in a
   :class:`contextvars.ContextVar`; crossing into a worker thread is
   explicit (``contextvars.copy_context().run(...)`` — see
   ``AuditServer._submit``), so concurrent requests on one
   event loop or thread pool never see each other's spans.  A forked
   fleet worker starts with no open traces (the armed flag and the
   open-trace counter are plain module state, copied by fork but only
   meaningful alongside an open context, which fork does not carry).

3. **Bounded traces.**  A trace records at most
   :data:`DEFAULT_SPAN_LIMIT` spans; past the cap, further spans
   collapse into per-name aggregates (count + total milliseconds) so a
   hot loop cannot balloon one trace into megabytes while the totals
   stay honest.

Span taxonomy (what the instrumented layers emit):

=====================  =====================================================
``router.route``       shard selection (rendezvous hashing) in the router
``router.forward``     router → worker round trip (worker subtree grafted)
``coalesce.follow``    awaiting an in-flight twin (router or server; the
                       follower links to the leader's trace instead)
``server.queue_wait``  time between arrival and a worker thread picking up
``server.execute``     the analysis on the worker thread
``session.<op>``       one session analysis (decide, collusion, ...)
``criticality.compute``  one crit_D computation (cache miss)
``kernel.query_table`` / ``kernel.distribution``  probability-kernel work
``cq.evaluate`` / ``cq.delta``  query evaluation (compiled or sql)
``sql.execute``        one sqlite statement of the sql engine
``storage.load``       bulk fact ingestion into a sqlite store
=====================  =====================================================
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
import uuid
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "TRACE_ENV",
    "DEFAULT_SPAN_LIMIT",
    "Span",
    "Trace",
    "span",
    "record_span",
    "start_trace",
    "current_trace",
    "current_span",
    "walk_spans",
    "tracing_enabled",
    "set_tracing",
    "install_from_env",
    "new_trace_id",
    "dominant_span",
]

#: Environment variable enabling process-wide tracing (``1``/``true``).
TRACE_ENV = "REPRO_TRACE"

#: Spans recorded per trace before collapsing into per-name aggregates.
DEFAULT_SPAN_LIMIT = 256

#: The one fast-path guard: ``True`` iff process-wide tracing is enabled
#: or at least one trace context is currently open.  Read unlocked on
#: every :func:`span` call; written under :data:`_STATE_LOCK`.
_ARMED = False

_STATE_LOCK = threading.Lock()
_GLOBAL_ENABLED = False
_OPEN_TRACES = 0

#: The innermost open span of the current context (``None`` outside any
#: trace).  Only consulted once :data:`_ARMED` says it may be non-trivial.
_CURRENT: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "repro_trace_current", default=None
)


def _rearm() -> None:
    global _ARMED
    _ARMED = _GLOBAL_ENABLED or _OPEN_TRACES > 0


def tracing_enabled() -> bool:
    """True when process-wide tracing is switched on."""
    return _GLOBAL_ENABLED


def set_tracing(enabled: bool) -> None:
    """Switch process-wide tracing on or off.

    Per-request traces (a ``trace`` field on the wire, or an explicit
    :func:`start_trace`) work regardless; this flag makes *every*
    server-handled request open a trace for the buffer and slow log.
    """
    global _GLOBAL_ENABLED
    with _STATE_LOCK:
        _GLOBAL_ENABLED = bool(enabled)
        _rearm()


def install_from_env() -> bool:
    """Enable tracing when ``REPRO_TRACE`` is set truthy; returns the state."""
    raw = os.environ.get(TRACE_ENV, "").strip().lower()
    if raw and raw not in ("0", "false", "no", "off"):
        set_tracing(True)
    return _GLOBAL_ENABLED


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace (or span) id."""
    return uuid.uuid4().hex[:16]


class Span:
    """One timed, named node of a span tree.

    Spans are context managers::

        with span("cq.evaluate") as s:
            ...
            s.set("rows", len(answer))

    ``set`` on the null span is a no-op, so call sites never need to
    know whether tracing is active.
    """

    __slots__ = ("trace", "span_id", "parent_id", "name", "started", "duration_ms", "attrs", "children")

    def __init__(self, trace: "Trace", name: str, parent_id: Optional[str]):
        self.trace = trace
        self.span_id = new_trace_id()
        self.parent_id = parent_id
        self.name = name
        self.started = time.perf_counter()
        self.duration_ms: Optional[float] = None
        self.attrs: Optional[Dict[str, Any]] = None
        self.children: List[Any] = []

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute to the span."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value

    def finish(self) -> None:
        """Close the span (idempotent)."""
        if self.duration_ms is None:
            self.duration_ms = (time.perf_counter() - self.started) * 1000.0

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info) -> None:
        self.finish()

    def to_dict(self) -> Dict[str, Any]:
        """The span subtree as one JSON-serialisable document."""
        document: Dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "start_ms": round((self.started - self.trace.started_perf) * 1000.0, 3),
            "duration_ms": round(self.duration_ms or 0.0, 3),
        }
        if self.parent_id is not None:
            document["parent_id"] = self.parent_id
        if self.attrs:
            document["attrs"] = dict(self.attrs)
        if self.children:
            document["children"] = [
                child if isinstance(child, dict) else child.to_dict()
                for child in self.children
            ]
        return document


class _SpanScope:
    """Context manager pushing one live span onto the context stack."""

    __slots__ = ("_span", "_token")

    def __init__(self, span_obj: Span):
        self._span = span_obj
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Span:
        self._token = _CURRENT.set(self._span)
        return self._span

    def __exit__(self, *exc_info) -> None:
        self._span.finish()
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None


class _AggregateScope:
    """Past the span cap: record (count, total ms) per name, no tree node."""

    __slots__ = ("_trace", "_name", "_started")

    def __init__(self, trace: "Trace", name: str):
        self._trace = trace
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "_NullSpan":
        self._started = time.perf_counter()
        return _NULL_SPAN

    def __exit__(self, *exc_info) -> None:
        elapsed_ms = (time.perf_counter() - self._started) * 1000.0
        self._trace.aggregate(self._name, elapsed_ms)


class _NullSpan:
    """The do-nothing span returned whenever tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def set(self, key: str, value: Any) -> None:
        pass

    def __bool__(self) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Trace:
    """One request's trace: a root span plus bookkeeping.

    Append operations are guarded by a lock — a trace crosses from the
    event loop into a worker thread, and (defensively) nothing stops an
    instrumented layer from spawning its own helpers.
    """

    __slots__ = (
        "trace_id",
        "parent_id",
        "root",
        "started_epoch",
        "started_perf",
        "span_limit",
        "span_count",
        "dropped",
        "links",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        span_limit: int = DEFAULT_SPAN_LIMIT,
    ):
        self.trace_id = trace_id or new_trace_id()
        self.parent_id = parent_id
        self.started_epoch = time.time()
        self.started_perf = time.perf_counter()
        self.span_limit = max(1, span_limit)
        self.span_count = 1
        self.dropped: Dict[str, List[float]] = {}
        self.links: List[Dict[str, str]] = []
        self._lock = threading.Lock()
        self.root = Span(self, name, parent_id)

    def open_span(self, name: str):
        """A scope for one child span of the current context's span."""
        parent = _CURRENT.get()
        if parent is None or parent.trace is not self:
            parent = self.root
        with self._lock:
            if self.span_count >= self.span_limit:
                return _AggregateScope(self, name)
            self.span_count += 1
        child = Span(self, name, parent.span_id)
        parent.children.append(child)
        return _SpanScope(child)

    def aggregate(self, name: str, elapsed_ms: float) -> None:
        """Fold one over-cap span into the per-name aggregates."""
        with self._lock:
            entry = self.dropped.get(name)
            if entry is None:
                self.dropped[name] = [1, elapsed_ms]
            else:
                entry[0] += 1
                entry[1] += elapsed_ms

    def attach_child_doc(self, parent: Optional[Span], document: Dict[str, Any]) -> None:
        """Graft an already-serialised subtree (a worker's tree) under a span."""
        target = parent or self.root
        with self._lock:
            target.children.append(document)

    def link(self, trace_id: str, relation: str = "coalesced-leader") -> None:
        """Record a reference to another trace instead of a subtree."""
        self.links.append({"trace_id": trace_id, "rel": relation})

    def finish(self) -> None:
        """Close the root span (idempotent)."""
        self.root.finish()

    def to_dict(self) -> Dict[str, Any]:
        """The whole trace as one JSON-serialisable document."""
        self.finish()
        document: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "started": round(self.started_epoch, 6),
            "duration_ms": round(self.root.duration_ms or 0.0, 3),
            "spans": self.span_count,
            "root": self.root.to_dict(),
        }
        if self.parent_id is not None:
            document["parent_id"] = self.parent_id
        if self.links:
            document["links"] = list(self.links)
        if self.dropped:
            document["dropped"] = {
                name: {"count": entry[0], "total_ms": round(entry[1], 3)}
                for name, entry in self.dropped.items()
            }
        return document


def span(name: str):
    """A scope for one named span under the current trace.

    **The** instrumentation entry point.  When no trace is active the
    preallocated null span comes back after a single global-flag check —
    the instrumented hot paths rely on this being allocation-free.
    """
    if not _ARMED:
        return _NULL_SPAN
    current = _CURRENT.get()
    if current is None:
        return _NULL_SPAN
    return current.trace.open_span(name)


def current_trace() -> Optional[Trace]:
    """The trace of the current context, if one is open."""
    if not _ARMED:
        return None
    current = _CURRENT.get()
    return current.trace if current is not None else None


def current_span() -> Optional[Span]:
    """The innermost open span of the current context, if any."""
    if not _ARMED:
        return None
    return _CURRENT.get()


def record_span(name: str, duration_ms: float, **attrs: Any) -> None:
    """Record an already-elapsed interval as a completed child span.

    Used where the interval is measured externally (e.g. queue wait:
    the clock started before the worker thread existed).
    """
    if not _ARMED:
        return
    current = _CURRENT.get()
    if current is None:
        return
    trace = current.trace
    with trace._lock:
        if trace.span_count >= trace.span_limit:
            pass
        else:
            trace.span_count += 1
            child = Span(trace, name, current.span_id)
            child.started = time.perf_counter() - duration_ms / 1000.0
            child.duration_ms = duration_ms
            if attrs:
                child.attrs = dict(attrs)
            current.children.append(child)
            return
    trace.aggregate(name, duration_ms)


class _TraceScope:
    """Context manager owning one whole trace (opened at client/router/worker)."""

    __slots__ = ("trace", "_token")

    def __init__(self, trace: Trace):
        self.trace = trace
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> Trace:
        global _OPEN_TRACES
        with _STATE_LOCK:
            _OPEN_TRACES += 1
            _rearm()
        self._token = _CURRENT.set(self.trace.root)
        return self.trace

    def __exit__(self, *exc_info) -> None:
        global _OPEN_TRACES
        self.trace.finish()
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        with _STATE_LOCK:
            _OPEN_TRACES = max(0, _OPEN_TRACES - 1)
            _rearm()


def start_trace(
    name: str,
    trace_id: Optional[str] = None,
    parent_id: Optional[str] = None,
    span_limit: int = DEFAULT_SPAN_LIMIT,
) -> _TraceScope:
    """Open a new trace whose root span is named ``name``.

    Returns a context manager yielding the :class:`Trace`; while it is
    open, :func:`span` calls in the same context (or a copied context
    run on another thread) attach to it.  ``trace_id``/``parent_id``
    continue a distributed trace arriving over the wire.
    """
    return _TraceScope(Trace(name, trace_id=trace_id, parent_id=parent_id, span_limit=span_limit))


def dominant_span(trace_doc: Dict[str, Any]) -> Dict[str, Any]:
    """The descendant with the largest *self* time of a trace document.

    Self time is a span's duration minus its children's; the root is a
    candidate too, so a trace that spends its time between spans names
    itself.  Used by the slow-request log and the CLI waterfall.
    """
    best: Dict[str, Any] = {"name": "(root)", "self_ms": 0.0, "duration_ms": 0.0}

    def visit(node: Dict[str, Any]) -> None:
        nonlocal best
        duration = float(node.get("duration_ms") or 0.0)
        children = node.get("children") or []
        child_total = sum(float(c.get("duration_ms") or 0.0) for c in children)
        self_ms = max(0.0, duration - child_total)
        if self_ms > best["self_ms"]:
            best = {
                "name": node.get("name", "(unnamed)"),
                "self_ms": round(self_ms, 3),
                "duration_ms": round(duration, 3),
            }
        for child in children:
            visit(child)

    root = trace_doc.get("root") or {}
    if root:
        visit(root)
    return best


def walk_spans(trace_doc: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    """Yield every span document of a trace, depth-first."""
    stack = [trace_doc.get("root") or {}]
    while stack:
        node = stack.pop()
        if not node:
            continue
        yield node
        stack.extend(node.get("children") or [])
