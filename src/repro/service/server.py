"""The asyncio disclosure-audit daemon.

Architecture
------------
The event loop owns all bookkeeping — the session pool, the live
sessions and the request pipeline's table (:mod:`repro.service.pipeline`)
— so none of it needs a lock; only the analyses leave the loop, onto a
bounded :class:`~concurrent.futures.ThreadPoolExecutor`.  Three mechanisms keep
the daemon healthy under heavy, repetitive traffic:

* **Session sharing.**  Requests are fingerprinted on (schema document,
  dictionary spec, verification engine, criticality engine); all
  requests with one fingerprint run on one shared
  :class:`~repro.session.AnalysisSession`, so the critical-tuple cache
  and the per-dictionary probability kernels are reused across clients
  and connections.  The pool is LRU-bounded.

* **Request coalescing.**  Identical requests (same
  :func:`~repro.service.protocol.request_key`) that arrive while the
  first one is still computing *await the same future* instead of
  queueing duplicate work; completed answers additionally populate a
  bounded result cache, so a burst of N duplicates costs one
  computation no matter how the burst interleaves with completions.

* **Load shedding.**  At most ``queue_limit`` analyses may be pending on
  the worker pool; beyond that the server answers immediately with a
  structured ``overloaded`` error instead of letting the queue grow
  without bound.

The worker threads share sessions, which is safe because
:class:`~repro.session.cache.CriticalTupleCache` is thread-safe and
session analyses are otherwise read-only over immutable queries.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import hashlib
import itertools
import os
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..audit.auditor import SecurityAuditor
from ..exceptions import ReproError
from ..obs import (
    CONTENT_TYPE,
    TRACES,
    current_trace,
    record_span,
    render_prometheus,
    span,
    tracing_enabled,
)
from . import faults
from ..io import dictionary_from_dict, schema_from_dict
from ..session import (
    AnalysisSession,
    LiveAuditSession,
    PublishingPlan,
    fact_from_document,
)
from ..session.results import (
    AnalysisResult,
    CollusionResult,
    DecisionResult,
    KnowledgeResult,
    LeakageAnalysis,
    PlanAuditResult,
    VerificationResult,
)
from .coalesce import DEFAULT_CACHE_SIZE, Core
from .pipeline import (
    Overloaded,
    RequestPipeline,
    ServiceThread,
    failure,
    pump,
    run_service,
)
from .protocol import (
    DEFAULT_MAX_PAYLOAD,
    ERROR_ANALYSIS,
    ERROR_INTERNAL,
    PROTOCOL_VERSION,
    AuditRequest,
    ProtocolError,
    encode_message,
    knowledge_from_dict,
    ok_response,
    session_key,
)

__all__ = ["AuditServer", "ServerThread", "run_server"]

#: Default bound on concurrently pending analyses (load-shedding threshold).
DEFAULT_QUEUE_LIMIT = 64

#: Default number of shared sessions kept (LRU).
DEFAULT_MAX_SESSIONS = 32

#: Default number of live audit sessions kept (LRU; oldest is dropped).
DEFAULT_MAX_LIVE = 32


def _fraction_fields(value: Optional[Fraction]) -> Dict[str, Any]:
    if value is None:
        return {}
    return {"exact": str(value), "float": float(value)}


def _cache_delta(result: AnalysisResult) -> Dict[str, int]:
    used = result.cache_used
    return {"hits": used.hits, "misses": used.misses, "evictions": used.evictions}


def _schema_and_dictionary(request: AuditRequest) -> Tuple[Any, Any]:
    """A request's schema and dictionary (a ``dictionary`` override wins)."""
    schema = schema_from_dict(request.schema)
    source = request.dictionary if request.dictionary is not None else request.schema
    return schema, dictionary_from_dict(source, schema)


def result_payload(result: AnalysisResult) -> Dict[str, Any]:
    """Serialise a session :class:`AnalysisResult` to plain JSON.

    Every payload carries the unified fields (``kind``, ``verdict``,
    ``explanation``, timing, cache delta); flavours add their own detail
    on top.
    """
    payload: Dict[str, Any] = {
        "kind": result.kind,
        "verdict": result.verdict,
        "conclusive": result.conclusive,
        "explanation": result.explain(),
        "elapsed_seconds": round(result.elapsed_seconds, 6),
        "cache_used": _cache_delta(result),
    }
    if isinstance(result, DecisionResult):
        decision = result.decision
        payload["common_critical_count"] = len(decision.common_critical)
        payload["method"] = decision.method
    elif isinstance(result, CollusionResult):
        report = result.report
        payload["recipients"] = list(report.recipients)
        payload["insecure_recipients"] = list(report.insecure_recipients)
        payload["secure_recipients"] = list(report.secure_recipients)
    elif isinstance(result, KnowledgeResult):
        payload["method"] = result.decision.method
    elif isinstance(result, LeakageAnalysis):
        measurement = result.measurement
        payload["leakage"] = _fraction_fields(measurement.leakage)
        payload["explored"] = measurement.explored
        if measurement.prior is not None:
            payload["prior"] = _fraction_fields(measurement.prior)
            payload["posterior"] = _fraction_fields(measurement.posterior)
    elif isinstance(result, VerificationResult):
        payload["engine"] = result.engine
    elif isinstance(result, PlanAuditResult):
        payload["entries"] = [
            {
                "secret": entry.secret_name,
                "recipient": entry.recipient,
                "view": entry.view_name,
                "secure": entry.secure,
            }
            for entry in result.entries
        ]
        payload["violations"] = [
            {"secret": entry.secret_name, "recipient": entry.recipient}
            for entry in result.violations
        ]
    return payload


class AuditServer(RequestPipeline):
    """The JSON-lines-over-TCP audit daemon.

    Parameters
    ----------
    host / port:
        Bind address; port 0 picks an ephemeral port (read it back from
        :attr:`address` after :meth:`start`).
    path:
        Bind a unix domain socket at this path instead of a TCP port
        (how fleet workers listen for their router); ``address`` then
        returns ``(path, 0)``.
    workers:
        Worker-pool size for CPU-bound analyses (default: CPU count,
        capped at 8).
    queue_limit:
        Maximum pending analyses before requests are shed with an
        ``overloaded`` error.
    max_sessions / result_cache_size:
        LRU bounds of the shared-session pool and the completed-result
        memo.
    session_cache_size:
        ``CriticalTupleCache`` size of each shared session.
    max_payload:
        Upper bound (bytes) on one request line.
    slow_ms:
        Threshold of the structured slow-request log: traced requests
        slower than this emit one JSON line naming the dominant span
        (``REPRO_TRACE_SLOW_MS`` / ``REPRO_TRACE_SLOW_LOG`` override).
    watchdog_seconds:
        Server-side cap on any one computation, applied even to
        requests that carry no ``deadline_ms`` (``None`` disables).
        Overrunning computations are *abandoned*: the worker slot is
        reclaimed immediately, the caller (and any coalesced twins)
        get a ``deadline-exceeded`` error, and if the stray thread
        eventually finishes its result still lands in the result cache
        so the work is not wasted.
    max_live:
        Live sessions kept (LRU; the oldest is dropped).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        path: Optional[str] = None,
        workers: Optional[int] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        result_cache_size: int = DEFAULT_CACHE_SIZE,
        session_cache_size: int = 512,
        max_payload: int = DEFAULT_MAX_PAYLOAD,
        watchdog_seconds: Optional[float] = None,
        slow_ms: Optional[float] = None,
        max_live: int = DEFAULT_MAX_LIVE,
    ):
        if queue_limit < 1:
            raise ReproError("queue_limit must be at least 1")
        super().__init__(
            host,
            port,
            max_payload=max_payload,
            # Above max_payload, so an oversized-but-bounded line is
            # still read whole and answered with a structured error.
            stream_limit=max(2 * max_payload, 1 << 16),
            result_cache_size=result_cache_size,
            slow_ms=slow_ms,
            watchdog_seconds=watchdog_seconds,
            path=path,
        )
        self._workers = workers or min(8, os.cpu_count() or 1)
        self._queue_limit = queue_limit
        self._max_sessions = max(1, max_sessions)
        self._session_cache_size = session_cache_size
        self._abandoned_total = 0
        self._abandoned_running = 0
        self._sessions: "OrderedDict[str, AnalysisSession]" = OrderedDict()
        self._max_live = max(1, max_live)
        #: live name -> (incarnation id, session); the id versions the
        #: session's cached answers across re-creation under one name.
        self._live: "OrderedDict[str, Tuple[int, LiveAuditSession]]" = OrderedDict()
        self._incarnations = itertools.count(1)
        #: live name -> subscriber notification queues (loop thread only).
        self._live_subscribers: Dict[str, list] = {}
        self._executor: Optional[ThreadPoolExecutor] = None

    # -- lifecycle ---------------------------------------------------------------
    async def _open_executor(self) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="repro-audit"
        )

    async def _close_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # -- control operations -------------------------------------------------------
    async def _control(self, request: AuditRequest) -> Dict[str, Any]:
        if request.op == "ping":
            return ok_response(
                request.id, "ping", {"pong": True, "version": PROTOCOL_VERSION}
            )
        if request.op == "stats":
            payload = self._stats_payload()
            if request.options.get("mergeable"):
                # The raw counters + latency reservoirs, so a fleet router
                # can merge per-worker stats without losing percentile
                # fidelity (see repro.service.metrics.merge_snapshots).
                payload["mergeable"] = self._metrics.mergeable_snapshot()
            return ok_response(request.id, "stats", payload)
        if request.op == "traces":
            return ok_response(request.id, "traces", TRACES.snapshot())
        if request.op == "metrics":
            if request.options.get("mergeable"):
                # The fleet router merges per-worker parts and renders once.
                payload = {
                    "mergeable": self._metrics.mergeable_snapshot(),
                    "gauges": self._gauges(),
                }
            else:
                payload = {
                    "content_type": CONTENT_TYPE,
                    "text": render_prometheus(self._metrics.snapshot(), self._gauges()),
                }
            return ok_response(request.id, "metrics", payload)
        self.request_stop()  # shutdown
        return ok_response(request.id, "shutdown", {"stopping": True})

    def _gauges(self) -> Dict[str, Any]:
        """Point-in-time gauges for the Prometheus exposition."""
        return {
            "pending_analyses": self._pending,
            "connections": self._connections,
            "sessions": len(self._sessions),
            "result_cache_entries": len(self._table),
            "workers": self._workers,
            "queue_limit": self._queue_limit,
            "live_sessions": len(self._live),
            "live_subscribers": sum(
                len(queues) for queues in self._live_subscribers.values()
            ),
        }

    def _stats_payload(self) -> Dict[str, Any]:
        sessions = []
        for key, session in self._sessions.items():
            entry: Dict[str, Any] = {
                "fingerprint": hashlib.sha256(key.encode("utf8")).hexdigest()[:12],
                "engine": session.engine_name,
                "criticality_engine": session.criticality_engine_name,
                "eval_engine": session.eval_engine,
                "cache": session.cache_stats.to_dict(),
            }
            kernel_stats = SecurityAuditor.kernel_stats_for(session.dictionary)
            if kernel_stats is not None:
                entry["kernels"] = kernel_stats
            sessions.append(entry)
        from ..cq.compiled import evaluation_stats

        payload = {
            **self._metrics.snapshot(),
            "pending": self._pending,
            "queue_limit": self._queue_limit,
            "workers": self._workers,
            "connections": self._connections,
            "result_cache_entries": len(self._table),
            "abandoned": {
                "total": self._abandoned_total,
                "running": self._abandoned_running,
            },
            "query_evaluation": evaluation_stats(),
            "sessions": sessions,
            "live": {
                name: {
                    "revision": live.revision,
                    "facts": live.fact_count,
                    "secrets": list(live.secret_names),
                    "views": list(live.view_names),
                    "subscribers": len(self._live_subscribers.get(name, ())),
                    "stats": dict(live.stats),
                }
                for name, (_, live) in self._live.items()
            },
            "tracing": {
                "enabled": tracing_enabled(),
                "recorded": TRACES.snapshot()["recorded"],
                "slow_threshold_ms": self._slow_log.threshold_ms,
                "slow_logged": self._slow_log.logged,
            },
        }
        fault_stats = faults.stats()
        if fault_stats is not None:
            payload["faults"] = fault_stats
        return payload

    # -- the executor: the thread pool --------------------------------------------
    def _admit(self, request: AuditRequest, key: Optional[str]) -> None:
        if self._pending >= self._queue_limit:
            raise Overloaded(
                f"worker queue is full ({self._pending} pending, "
                f"limit {self._queue_limit}); retry later"
            )

    async def _execute(
        self,
        request: AuditRequest,
        raw: bytes,
        key: Optional[str],
        slot: None,
        deadline: Optional[float],
    ) -> Core:
        if request.is_live:
            return await self._execute_live(request)
        session = self._session_for(request)
        return {"ok": True, "result": await self._submit(self._analyse, session, request)}

    def _submit(self, fn: Callable[..., Any], *args: Any) -> "asyncio.Future":
        """Schedule one call on the worker pool.

        With a trace open, the contextvars context is copied into the
        worker thread so engine-level spans land under this request's
        tree, and the queue wait (submission → thread pickup) becomes
        its own span.  Untraced requests take the bare path — no
        context copy, no extra closure.
        """
        loop = asyncio.get_running_loop()
        if current_trace() is None:
            return loop.run_in_executor(self._executor, fn, *args)
        enqueued = time.perf_counter()
        context = contextvars.copy_context()

        def _traced() -> Any:
            record_span("server.queue_wait", (time.perf_counter() - enqueued) * 1000.0)
            with span("server.execute"):
                return fn(*args)

        return loop.run_in_executor(self._executor, context.run, _traced)

    def _abandon(self, key: Optional[str], work: "asyncio.Future[Core]", slot: None) -> str:
        # The thread cannot be cancelled: the slot is reclaimed now and
        # the stray result is harvested into the cache when it lands.
        self._abandoned_total += 1
        self._abandoned_running += 1
        work.add_done_callback(functools.partial(self._reap_abandoned, key))
        return "mid-computation; the computation was abandoned"

    def _reap_abandoned(self, key: Optional[str], work: "asyncio.Future[Core]") -> None:
        """An abandoned computation finished: harvest it (loop thread)."""
        self._abandoned_running -= 1
        if key is not None and not work.cancelled() and work.exception() is None:
            self._table.publish(key, work.result())

    def _failure_of(self, request: AuditRequest, slot: None, error: Exception) -> Core:
        if isinstance(error, ProtocolError):
            return failure(error.code, str(error))
        if isinstance(error, ReproError):
            return failure(ERROR_ANALYSIS, str(error))
        return failure(ERROR_INTERNAL, f"{type(error).__name__}: {error}")

    # -- live audit sessions ------------------------------------------------------
    def _live_version(self, request: AuditRequest) -> Optional[Tuple[int, int]]:
        """Only ``live-audit`` answers are cached, keyed by the session version."""
        entry = self._live.get(request.live or "") if request.op == "live-audit" else None
        return None if entry is None else (entry[0], entry[1].revision)

    async def _execute_live(self, request: AuditRequest) -> Core:
        """Run one live operation (see the protocol docs).

        Registration, eviction and notification fan-out happen here, on
        the loop thread that owns the bookkeeping; building, snapshots
        and deltas run on the pool.
        """
        name = request.live or ""
        if request.op == "live-create":
            if name in self._live:
                raise ReproError(f"a live session named {name!r} already exists")
            live, payload = await self._submit(self._live_create, request)
            if name in self._live:  # lost a create race mid-build
                raise ReproError(f"a live session named {name!r} already exists")
            self._live[name] = (next(self._incarnations), live)
            while len(self._live) > self._max_live:
                dropped, (incarnation, old) = self._live.popitem(last=False)
                self._live_subscribers.pop(dropped, None)
                self._table.forget(self._version_key(dropped, incarnation, old.revision))
            return {"ok": True, "result": payload}
        if name not in self._live:
            raise ReproError(f"no live session named {name!r}")
        incarnation, live = self._live[name]
        self._live.move_to_end(name)
        if request.op == "subscribe":
            # Registered before the acknowledgement, and filtered by its
            # revision, so the stream holds exactly the notifications
            # after the acknowledged state (a delta applied on the pool
            # may fan out after this point).
            queue: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()
            self._live_subscribers.setdefault(name, []).append(queue)
            return {
                "ok": True,
                "result": {"live": name, "revision": live.revision, "subscribed": True},
                "stream": (
                    functools.partial(self._stream_notifications, name, queue, live.revision),
                    functools.partial(self._unsubscribe, name, queue),
                ),
            }
        if request.op == "live-audit":
            return {"ok": True, "result": await self._submit(live.snapshot)}
        notifications = await self._submit(self._live_delta, live, request)
        for notification in notifications:
            # The superseded version's answer can never be asked for again.
            self._table.forget(
                self._version_key(name, incarnation, notification["revision"] - 1)
            )
            for queue in self._live_subscribers.get(name, ()):
                queue.put_nowait(notification)
        payload = dict(notifications[-1])
        payload["events"] = len(notifications)
        return {"ok": True, "result": payload}

    def _live_create(self, request: AuditRequest) -> Tuple[LiveAuditSession, Dict[str, Any]]:
        """Build a live session and its initial snapshot (worker thread)."""
        for rule in faults.fire("server.execute", op=request.op):
            faults.perform(rule)
        name = request.live or ""
        schema, dictionary = _schema_and_dictionary(request)
        secrets = request.secrets
        if not isinstance(secrets, Mapping):
            secrets = {f"secret-{i}": q for i, q in enumerate(secrets)}
        views = request.views
        if views is not None and not isinstance(views, Mapping):
            views = (
                {f"view-{i}": q for i, q in enumerate(views)}
                if not isinstance(views, str)
                else {"view-0": views}
            )
        facts = [fact_from_document(doc) for doc in request.facts or ()]
        store = None
        if request.options.get("store"):
            from ..storage.sqlite import SQLiteFactStore

            store = SQLiteFactStore()
        live = LiveAuditSession(
            schema,
            secrets=secrets,
            views=views,
            facts=facts,
            store=store,
            dictionary=dictionary,
            eval_engine=request.eval_engine,
            criticality_engine=request.criticality_engine,
            cache_size=self._session_cache_size,
        )
        snapshot = live.snapshot()
        snapshot["created"] = True
        snapshot["live"] = name
        return live, snapshot

    @staticmethod
    def _live_delta(live: LiveAuditSession, request: AuditRequest) -> list:
        """Apply one delta request (worker thread); returns notifications.

        Order within one request: view retractions, then publications,
        then the batched fact delta — so a request can atomically swap a
        view and shift the data underneath it.
        """
        for rule in faults.fire("server.execute", op=request.op):
            faults.perform(rule)
        notifications = []
        for view_name in request.retract or ():
            notifications.append(live.retract(view_name))
        for view_name, query in (request.publish or {}).items():
            notifications.append(live.publish(view_name, query))
        added = [fact_from_document(doc) for doc in request.add or ()]
        removed = [fact_from_document(doc) for doc in request.remove or ()]
        if added or removed or not notifications:
            notifications.append(live.apply_delta(added=added, removed=removed))
        return notifications

    async def _stream_notifications(
        self,
        name: str,
        queue: "asyncio.Queue[Dict[str, Any]]",
        after: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Stream a live session's notifications past revision ``after``."""

        async def next_line() -> bytes:
            while True:
                notification = await queue.get()
                if notification["revision"] > after:
                    return encode_message(notification)

        try:
            await pump(next_line, reader, writer)
        finally:
            self._unsubscribe(name, queue)

    def _unsubscribe(self, name: str, queue: "asyncio.Queue[Dict[str, Any]]") -> None:
        queues = self._live_subscribers.get(name)
        if queues is not None and queue in queues:
            queues.remove(queue)
            if not queues:
                self._live_subscribers.pop(name, None)

    # -- session pool -------------------------------------------------------------
    def _session_for(self, request: AuditRequest) -> AnalysisSession:
        """The shared session for a request's fingerprint (loop thread only)."""
        key = session_key(request)
        session = self._sessions.get(key)
        if session is None:
            schema, dictionary = _schema_and_dictionary(request)
            session = AnalysisSession(
                schema,
                dictionary=dictionary,
                engine=request.engine,
                criticality_engine=request.criticality_engine,
                eval_engine=request.eval_engine,
                cache_size=self._session_cache_size,
            )
            while len(self._sessions) >= self._max_sessions:
                self._sessions.popitem(last=False)
            self._sessions[key] = session
        self._sessions.move_to_end(key)
        return session

    # -- the worker-side execution ------------------------------------------------
    def _analyse(self, session: AnalysisSession, request: AuditRequest) -> Dict[str, Any]:
        """Run one analysis (worker thread; session state is thread-safe)."""
        for rule in faults.fire("server.execute", op=request.op):
            faults.perform(rule)
        op = request.op
        options = dict(request.options)
        if op == "decide":
            return result_payload(session.decide(request.secret, request.views))
        if op == "quick":
            return result_payload(session.quick_check(request.secret, request.views))
        if op == "collusion":
            return result_payload(session.collusion(request.secret, request.views))
        if op == "leakage":
            return result_payload(
                session.leakage(request.secret, request.views, **options)
            )
        if op == "verify":
            return result_payload(
                session.verify(request.secret, request.views, **options)
            )
        if op == "with_knowledge":
            knowledge = knowledge_from_dict(request.knowledge, session.schema)
            return result_payload(
                session.with_knowledge(request.secret, request.views, knowledge)
            )
        if op == "plan":
            plan = PublishingPlan(secrets=request.secrets, views=request.views)
            return result_payload(session.audit_plan(plan))
        if op == "audit":
            auditor = SecurityAuditor(session.schema, session=session)
            views = (
                request.views
                if isinstance(request.views, Mapping)
                else list(request.views)
                if not isinstance(request.views, str)
                else [request.views]
            )
            report = auditor.audit(request.secret, views)
            payload = report.to_dict()
            # The uniform verdict field every other op carries; also what
            # `repro-audit request` keys its exit code on.
            payload["verdict"] = report.all_secure
            payload["observability"] = auditor.observability()
            return payload
        raise ProtocolError(ERROR_INTERNAL, f"unroutable operation {op!r}")


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------
def run_server(host: str = "127.0.0.1", port: int = 8765, *, announce=None, **options) -> None:
    """Run a daemon until ``shutdown`` / Ctrl-C (the CLI entry point)."""
    run_service(AuditServer(host, port, **options), announce)


class ServerThread(ServiceThread):
    """A daemon running on a background thread (tests, benchmarks, demos).

    Usage::

        with ServerThread(workers=4) as server:
            client = AuditServiceClient(*server.address)
    """

    factory = AuditServer

    @property
    def server(self) -> AuditServer:
        """The wrapped :class:`AuditServer` (e.g. for ``metrics``)."""
        return self._service
