"""The pre-forked sharded audit fleet: a router in front of worker processes.

The single-process daemon (:class:`~repro.service.server.AuditServer`)
runs every analysis on one interpreter, so exact-kernel and crit_D
computations contend on one GIL no matter how many threads the pool
holds.  This module scales the service with *cores* instead:

* **Workers** are pre-forked OS processes, each running the unmodified
  :class:`AuditServer` core on a private unix domain socket — its own
  session pool, kernel memos and thread pool, untouched by any other
  worker.  Workers keep no result cache (``result_cache_size=0``): the
  router answers every client, so its table is the fleet's one cache.

* **The router** is the forwarding side of the shared request pipeline
  (:mod:`repro.service.pipeline`): it accepts the same JSON-lines-over-
  TCP protocol clients already speak, computes the request fingerprint
  (:func:`~repro.service.protocol.request_key` — which embeds the
  (schema, dictionary, verification engine) session fingerprint the
  server already derives), answers from its result cache or an
  in-flight twin when it can, and forwards the rest.

* **Fleet-wide coalescing**: every request passes through the one
  router, so its in-memory pipeline table
  (:class:`~repro.service.coalesce.FleetCoalescer`) makes a burst of N
  identical requests on different connections cost exactly one
  computation across the whole fleet — before any shard is chosen.

* **Load-aware routing**: an analysis that reaches admission (a cache
  miss with no twin in flight) goes to the shard with the fewest
  requests admitted and not yet answered, among the shards whose
  circuit breaker admits traffic; ties go to the request's owner by
  **rendezvous hashing** of its fingerprint, then down the rendezvous
  order.  An idle or one-request-at-a-time fleet therefore routes every
  question to its owner, while concurrent misses spread over idle
  workers instead of queueing on one.  Live operations route by session
  name to the worker holding the session, regardless of load, and are
  never coalesced or cached.

* **Deadlines**: the router alone enforces a request's ``deadline_ms``
  and forwards the request without it.  A forward past its deadline is
  not cancelled: the worker runs it to completion, the shard stays
  loaded until the answer lands, and an ok answer is then published
  into the router's table, so a retry is answered ``fleet_cached``.

* **Fleet load shedding**: each shard counts its requests from
  admission until their forward lands, abandoned ones included.  An
  analysis is shed with a structured ``overloaded`` error only when
  every shard that admits traffic is at the queue limit; a live
  operation, when its session's shard is — bounded latency instead of
  collapse.

* **Supervision**: the router watches each worker's process sentinel,
  restarts crashed workers (same socket, same shard identity, so the
  rendezvous order is unchanged) and fails the crashed worker's
  in-flight requests with a retryable ``worker-crashed`` error.  A
  re-forked worker starts cold, like a freshly booted one.

* **One count per request**: the router answers every client, so its
  own :class:`~repro.service.metrics.ServiceMetrics` is the fleet's
  record — each request counted once and timed at the router (queue,
  forward, worker and reply).  A ``stats`` request returns that record
  plus the router's table and abandoned forwards, per-shard queue
  depths, restart counts and each worker's ``stats`` details; a
  ``metrics`` request renders the record as Prometheus text with the
  workers' gauges summed, except the result cache, which is the
  router's.
  Workers are only ever asked for ``stats``, and that gather traffic is
  counted nowhere in the fleet's record.

* **One record per traced request**: the router opens the trace, a
  worker returns its subtree inline (on errors too) and records
  nothing, so the router's trace buffer and slow log hold each traced
  request once; ``traces`` returns that buffer.

``shutdown`` (or :meth:`FleetServer.stop`) drains: the listener closes,
in-flight requests finish and are answered, then every worker is asked
to shut down and reaped — no dropped responses, no orphan processes.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import hashlib
import json
import multiprocessing
import os
import shutil
import signal
import tempfile
import threading
import time
from typing import Any, Awaitable, Dict, List, Mapping, Optional, Tuple

from ..exceptions import ReproError
from ..obs import CONTENT_TYPE, Span, current_trace, render_prometheus, span
from . import faults
from .coalesce import DEFAULT_CACHE_SIZE, Core
from .health import CircuitBreaker
from .metrics import stats_gauges
from .pipeline import (
    Overloaded,
    RequestPipeline,
    ServiceThread,
    failure,
    fingerprint,
    pump,
    run_service,
)
from .protocol import (
    DEFAULT_MAX_PAYLOAD,
    ERROR_INTERNAL,
    ERROR_WORKER_CRASHED,
    PROTOCOL_VERSION,
    AuditRequest,
    encode_message,
    ok_response,
    routing_key,
)

__all__ = ["FleetServer", "FleetThread", "run_fleet", "DEFAULT_FLEET_WORKERS"]

#: Default fleet size (pre-forked worker processes).
DEFAULT_FLEET_WORKERS = max(2, min(8, os.cpu_count() or 2))

#: Default per-shard queue depth (in-flight + waiting) before shedding.
DEFAULT_SHARD_QUEUE_LIMIT = 32

#: Default pooled router→worker connections per shard (concurrency bound).
DEFAULT_CONNECTIONS_PER_WORKER = 8

#: Default analysis threads inside each worker process.
DEFAULT_WORKER_THREADS = 2

#: The request id used for router-originated traffic to workers.
_ROUTER_ID = "__fleet__"

#: Serialises every ``Process.start`` in this interpreter.  Two forks
#: racing on different threads can leak one worker's sentinel-pipe write
#: end into the other child, which would keep the sentinel unreadable
#: after that worker is killed — the supervisor would never see a crash.
_SPAWN_LOCK = threading.Lock()


def _parent_watchdog(parent_pid: int) -> None:
    """Exit the worker if the router process disappears (orphan guard)."""
    while True:
        time.sleep(1.0)
        if os.getppid() != parent_pid:
            os._exit(1)


def _fleet_worker_main(
    socket_path: str, options: Dict[str, Any], parent_pid: int, shard_index: int
) -> None:
    """One worker process: the unmodified AuditServer on a unix socket."""
    # A forked child inherits the router's thread-local "a loop is
    # running" marker; clear it so asyncio.run starts fresh.
    with contextlib.suppress(Exception):
        asyncio.events._set_running_loop(None)  # type: ignore[attr-defined]
    asyncio.set_event_loop(None)
    # Ctrl-C is the router's business: it drains and asks us to stop.
    with contextlib.suppress(Exception):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Fault rules with a "shard" selector only fire in the targeted
    # worker; the plan itself arrives via fork inheritance or the
    # REPRO_FAULT_PLAN environment variable.
    faults.set_context(shard=shard_index)
    faults.install_from_env()
    threading.Thread(
        target=_parent_watchdog, args=(parent_pid,), name="parent-watchdog", daemon=True
    ).start()

    from .server import AuditServer

    run_service(AuditServer(path=socket_path, **options))


class _Connection:
    """One pooled router→worker stream, tagged with the worker generation."""

    __slots__ = ("reader", "writer", "generation")

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, generation: int
    ):
        self.reader = reader
        self.writer = writer
        self.generation = generation


class _Shard:
    """Router-side state of one worker process."""

    __slots__ = (
        "index",
        "path",
        "process",
        "generation",
        "pool",
        "created",
        "outstanding",
        "forwarded",
        "shed",
        "restarts",
        "breaker",
        "diverted",
        "ready",
    )

    def __init__(self, index: int, path: str, breaker: CircuitBreaker):
        self.index = index
        self.path = path
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.generation = 0
        self.pool: "asyncio.Queue[_Connection]" = asyncio.Queue()
        self.created = 0
        #: Requests admitted here whose forward has not landed, abandoned
        #: ones included (the load the router balances on).
        self.outstanding = 0
        self.forwarded = 0
        self.shed = 0
        self.restarts = 0
        #: Health ladder fed by transport outcomes (see repro.service.health).
        self.breaker = breaker
        #: Requests routed to this shard that its breaker turned away to
        #: another shard (health reroutes; load never counts here).
        self.diverted = 0
        #: Whether the current worker process accepts connections yet.
        self.ready = False


class FleetServer(RequestPipeline):
    """The multi-worker audit service: router + pre-forked shard fleet.

    Parameters
    ----------
    host / port:
        The router's public bind address (port 0 picks an ephemeral
        port; read :attr:`address` back after :meth:`start`).
    workers:
        Number of pre-forked worker processes (shards).
    worker_threads:
        Analysis threads inside each worker (small on purpose — the
        fleet's parallelism comes from processes).
    shard_queue_limit:
        Requests a shard may hold admitted and not yet answered.  An
        analysis is shed with an ``overloaded`` error only when every
        shard admitting traffic holds this many; a live operation when
        its session's shard does.
    connections_per_worker:
        Pooled router→worker connections (each carries one request at a
        time, so this bounds per-worker concurrency).
    result_cache_size:
        Bound on the router's cached results (workers cache nothing).
    breaker_options:
        :class:`~repro.service.health.CircuitBreaker` keyword arguments
        applied to every shard (``degrade_after``, ``quarantine_after``,
        ``cooldown_seconds``).
    worker_options:
        Extra :class:`AuditServer` keyword arguments for every worker
        (e.g. ``max_live``).
    """

    root_span = "router.route"
    hit_prefix = "fleet_"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: Optional[int] = None,
        worker_threads: int = DEFAULT_WORKER_THREADS,
        shard_queue_limit: int = DEFAULT_SHARD_QUEUE_LIMIT,
        connections_per_worker: int = DEFAULT_CONNECTIONS_PER_WORKER,
        result_cache_size: int = DEFAULT_CACHE_SIZE,
        max_payload: int = DEFAULT_MAX_PAYLOAD,
        breaker_options: Optional[Mapping[str, Any]] = None,
        slow_ms: Optional[float] = None,
        worker_options: Optional[Mapping[str, Any]] = None,
    ):
        if workers is not None and workers < 1:
            raise ReproError("a fleet needs at least one worker process")
        if shard_queue_limit < 1:
            raise ReproError("shard_queue_limit must be at least 1")
        if connections_per_worker < 1:
            raise ReproError("connections_per_worker must be at least 1")
        super().__init__(
            host,
            port,
            max_payload=max_payload,
            stream_limit=max(4 * max_payload, 1 << 20),
            result_cache_size=result_cache_size,
            slow_ms=slow_ms,
        )
        self._workers = workers or DEFAULT_FLEET_WORKERS
        self._shard_queue_limit = shard_queue_limit
        self._connections_per_worker = connections_per_worker
        self._breaker_options = dict(breaker_options or {})
        self._diverted = 0
        # Fork where the platform can: workers then inherit the router's
        # imports and fault plan instead of importing everything again.
        self._mp_context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
        self._worker_options: Dict[str, Any] = {
            "workers": worker_threads,
            "queue_limit": max(2 * connections_per_worker, 16),
            "result_cache_size": 0,
            "max_payload": max_payload,
        }
        if worker_options:
            self._worker_options.update(worker_options)

        self._shards: List[_Shard] = []
        self._live_relays = 0
        self._directory: Optional[str] = None
        self._supervisors: List[asyncio.Task] = []
        self._started_at = time.time()

    # -- lifecycle ---------------------------------------------------------------
    async def _open_executor(self) -> None:
        """Fork the workers, wait until they serve, start supervising."""
        if not hasattr(asyncio.get_running_loop(), "create_unix_connection"):
            raise ReproError("the worker fleet needs unix domain sockets")  # pragma: no cover
        self._directory = tempfile.mkdtemp(prefix="repro-fleet-")
        self._shards = [
            _Shard(
                index,
                os.path.join(self._directory, f"worker-{index}.sock"),
                CircuitBreaker(**self._breaker_options),
            )
            for index in range(self._workers)
        ]
        await asyncio.gather(*(self._spawn(shard) for shard in self._shards))
        await asyncio.gather(*(self._wait_ready(shard) for shard in self._shards))
        self._supervisors = [
            asyncio.get_running_loop().create_task(self._supervise(shard))
            for shard in self._shards
        ]

    async def _close_executor(self) -> None:
        """Stop supervising, halt every worker, remove the socket directory."""
        self._stopping = True  # the supervisors must not restart anyone
        for task in self._supervisors:
            task.cancel()
        if self._supervisors:
            await asyncio.gather(*self._supervisors, return_exceptions=True)
        self._supervisors = []
        # Ask every worker to shut down; each escalates to terminate/kill.
        await asyncio.gather(
            *(self._stop_worker(shard) for shard in self._shards), return_exceptions=True
        )
        for shard in self._shards:
            self._drain_pool(shard)
        if self._directory is not None:
            shutil.rmtree(self._directory, ignore_errors=True)
            self._directory = None

    @property
    def worker_pids(self) -> List[int]:
        """Serving worker process ids, by shard index (-1 while restarting)."""
        return [
            shard.process.pid if shard.ready and shard.process is not None else -1
            for shard in self._shards
        ]

    async def _stop_worker(self, shard: _Shard, timeout: float = 10.0) -> None:
        process = shard.process
        if process is None:
            return
        loop = asyncio.get_running_loop()
        if process.is_alive():
            with contextlib.suppress(Exception):
                await asyncio.wait_for(
                    self._forward(shard, encode_message({"id": _ROUTER_ID, "op": "shutdown"})),
                    timeout=5.0,
                )
            await loop.run_in_executor(None, functools.partial(process.join, timeout))
            if process.is_alive():
                process.terminate()
                await loop.run_in_executor(None, functools.partial(process.join, 5.0))
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                await loop.run_in_executor(None, functools.partial(process.join, 5.0))
        else:
            await loop.run_in_executor(None, functools.partial(process.join, 1.0))

    # -- worker processes --------------------------------------------------------
    async def _spawn(self, shard: _Shard) -> None:
        """Fork one worker (off-loop so no running-loop state is inherited)."""
        with contextlib.suppress(OSError):
            os.unlink(shard.path)
        process = self._mp_context.Process(
            target=_fleet_worker_main,
            args=(shard.path, dict(self._worker_options), os.getpid(), shard.index),
            name=f"repro-fleet-worker-{shard.index}",
        )
        shard.process = process

        def _locked_start() -> None:
            with _SPAWN_LOCK:
                process.start()

        await asyncio.get_running_loop().run_in_executor(None, _locked_start)

    async def _wait_ready(self, shard: _Shard, timeout: float = 30.0) -> None:
        """Wait until the worker's socket accepts (its loop is serving)."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            process = shard.process
            if process is not None and not process.is_alive():
                raise ReproError(
                    f"fleet worker {shard.index} exited with status "
                    f"{process.exitcode} during startup"
                )
            try:
                reader, writer = await self._connect(shard)
            except OSError:
                if loop.time() >= deadline:
                    raise ReproError(
                        f"fleet worker {shard.index} did not come up within {timeout}s"
                    )
                await asyncio.sleep(0.05)
                continue
            shard.created += 1
            shard.pool.put_nowait(_Connection(reader, writer, shard.generation))
            shard.ready = True
            return

    async def _supervise(self, shard: _Shard) -> None:
        """Restart-on-crash: watch the sentinel, respawn."""
        while True:
            process = shard.process
            if process is None:
                return
            await self._wait_exit(process)
            shard.ready = False
            if self._stopping:
                return
            shard.restarts += 1
            shard.generation += 1
            shard.created = 0
            self._drain_pool(shard)
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, functools.partial(process.join, 1.0))
            try:
                await self._spawn(shard)
                await self._wait_ready(shard)
            except ReproError:
                if self._stopping:
                    return
                await asyncio.sleep(0.5)

    async def _wait_exit(self, process: multiprocessing.process.BaseProcess) -> None:
        """Resolve when the process exits.

        The sentinel pipe is the prompt signal; a periodic ``is_alive``
        poll backs it up, because any process that inherited the
        sentinel's write end (a child the worker forked, say) keeps the
        pipe open past a SIGKILLed worker's death until it exits too.
        """
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[None]" = loop.create_future()
        sentinel = process.sentinel

        def _on_exit() -> None:
            if not future.done():
                future.set_result(None)

        loop.add_reader(sentinel, _on_exit)
        try:
            while process.is_alive():
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(asyncio.shield(future), timeout=1.0)
                if future.done():
                    return
        finally:
            with contextlib.suppress(Exception):
                loop.remove_reader(sentinel)

    # -- connection pool ---------------------------------------------------------
    def _connect(self, shard: _Shard) -> Awaitable[Tuple[Any, Any]]:
        """Open a fresh stream to a worker's socket (reader, writer)."""
        return asyncio.open_unix_connection(shard.path, limit=self._stream_limit)

    async def _acquire(self, shard: _Shard) -> _Connection:
        while True:
            try:
                connection = shard.pool.get_nowait()
            except asyncio.QueueEmpty:
                if shard.created < self._connections_per_worker:
                    shard.created += 1
                    try:
                        reader, writer = await self._connect(shard)
                    except Exception as error:
                        shard.created -= 1
                        raise ReproError(
                            f"cannot reach worker {shard.index}: {error}"
                        ) from error
                    return _Connection(reader, writer, shard.generation)
                connection = await shard.pool.get()
            if connection.generation != shard.generation or connection.writer.is_closing():
                self._close_connection(connection)
                continue
            return connection

    def _give_back(self, shard: _Shard, connection: _Connection) -> None:
        if connection.generation != shard.generation or connection.writer.is_closing():
            self._close_connection(connection)
            return
        shard.pool.put_nowait(connection)

    def _discard(self, shard: _Shard, connection: _Connection) -> None:
        if connection.generation == shard.generation:
            shard.created -= 1
        self._close_connection(connection)

    def _drain_pool(self, shard: _Shard) -> None:
        while True:
            try:
                connection = shard.pool.get_nowait()
            except asyncio.QueueEmpty:
                return
            self._close_connection(connection)

    @staticmethod
    def _close_connection(connection: _Connection) -> None:
        with contextlib.suppress(Exception):
            connection.writer.close()

    async def _forward(self, shard: _Shard, raw: bytes) -> Dict[str, Any]:
        """Send one raw request line to a worker; return its response doc."""
        connection = await self._acquire(shard)
        try:
            connection.writer.write(raw)
            await connection.writer.drain()
            line = await connection.reader.readline()
        except asyncio.CancelledError:
            self._discard(shard, connection)
            raise
        except Exception as error:
            self._discard(shard, connection)
            raise ReproError(f"worker {shard.index} connection failed: {error}") from error
        if not line:
            self._discard(shard, connection)
            raise ReproError(f"worker {shard.index} closed the connection")
        self._give_back(shard, connection)
        shard.forwarded += 1
        try:
            return json.loads(line)
        except json.JSONDecodeError as error:  # pragma: no cover - defensive
            raise ReproError(
                f"unparsable response from worker {shard.index}: {error}"
            ) from error

    # -- routing -----------------------------------------------------------------
    def _ranked(self, route: str) -> List[_Shard]:
        """Every shard in rendezvous order for ``route`` (its owner first)."""
        return sorted(
            self._shards,
            key=lambda shard: hashlib.blake2b(
                f"{route}|{shard.index}".encode("ascii"), digest_size=8
            ).digest(),
            reverse=True,
        )

    def _shard_for(self, route: str) -> _Shard:
        """Rendezvous hashing with health-aware fallback.

        The highest-scoring shard owns the key; when its circuit
        breaker is open (quarantined), the key falls to the next shard
        in rendezvous order — a stable reassignment, so a quarantined
        shard's keys consistently land on one fallback instead of
        scattering.  If every breaker is open the owner is used anyway
        (shedding everything would turn a partial outage into a total
        one).  Live operations route here by session name; an idle
        fleet routes analyses exactly as this does.
        """
        ranked = self._ranked(route)
        owner = ranked[0]
        for shard in ranked:
            if shard.breaker.allows():
                if shard is not owner:
                    self._divert(owner)
                return shard
        return owner

    def _least_loaded(self, route: str) -> _Shard:
        """The analysis route: fewest requests in flight, ties in rendezvous order.

        Only serving shards whose breaker admits traffic qualify; when
        every one of them is at the queue limit this raises
        :class:`Overloaded`.  A shard whose worker is being re-forked is
        skipped: with nothing in flight it would look least loaded and
        fail every request sent to it until its breaker opened.
        Breakers are asked in that order and only until one says yes,
        because a yes from a half-open breaker grants its single probe:
        asking a shard the request is not then sent to would strand the
        probe and keep the shard out of rotation.  A no has no side
        effect.  With no serving shard admitting traffic, the route falls
        back to :meth:`_shard_for`.
        """
        ranked = self._ranked(route)
        refused: Optional[_Shard] = None
        for shard in sorted(ranked, key=lambda shard: shard.outstanding):
            if not shard.ready:
                continue
            if shard.outstanding >= self._shard_queue_limit:
                # Every shard left is at least as loaded.
                full = all(
                    other.outstanding >= self._shard_queue_limit for other in self._shards
                )
                scope = "all shards are" if full else "every shard admitting traffic is"
                raise self._overloaded(ranked[0], scope)
            if shard.breaker.allows():
                if refused is not None:
                    self._divert(refused)
                return shard
            refused = refused or shard
        return self._shard_for(route)  # no serving shard admits traffic

    def _divert(self, shard: _Shard) -> None:
        """Count a request routed to ``shard`` that its breaker turned away."""
        shard.diverted += 1
        self._diverted += 1

    # -- control operations -------------------------------------------------------
    async def _control(self, request: AuditRequest) -> Dict[str, Any]:
        if request.op == "ping":
            return ok_response(
                request.id,
                "ping",
                {
                    "pong": True,
                    "version": PROTOCOL_VERSION,
                    "fleet": {"workers": len(self._shards)},
                },
            )
        if request.op == "stats":
            return await self._fleet_stats(request)
        if request.op == "metrics":
            return await self._fleet_metrics(request)
        # shutdown: acknowledge, then drain-then-stop via serve_until_stopped.
        self.request_stop()
        return ok_response(
            request.id, "shutdown", {"stopping": True, "workers": len(self._shards)}
        )

    # -- the executor: forwarding to a shard --------------------------------------
    def _admit(self, request: AuditRequest, key: Optional[str]) -> _Shard:
        """Route one request and count it against its shard until :meth:`_release`.

        Counting from admission, not from the forward, keeps a burst
        admitted within one loop turn from piling onto one shard.
        """
        if request.is_live:
            # Live operations route by session name (see routing_key).
            shard = self._shard_for(fingerprint(routing_key(request)))
            if shard.outstanding >= self._shard_queue_limit:
                raise self._overloaded(shard, f"shard {shard.index} is")
        else:
            shard = self._least_loaded(key)
        shard.outstanding += 1
        return shard

    def _release(self, shard: _Shard) -> None:
        shard.outstanding -= 1

    def _overloaded(self, shard: _Shard, scope: str) -> Overloaded:
        """The shed error of a request ``shard`` owns (``scope`` says what is full)."""
        shard.shed += 1
        loads = ", ".join(f"shard {other.index}: {other.outstanding}" for other in self._shards)
        return Overloaded(
            f"{scope} saturated ({loads} in flight, limit {self._shard_queue_limit} "
            "per shard); retry later"
        )

    async def _execute(self, request: AuditRequest, raw: bytes, shard: _Shard) -> Core:
        # The shard's breaker hears how every forward's transport fared
        # when it lands, whether or not a client still awaits it.
        try:
            if request.op == "subscribe":
                core = await self._subscribe_upstream(shard, raw)
            else:
                core = await self._forward_request(request, raw, shard)
        except ReproError:
            shard.breaker.record_failure()
            raise
        shard.breaker.record_success()
        return core

    async def _forward_request(self, request: AuditRequest, raw: bytes, shard: _Shard) -> Core:
        """Forward one request line and graft the worker's trace subtree."""
        # The forwarded copy drops the deadline (this tier alone enforces
        # it, so an expired forward still lands) and, with a trace,
        # carries the context the worker opens its subtree under.
        trace = current_trace()
        document: Optional[Dict[str, Any]] = None
        if request.deadline_ms is not None or trace is not None:
            document = json.loads(raw)
            document.pop("deadline_ms", None)
        for rule in faults.fire("router.forward", op=request.op):
            if rule.action == "delay":
                await asyncio.sleep(rule.delay)
            elif rule.action == "error":
                raise ReproError(rule.message or "injected fault at router.forward")
        forward_span: Optional[Span] = None
        with span("router.forward") as fwd:
            if isinstance(fwd, Span):
                forward_span = fwd
                fwd.set("shard", shard.index)
            if trace is not None and document is not None:
                # A parent marks the worker's tree as a hop of this one:
                # the worker returns it and records nothing.
                document["trace"] = {
                    "id": trace.trace_id,
                    "parent": (forward_span or trace.root).span_id,
                    "return": True,
                }
            if document is not None:
                raw = encode_message(document)
            response = await self._forward(shard, raw)
        core = self._core_of(shard, response)
        worker_trace = core.get("server", {}).pop("trace", None)
        if trace is not None and isinstance(worker_trace, Mapping):
            # The worker answers with a whole trace document, failed
            # answers included; its root span subtree is what grafts
            # under the forward span (links/dropped ride along as attrs).
            subtree = worker_trace.get("root")
            if isinstance(subtree, Mapping):
                subtree = dict(subtree)
                for extra in ("links", "dropped"):
                    value = worker_trace.get(extra)
                    if value:
                        subtree["attrs"] = {**(subtree.get("attrs") or {}), extra: value}
                trace.attach_child_doc(forward_span, subtree)
        return core

    @staticmethod
    def _core_of(shard: _Shard, response: Mapping[str, Any]) -> Core:
        """A worker response as a core tagged with its shard."""
        core = {key: response[key] for key in ("ok", "result", "error") if key in response}
        server = response.get("server")
        if isinstance(server, Mapping):
            core["server"] = dict(server)
        core["shard"] = shard.index
        return core

    def _failure_of(self, request: AuditRequest, error: Exception) -> Core:
        if not isinstance(error, ReproError):
            return failure(ERROR_INTERNAL, f"{type(error).__name__}: {error}")
        if request.is_live_mutation:
            # A lost delta is NOT safe to retry blindly: the worker may
            # have applied it before crashing, and the restarted worker
            # has lost the session either way.
            return failure(
                ERROR_WORKER_CRASHED,
                f"{error}; the live session {request.live!r} must be recreated",
                retryable=False,
            )
        return failure(ERROR_WORKER_CRASHED, f"{error}; the request is safe to retry")

    async def _subscribe_upstream(self, shard: _Shard, raw: bytes) -> Core:
        """Open a dedicated worker connection for a notification stream.

        Pooled connections are strictly one-line-in-one-line-out; a
        subscription pushes unsolicited lines, so it gets its own
        upstream connection for as long as the client stays.
        """
        try:
            reader, writer = await self._connect(shard)
        except OSError as error:
            raise ReproError(f"cannot reach worker {shard.index}: {error}") from error
        try:
            writer.write(raw)
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=30.0)
            if not line:
                raise ReproError(f"worker {shard.index} closed the connection")
            core = self._core_of(shard, json.loads(line))
        except (OSError, ValueError, asyncio.TimeoutError, ReproError) as error:
            writer.close()
            raise ReproError(f"subscribe failed on worker {shard.index}: {error}") from error
        if not core.get("ok"):
            writer.close()
            return core
        shard.forwarded += 1
        core["stream"] = (functools.partial(self._relay, reader, writer), writer.close)
        return core

    async def _relay(
        self,
        upstream: asyncio.StreamReader,
        upstream_writer: asyncio.StreamWriter,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Pump a worker's notification lines to the subscribed client."""
        self._live_relays += 1
        try:
            await pump(upstream.readline, reader, writer)
        finally:
            self._live_relays -= 1
            upstream_writer.close()

    # -- fleet stats -------------------------------------------------------------
    async def _gather_stats(self) -> List[Any]:
        """Every worker's ``stats`` payload, or the exception raised in its place.

        A dead or unreachable shard contributes its exception, which
        marks the fleet's answer ``partial`` instead of failing it.
        """
        line = encode_message({"id": _ROUTER_ID, "op": "stats"})

        async def ask(shard: _Shard) -> Dict[str, Any]:
            response = await asyncio.wait_for(self._forward(shard, line), timeout=15.0)
            if not response.get("ok"):
                raise ReproError(f"worker {shard.index} stats failed: {response!r}")
            return response.get("result") or {}

        return await asyncio.gather(
            *(ask(shard) for shard in self._shards), return_exceptions=True
        )

    async def _fleet_stats(self, request: AuditRequest) -> Dict[str, Any]:
        payloads = await self._gather_stats()
        document: Dict[str, Any] = {**self._metrics.snapshot(), **self._table_stats()}
        shards_doc = []
        for shard, payload in zip(self._shards, payloads):
            process = shard.process
            entry: Dict[str, Any] = {
                "shard": shard.index,
                "pid": process.pid if process is not None else None,
                "alive": bool(process is not None and process.is_alive()),
                "restarts": shard.restarts,
                "outstanding": shard.outstanding,
                "queue_limit": self._shard_queue_limit,
                "forwarded": shard.forwarded,
                "shed": shard.shed,
                "connections": shard.created,
                "health": shard.breaker.state,
                "breaker": shard.breaker.stats(),
                "diverted": shard.diverted,
            }
            if isinstance(payload, dict):
                entry["worker"] = {
                    key: payload[key]
                    for key in (
                        "pending",
                        "workers",
                        "connections",
                        "query_evaluation",
                        "crit_cache",
                        "faults",
                        "live",
                    )
                    if key in payload
                }
                entry["sessions"] = payload.get("sessions", [])
            else:
                entry["error"] = str(payload)
                document["partial"] = True
            shards_doc.append(entry)
        document["fleet"] = {
            "workers": len(self._shards),
            "routing": "least-outstanding/rendezvous-ties",
            "shard_queue_limit": self._shard_queue_limit,
            "connections_per_worker": self._connections_per_worker,
            "active_requests": self._active,
            "diverted": self._diverted,
            "live_relays": self._live_relays,
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "coalescer": self._table.stats(),
            "shards": shards_doc,
        }
        fault_stats = faults.stats()
        if fault_stats is not None:
            document["fleet"]["faults"] = fault_stats
        return ok_response(request.id, "stats", document)

    async def _fleet_metrics(self, request: AuditRequest) -> Dict[str, Any]:
        """The router's record as Prometheus text, with the workers' gauges summed."""
        payloads = await self._gather_stats()
        gauges: Dict[str, Any] = {
            "fleet_workers": len(self._shards),
            "active_requests": self._active,
        }
        result: Dict[str, Any] = {"content_type": CONTENT_TYPE}
        for payload in payloads:
            if isinstance(payload, dict):
                for name, value in stats_gauges(payload).items():
                    gauges[name] = gauges.get(name, 0) + value
            else:
                result["partial"] = True
        gauges["result_cache_entries"] = len(self._table)  # workers cache nothing
        result["text"] = render_prometheus(self._metrics.snapshot(), gauges)
        return ok_response(request.id, "metrics", result)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------
def run_fleet(host: str = "127.0.0.1", port: int = 8765, *, announce=None, **options) -> None:
    """Run a fleet until ``shutdown`` / Ctrl-C (the CLI entry point)."""
    run_service(FleetServer(host, port, **options), announce)


class FleetThread(ServiceThread):
    """A fleet running on a background thread (tests, benchmarks, demos).

    Usage::

        with FleetThread(workers=2) as fleet:
            client = AuditServiceClient(*fleet.address)
    """

    factory = FleetServer
    start_timeout = 120.0
    thread_name = "repro-fleet-router"

    @property
    def fleet(self) -> FleetServer:
        """The wrapped :class:`FleetServer` (e.g. for ``worker_pids``)."""
        return self._service
