"""The pre-forked sharded audit fleet: a router in front of worker processes.

The single-process daemon (:class:`~repro.service.server.AuditServer`)
runs every analysis on one interpreter, so exact-kernel and crit_D
computations contend on one GIL no matter how many threads the pool
holds.  This module scales the service with *cores* instead:

* **Workers** are pre-forked OS processes, each running the unmodified
  :class:`AuditServer` core on a private unix domain socket — its own
  session pool, kernel memos, result cache and thread pool, untouched by
  any other worker.

* **The router** is the forwarding side of the shared request pipeline
  (:mod:`repro.service.pipeline`): it accepts the same JSON-lines-over-
  TCP protocol clients already speak, computes the request fingerprint
  (:func:`~repro.service.protocol.request_key` — which embeds the
  (schema, dictionary, eval-engine, criticality-engine) session
  fingerprint the server already derives) and routes each request to a
  fixed shard by **rendezvous hashing**.  A given question always lands
  on the same worker, so its session, kernel memos and cached result
  live exactly once — zero cross-process cache churn.  (Hashing the full
  request fingerprint rather than the bare session fingerprint is
  deliberate: whole workloads often share one schema and dictionary,
  and session-only routing would pin them all to a single shard.)

* **Fleet-wide coalescing**: every request passes through the one
  router, so its in-memory pipeline table
  (:class:`~repro.service.coalesce.FleetCoalescer`) makes a burst of N
  identical requests on different connections cost exactly one
  computation across the whole fleet.  Live operations route by session
  name to the worker holding the session and are never cached here:
  only that worker sees the session's version (and its eviction).

* **Fleet load shedding**: the router tracks per-shard queue depth
  (in-flight + waiting-for-a-pooled-connection) and answers with a
  structured ``overloaded`` error once a shard saturates, noting whether
  the whole fleet is saturated — bounded latency instead of collapse.

* **Supervision**: the router watches each worker's process sentinel,
  restarts crashed workers (same socket, same shard identity, so
  routing is unchanged), fails the crashed worker's in-flight requests
  with a retryable ``worker-crashed`` error, and *rewarms* the restarted
  worker by replaying its shard's most recent distinct requests so the
  session pool and caches repopulate before real traffic returns.

* **Aggregated stats**: a ``stats`` request returns fleet totals merged
  from every worker's mergeable metrics snapshot
  (:func:`~repro.service.metrics.merge_snapshots` — true percentiles
  over the union of latency reservoirs, not averages), per-shard queue
  depths, restart counts and the router's table state.

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
from collections import OrderedDict
from typing import Any, Awaitable, Dict, List, Mapping, Optional, Tuple

from ..exceptions import ReproError
from ..obs import (
    CONTENT_TYPE,
    TRACES,
    Span,
    current_trace,
    merge_trace_snapshots,
    render_prometheus,
    span,
)
from . import faults
from .coalesce import DEFAULT_CACHE_SIZE, Core
from .health import CircuitBreaker
from .metrics import merge_snapshots
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

#: Default number of recent distinct requests replayed to a restarted worker.
DEFAULT_REWARM_REQUESTS = 8

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
    # REPRO_FAULT_PLAN environment variable (spawn start methods).
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
        "warm",
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
        self.outstanding = 0
        self.forwarded = 0
        self.shed = 0
        self.restarts = 0
        #: fingerprint → raw request line, most recent last (rewarm source).
        self.warm: "OrderedDict[str, bytes]" = OrderedDict()
        #: Health ladder fed by transport outcomes (see repro.service.health).
        self.breaker = breaker
        #: Requests this shard owned but lost to rerouting while quarantined.
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
        Per-shard in-flight + waiting depth before the router sheds
        requests for that shard with an ``overloaded`` error.
    connections_per_worker:
        Pooled router→worker connections (each carries one request at a
        time, so this bounds per-worker concurrency).
    result_cache_size:
        Bound on the router's cached results *and* each worker's own
        result cache.
    rewarm_requests:
        Recent distinct requests replayed to a restarted worker.
    breaker_options:
        :class:`~repro.service.health.CircuitBreaker` keyword arguments
        applied to every shard (``degrade_after``, ``quarantine_after``,
        ``cooldown_seconds``).
    watchdog_seconds:
        Per-worker computation cap (see
        :class:`~repro.service.server.AuditServer`); ``None`` disables.
    start_method:
        ``multiprocessing`` start method (default: ``fork`` where
        available, else the platform default; override with the
        ``REPRO_FLEET_START_METHOD`` environment variable).
    worker_options:
        Extra :class:`AuditServer` keyword arguments for every worker
        (e.g. ``max_sessions``, ``session_cache_size``).
    """

    root_span = "router.route"
    hit_prefix = "fleet_"
    #: The worker enforces the deadline itself; the router lets go of a
    #: forward only once the worker has also missed this grace.
    execute_grace = 0.5
    counts_executions = False

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
        rewarm_requests: int = DEFAULT_REWARM_REQUESTS,
        breaker_options: Optional[Mapping[str, Any]] = None,
        watchdog_seconds: Optional[float] = None,
        slow_ms: Optional[float] = None,
        start_method: Optional[str] = None,
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
        self._rewarm_requests = max(0, rewarm_requests)
        self._breaker_options = dict(breaker_options or {})
        self._diverted = 0
        method = start_method or os.environ.get("REPRO_FLEET_START_METHOD")
        if method is None and "fork" in multiprocessing.get_all_start_methods():
            method = "fork"
        self._mp_context = (
            multiprocessing.get_context(method) if method else multiprocessing.get_context()
        )
        self._worker_options: Dict[str, Any] = {
            "workers": worker_threads,
            "queue_limit": max(2 * connections_per_worker, 16),
            "result_cache_size": result_cache_size,
            "max_payload": max_payload,
        }
        if watchdog_seconds is not None:
            self._worker_options["watchdog_seconds"] = watchdog_seconds
        if slow_ms is not None:
            self._worker_options["slow_ms"] = slow_ms
        if worker_options:
            self._worker_options.update(worker_options)

        self._shards: List[_Shard] = []
        self._live_relays = 0
        self._rewarmed = 0
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
        """Restart-on-crash: watch the sentinel, respawn, rewarm."""
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
                continue
            for raw in list(shard.warm.values()):
                loop.create_task(self._rewarm(shard, raw))

    async def _wait_exit(self, process: multiprocessing.process.BaseProcess) -> None:
        """Resolve when the process exits.

        The sentinel pipe is the prompt signal; a periodic ``is_alive``
        poll backs it up, because a grandchild the worker forked (e.g. a
        criticality process pool) inherits the sentinel's write end and
        can outlive a SIGKILLed worker for a moment, keeping the pipe
        open past the actual death.
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

    async def _rewarm(self, shard: _Shard, raw: bytes) -> None:
        """Replay one remembered request so the new worker's caches warm up."""
        with contextlib.suppress(Exception):
            await self._forward(shard, raw)
            self._rewarmed += 1

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

    def _release(self, shard: _Shard, connection: _Connection) -> None:
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
        shard.outstanding += 1
        try:
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
            self._release(shard, connection)
            shard.forwarded += 1
            try:
                return json.loads(line)
            except json.JSONDecodeError as error:  # pragma: no cover - defensive
                raise ReproError(
                    f"unparsable response from worker {shard.index}: {error}"
                ) from error
        finally:
            shard.outstanding -= 1

    # -- routing -----------------------------------------------------------------
    def _shard_for(self, fingerprint: str) -> _Shard:
        """Rendezvous hashing with health-aware fallback.

        The highest-scoring shard owns the key; when its circuit
        breaker is open (quarantined), the key falls to the next shard
        in rendezvous order — a stable reassignment, so a quarantined
        shard's fingerprints consistently land on one fallback instead
        of scattering.  If every breaker is open the primary is used
        anyway (shedding everything would turn a partial outage into a
        total one).
        """
        ranked = sorted(
            self._shards,
            key=lambda shard: hashlib.blake2b(
                f"{fingerprint}|{shard.index}".encode("ascii"), digest_size=8
            ).digest(),
            reverse=True,
        )
        primary = ranked[0]
        for shard in ranked:
            if shard.breaker.allows():
                if shard is not primary:
                    primary.diverted += 1
                    self._diverted += 1
                return shard
        return primary

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
        if request.op == "traces":
            return await self._fleet_traces(request)
        if request.op == "metrics":
            return await self._fleet_metrics(request)
        # shutdown: acknowledge, then drain-then-stop via serve_until_stopped.
        self.request_stop()
        return ok_response(
            request.id, "shutdown", {"stopping": True, "workers": len(self._shards)}
        )

    # -- the executor: forwarding to a shard --------------------------------------
    def _admit(self, request: AuditRequest, key: Optional[str]) -> _Shard:
        # Live operations route by session name (see routing_key).
        route = key if key is not None else fingerprint(routing_key(request))
        shard = self._shard_for(route)
        if shard.outstanding >= self._shard_queue_limit:
            fleet_saturated = all(
                other.outstanding >= self._shard_queue_limit for other in self._shards
            )
            shard.shed += 1
            scope = "all shards are" if fleet_saturated else f"shard {shard.index} is"
            raise Overloaded(
                f"{scope} saturated ({shard.outstanding} in flight, "
                f"limit {self._shard_queue_limit}); retry later"
            )
        return shard

    async def _execute(
        self,
        request: AuditRequest,
        raw: bytes,
        key: Optional[str],
        shard: _Shard,
        deadline: Optional[float],
    ) -> Core:
        if request.op == "subscribe":
            return await self._subscribe_upstream(shard, raw)
        # With a deadline, the forwarded copy carries only the *remaining*
        # budget (the worker enforces it); with a trace, the context the
        # worker opens its subtree under.
        trace = current_trace()
        forward_raw = warm_raw = raw
        document: Optional[Dict[str, Any]] = None
        if deadline is not None or trace is not None:
            document = json.loads(raw)
            # Rewarm replays must be undeadlined and untraced: a restarted
            # worker warms its caches, it does not re-answer anyone.
            document.pop("trace", None)
            document.pop("deadline_ms", None)
            warm_raw = encode_message(document)
            if deadline is not None:
                remaining_ms = max(1.0, (deadline - time.perf_counter()) * 1000.0)
                document["deadline_ms"] = round(remaining_ms, 3)
            forward_raw = encode_message(document)
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
                document["trace"] = {
                    "id": trace.trace_id,
                    "parent": forward_span.span_id if forward_span else None,
                    "return": True,
                }
                forward_raw = encode_message(document)
            response = await self._forward(shard, forward_raw)
        shard.breaker.record_success()
        core = self._core_of(shard, response)
        worker_trace = core.get("server", {}).pop("trace", None)
        if trace is not None and isinstance(worker_trace, Mapping):
            # The worker answers with a whole trace document; its root
            # span subtree is what grafts under the forward span
            # (links/dropped ride along as attrs).
            subtree = worker_trace.get("root")
            if isinstance(subtree, Mapping):
                subtree = dict(subtree)
                for extra in ("links", "dropped"):
                    value = worker_trace.get(extra)
                    if value:
                        subtree["attrs"] = {**(subtree.get("attrs") or {}), extra: value}
                trace.attach_child_doc(forward_span, subtree)
        if core.get("ok") and not request.is_live and self._rewarm_requests:
            shard.warm[key] = warm_raw
            shard.warm.move_to_end(key)
            while len(shard.warm) > self._rewarm_requests:
                shard.warm.popitem(last=False)
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

    def _abandon(self, key: Optional[str], work: "asyncio.Future[Core]", shard: _Shard) -> str:
        # The worker missed the deadline *and* the grace: cancelling the
        # forward discards its connection, so the router-side slot is
        # reclaimed even if the worker is wedged mid-computation.
        work.cancel()
        shard.breaker.record_failure()
        return f"awaiting worker {shard.index}"

    def _failure_of(self, request: AuditRequest, shard: _Shard, error: Exception) -> Core:
        if not isinstance(error, ReproError):
            return failure(ERROR_INTERNAL, f"{type(error).__name__}: {error}")
        shard.breaker.record_failure()
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
    async def _ask_workers(self, op: str, **options: Any) -> List[Any]:
        """One control operation on every worker: each result or exception."""

        async def ask(shard: _Shard) -> Dict[str, Any]:
            document = {"id": _ROUTER_ID, "op": op, "options": options}
            response = await asyncio.wait_for(
                self._forward(shard, encode_message(document)), timeout=15.0
            )
            if not response.get("ok"):
                raise ReproError(f"worker {shard.index} {op} failed: {response!r}")
            return response.get("result") or {}

        return await asyncio.gather(
            *(ask(shard) for shard in self._shards), return_exceptions=True
        )

    async def _fleet_stats(self, request: AuditRequest) -> Dict[str, Any]:
        payloads = await self._ask_workers("stats", mergeable=True)
        mergeables = [self._metrics.mergeable_snapshot()]
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
                mergeable = payload.pop("mergeable", None)
                if mergeable:
                    mergeables.append(mergeable)
                entry["worker"] = {
                    key: payload[key]
                    for key in (
                        "pending",
                        "workers",
                        "connections",
                        "result_cache_entries",
                        "abandoned",
                        "query_evaluation",
                        "faults",
                        "live",
                    )
                    if key in payload
                }
                entry["sessions"] = payload.get("sessions", [])
            elif isinstance(payload, BaseException):
                entry["error"] = str(payload)
                # A dead/unreachable shard contributes a malformed part;
                # merge_snapshots skips it and marks the merge partial.
                mergeables.append(None)
            shards_doc.append(entry)
        merged = merge_snapshots(mergeables)
        merged["fleet"] = {
            "workers": len(self._shards),
            "routing": "rendezvous/request-fingerprint",
            "shard_queue_limit": self._shard_queue_limit,
            "connections_per_worker": self._connections_per_worker,
            "active_requests": self._active,
            "rewarmed": self._rewarmed,
            "diverted": self._diverted,
            "live_relays": self._live_relays,
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "coalescer": self._table.stats(),
            "shards": shards_doc,
        }
        fault_stats = faults.stats()
        if fault_stats is not None:
            merged["fleet"]["faults"] = fault_stats
        return ok_response(request.id, "stats", merged)

    async def _fleet_traces(self, request: AuditRequest) -> Dict[str, Any]:
        """Merge every worker's trace-buffer snapshot with the router's."""
        payloads = await self._ask_workers("traces")
        parts: List[Any] = [TRACES.snapshot()]
        parts.extend(
            payload if isinstance(payload, Mapping) else None for payload in payloads
        )
        merged = merge_trace_snapshots(parts)
        merged["workers"] = len(self._shards)
        return ok_response(request.id, "traces", merged)

    async def _fleet_metrics(self, request: AuditRequest) -> Dict[str, Any]:
        """One Prometheus exposition over router + every worker's counters."""
        payloads = await self._ask_workers("metrics", mergeable=True)
        mergeables: List[Any] = [self._metrics.mergeable_snapshot()]
        gauges: Dict[str, Any] = {
            "fleet_workers": len(self._shards),
            "active_requests": self._active,
        }
        for payload in payloads:
            if not isinstance(payload, Mapping):
                mergeables.append(None)
                continue
            mergeables.append(payload.get("mergeable"))
            for name, value in (payload.get("gauges") or {}).items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    gauges[name] = gauges.get(name, 0) + value
        merged = merge_snapshots(mergeables)
        result: Dict[str, Any] = {
            "content_type": CONTENT_TYPE,
            "text": render_prometheus(merged, gauges),
        }
        if merged.get("partial"):
            result["partial"] = True
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
