"""One request pipeline for the audit daemon and the fleet router.

:class:`~repro.service.server.AuditServer` (one process, a thread pool)
and :class:`~repro.service.fleet.FleetServer` (a router in front of
forked worker processes) answer every analysis and live request through
the same steps: fingerprint → result-cache lookup → follow an in-flight
twin → admission and shedding → execute → publish or abandon → respond.
Only *execute*, and the admission test guarding it, differ: the daemon
runs the request on its thread pool, the router forwards it to a shard.

An analysis answer is a pure function of the request, so the table
keys it by :func:`~repro.service.protocol.request_key`.  Live requests
are never fingerprinted: their answers describe one state of a mutable
session, so they are neither coalesced nor cached.

The tier that answers the client is the only one that enforces the
request's ``deadline_ms``.  An execution past it is not cancelled: it
runs on, holds its slot and keeps its claim in flight until it lands.
Its twins and retries meanwhile follow it, each within its own budget,
and the landed answer resolves the claim: an ok one is published into
this tier's table, so one fingerprint is computed once at a time.
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import functools
import hashlib
import threading
import time
from typing import Any, Awaitable, Callable, Dict, Mapping, Optional, Tuple

from ..exceptions import ReproError
from ..obs import (
    TRACES,
    SlowLog,
    current_trace,
    slow_log_from_env,
    span,
    start_trace,
)
from . import faults
from .coalesce import Core, FleetCoalescer
from .metrics import ServiceMetrics
from .protocol import (
    ERROR_DEADLINE_EXCEEDED,
    ERROR_INTERNAL,
    ERROR_OVERLOADED,
    ERROR_PAYLOAD_TOO_LARGE,
    OPERATIONS,
    AuditRequest,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    parse_request,
    request_key,
)

__all__ = [
    "Overloaded",
    "RequestPipeline",
    "ServiceThread",
    "failure",
    "fingerprint",
    "pump",
    "run_service",
]


class Overloaded(Exception):
    """Raised by admission: the executor is saturated (message names why)."""


def fingerprint(basis: str) -> str:
    """The table key of one fingerprint basis string."""
    return hashlib.sha256(basis.encode("utf8")).hexdigest()


def failure(code: str, message: str, retryable: Optional[bool] = None) -> Core:
    """A failed response core (``retryable`` defaults from the code)."""
    error: Dict[str, Any] = {"code": code, "message": message}
    if retryable is not None:
        error["retryable"] = retryable
    return {"ok": False, "error": error}


def _stopped() -> Core:
    """The core a claim's followers get when the server stops under its execution."""
    return failure(ERROR_INTERNAL, "the server stopped before answering")


def _outcome_of(core: Core) -> str:
    """The metrics outcome of a core this tier's table did not answer.

    An ok core is ``computed`` unless its ``server`` flags say the
    worker's table answered it (only a router's cores carry them); a
    failed core is named by its error code.
    """
    if core.get("ok"):
        server = core.get("server") or {}
        for hit in ("cached", "coalesced"):
            if server.get(hit):
                return hit
        return "computed"
    code = (core.get("error") or {}).get("code")
    return {ERROR_DEADLINE_EXCEEDED: "deadline", ERROR_OVERLOADED: "shed"}.get(code, "error")


async def pump(
    next_line: Callable[[], Awaitable[bytes]],
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Copy lines from ``next_line`` to a client until either side ends.

    This is a subscribed connection's notification stream: it ends when
    the client closes its side (EOF), the source returns ``b""`` (an
    upstream worker died or restarted), or the server stops.
    """
    eof = asyncio.ensure_future(reader.read(1))
    getter: Optional["asyncio.Future[bytes]"] = None
    try:
        while True:
            getter = asyncio.ensure_future(next_line())
            done, _ = await asyncio.wait({getter, eof}, return_when=asyncio.FIRST_COMPLETED)
            if eof in done:
                break
            line = getter.result()
            getter = None
            if not line:
                break
            writer.write(line)
            await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass
    finally:
        eof.cancel()
        if getter is not None:
            getter.cancel()


class RequestPipeline:
    """The shared front door: connections, requests, the table, the envelope.

    Subclasses supply the executor (:meth:`_admit`, :meth:`_execute`,
    :meth:`_failure_of`, and :meth:`_release` when a slot holds
    anything), the control operations (:meth:`_control`) and what a
    start acquires (:meth:`_open_executor`, :meth:`_close_executor`).
    """

    #: Root span of a traced request on this tier.
    root_span = "server.handle"
    #: Prefix of the extra envelope flag naming this tier's duplicate hits.
    hit_prefix = ""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_payload: int,
        stream_limit: int,
        result_cache_size: int,
        slow_ms: Optional[float],
        path: Optional[str] = None,
    ):
        self._host = host
        self._port = port
        self._max_payload = max_payload
        self._stream_limit = stream_limit
        self._path = path
        self._table = FleetCoalescer(result_cache_size)
        self._metrics = ServiceMetrics()
        self._slow_ms = slow_ms
        self._slow_log: SlowLog = SlowLog(slow_ms)
        #: Executions in flight on this tier (abandoned ones until they
        #: land) / requests being answered.
        self._pending = 0
        self._active = 0
        #: Executions let go of past their deadline: how many ever, and
        #: the ones still running (held here: the loop keeps tasks weakly).
        self._abandoned_total = 0
        self._abandoned: "set[asyncio.Future[Core]]" = set()
        self._connections = 0
        self._connection_tasks: "set[asyncio.Task]" = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Acquire the executor, bind, start accepting; returns the address."""
        if self._server is not None:
            raise ReproError("the service is already running")
        faults.install_from_env()
        self._slow_log = slow_log_from_env(self._slow_ms)
        self._stop_event = asyncio.Event()
        self._stopping = False
        try:
            await self._open_executor()
            await self._bind()
        except BaseException:
            await self._close_executor()
            raise
        return self.address

    async def _bind(self) -> None:
        """Start listening (on ``path`` if set); bind errors are one line."""
        try:
            if self._path is not None:
                self._server = await asyncio.start_unix_server(
                    self._on_connection, path=self._path, limit=self._stream_limit
                )
            else:
                self._server = await asyncio.start_server(
                    self._on_connection, self._host, self._port, limit=self._stream_limit
                )
        except OSError as error:
            where = self._path if self._path is not None else f"{self._host}:{self._port}"
            if error.errno == errno.EADDRINUSE:
                raise ReproError(
                    f"cannot bind {where}: address already in use "
                    "(is another daemon running on this port?)"
                ) from error
            raise ReproError(f"cannot bind {where}: {error.strerror or error}") from error

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — or ``(path, 0)`` on a unix socket."""
        if self._server is None or not self._server.sockets:
            raise ReproError("the server is not running")
        if self._path is not None:
            return self._path, 0
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    @property
    def metrics(self) -> ServiceMetrics:
        """The live metrics object."""
        return self._metrics

    def request_stop(self) -> None:
        """Ask :meth:`serve_until_stopped` to stop (loop thread)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_until_stopped(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`stop`) arrives."""
        if self._stop_event is None:
            raise ReproError("call start() first")
        await self._stop_event.wait()
        await self.stop()

    async def stop(self, drain_timeout: float = 60.0) -> None:
        """Drain-then-stop: stop accepting, answer every accepted request,
        release the executor, then drop idle and streaming connections."""
        if self._stopping and self._server is None:
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        give_up = loop.time() + drain_timeout
        while self._active and loop.time() < give_up:
            await asyncio.sleep(0.01)
        await self._close_executor()
        for task in list(self._connection_tasks):
            task.cancel()
        if self._connection_tasks:
            await asyncio.gather(*self._connection_tasks, return_exceptions=True)
        self.request_stop()

    async def _open_executor(self) -> None:
        """Acquire the executor (thread pool / worker processes)."""
        raise NotImplementedError  # pragma: no cover - every tier overrides

    async def _close_executor(self) -> None:
        """Release what :meth:`_open_executor` acquired (also after it failed)."""
        raise NotImplementedError  # pragma: no cover - every tier overrides

    # -- connections -------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # The line overran the stream buffer: the framing is
                    # lost, so answer once and drop only this connection.
                    self._metrics.observe("unknown", "error")
                    writer.write(encode_message(error_response(
                        None,
                        ERROR_PAYLOAD_TOO_LARGE,
                        "request line exceeded the stream buffer; connection closed",
                    )))
                    await writer.drain()
                    break
                if not line:
                    break
                # Counted until written, so a drain answers it in full.
                self._active += 1
                try:
                    response = await self._handle_line(line)
                    stream = response.pop("_stream", None)
                    dropped = False
                    for rule in faults.fire("server.respond", op=response.get("op")):
                        if rule.action == "drop":
                            dropped = True
                        elif rule.action == "delay":
                            await asyncio.sleep(rule.delay)
                    if dropped:
                        # Simulate a connection lost mid-response: close
                        # without answering (the client sees EOF and retries).
                        if stream is not None:
                            stream[1]()
                        break
                    writer.write(encode_message(response))
                    await writer.drain()
                finally:
                    self._active -= 1
                if stream is not None:
                    # The connection now belongs to a live session's
                    # notification stream: one line per mutation.
                    await stream[0](reader, writer)
                    break
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover - client vanished
            pass
        except asyncio.CancelledError:
            pass  # server shutdown; fall through to close the transport
        finally:
            self._connections -= 1
            if task is not None:
                self._connection_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handle_line(self, line: bytes) -> Dict[str, Any]:
        request_id = None
        op = "unknown"
        try:
            document = decode_message(line, self._max_payload)
            if isinstance(document, Mapping):
                candidate = document.get("id")
                if isinstance(candidate, (str, int, float)):
                    request_id = candidate
                # Attribute envelope errors to the named operation so the
                # per-op error counters stay meaningful.  The op may be
                # any JSON value here (an unhashable one must not kill
                # the connection); parse_request rejects non-strings.
                named = document.get("op")
                if isinstance(named, str) and named in OPERATIONS:
                    op = named
            request = parse_request(document)
        except ProtocolError as error:
            self._metrics.observe(op, "error")
            return error_response(request_id, error.code, str(error))
        if request.is_control:
            self._metrics.observe(request.op, "computed")
            if request.op == "traces":
                # Each tier records only the traces it opened (see _handle).
                return ok_response(request.id, "traces", TRACES.snapshot())
            return await self._control(request)
        return await self._handle(request, line)

    async def _control(self, request: AuditRequest) -> Dict[str, Any]:
        raise NotImplementedError  # pragma: no cover - every tier overrides

    # -- the pipeline ------------------------------------------------------------
    async def _handle(self, request: AuditRequest, raw: bytes) -> Dict[str, Any]:
        """The trace root around :meth:`_pipeline` (a no-op when untraced).

        The tier that opens a trace is its only keeper: it records the
        finished tree in :data:`~repro.obs.TRACES` and the slow log.  A
        ``parent`` comes from an upstream router, whose ``router.forward``
        span this tier's tree grafts under; that router records the
        whole request, so this tier records nothing and only returns its
        tree, on error envelopes too.
        """
        if not request.trace:
            return await self._pipeline(request, raw)
        spec = request.trace
        trace_id = spec.get("id")
        parent_id = spec.get("parent")
        opened_here = not isinstance(parent_id, str)
        with start_trace(
            self.root_span,
            trace_id=trace_id if isinstance(trace_id, str) else None,
            parent_id=None if opened_here else parent_id,
        ) as trace:
            trace.root.set("op", request.op)
            response = await self._pipeline(request, raw)
        document = trace.to_dict()
        if opened_here:
            TRACES.record(document)
            self._slow_log.maybe_log(document, op=request.op)
        response.setdefault("server", {})["trace"] = document
        return response

    def _deadline_of(self, request: AuditRequest, started: float) -> Optional[float]:
        """Absolute expiry (``perf_counter`` clock) of one request, if any.

        Live requests never expire: an abandoned half-applied delta
        would corrupt the session.
        """
        if request.is_live or request.deadline_ms is None:
            return None
        return started + request.deadline_ms / 1000.0

    @staticmethod
    def _expiry(request: AuditRequest, where: str) -> Core:
        return failure(
            ERROR_DEADLINE_EXCEEDED, f"deadline of {request.deadline_ms:g}ms exceeded {where}"
        )

    @staticmethod
    async def _await_within(awaitable: Awaitable[Any], deadline: Optional[float]) -> Any:
        """Await (shielded) until ``deadline``; raises ``TimeoutError``.

        Shielding matters twice over: an impatient follower must not
        cancel a computation its twins are awaiting, and an expiry must
        leave the execution running for :meth:`_abandon` to harvest.
        """
        if deadline is None:
            return await asyncio.shield(awaitable)
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise asyncio.TimeoutError
        return await asyncio.wait_for(asyncio.shield(awaitable), timeout=remaining)

    async def _pipeline(self, request: AuditRequest, raw: bytes) -> Dict[str, Any]:
        started = time.perf_counter()
        deadline = self._deadline_of(request, started)
        key = None if request.is_live else fingerprint(request_key(request))
        if key is not None:
            cached = self._table.lookup(key)
            if cached is not None:
                return self._duplicate(request, cached, started, "cached", "result-cache")
            leader = self._table.claim(key)
            if leader is not None:
                try:
                    with span("coalesce.follow"):
                        core = await self._await_within(leader, deadline)
                except asyncio.TimeoutError:
                    core = self._expiry(request, "while awaiting a twin computation")
                    return self._finish(request, core, started)
                return self._duplicate(request, core, started, "coalesced", "coalesced-leader")
        try:
            core = await self._run(request, raw, key, deadline)
        except BaseException:  # cancelled: the server is stopping
            self._resolve(key, _stopped())
            raise
        return self._finish(request, core, started)

    async def _run(
        self, request: AuditRequest, raw: bytes, key: Optional[str], deadline: Optional[float]
    ) -> Core:
        """Admit and execute an owned request; returns its core.

        The claim on ``key`` is resolved with that core, unless the
        execution outlives the deadline: the claim then stays in flight
        until :meth:`_reap_abandoned` resolves it with what lands.
        """
        try:
            slot = self._admit(request, key)
        except Overloaded as error:
            return self._resolve(key, failure(ERROR_OVERLOADED, str(error)))
        self._pending += 1
        work = asyncio.ensure_future(self._execute(request, raw, slot))
        # Registered first, so the slot is free before the awaiting
        # request resumes; an abandoned execution holds it until it lands.
        work.add_done_callback(functools.partial(self._landed, slot))
        try:
            core = await self._await_within(work, deadline)
        except asyncio.TimeoutError:
            self._abandon(request, key, work)
            return self._expiry(request, "mid-computation; the computation runs on")
        except Exception as error:  # noqa: BLE001 - the server must survive
            core = self._failure_of(request, error)
        trace = current_trace()
        if trace is not None:
            # Stamped before the table resolves the key, so coalesced
            # twins and later cache hits can link to this computation.
            core["trace_id"] = trace.trace_id
        return self._resolve(key, core)

    def _resolve(self, key: Optional[str], core: Core) -> Core:
        """Answer the claim on ``key`` (if any) with ``core``; returns it.

        An ok core is published (cached), a failed one only passed on,
        so the next request recomputes it.
        """
        if key is not None:
            if core.get("ok"):
                self._table.publish(key, core)
            else:
                self._table.abandon(key, core)
        return core

    def _landed(self, slot: Any, work: "asyncio.Future[Core]") -> None:
        """An execution finished, answered or abandoned: free its slot."""
        self._pending -= 1
        self._release(slot)

    def _abandon(
        self, request: AuditRequest, key: Optional[str], work: "asyncio.Future[Core]"
    ) -> None:
        """Let an execution past its deadline run on; harvest it when it lands."""
        self._abandoned_total += 1
        self._abandoned.add(work)
        work.add_done_callback(functools.partial(self._reap_abandoned, request, key))

    def _reap_abandoned(
        self, request: AuditRequest, key: Optional[str], work: "asyncio.Future[Core]"
    ) -> None:
        """An abandoned execution landed: resolve its claim with what it left."""
        self._abandoned.discard(work)
        if work.cancelled():
            self._resolve(key, _stopped())
        elif work.exception() is not None:
            self._resolve(key, self._failure_of(request, work.exception()))
        else:
            self._resolve(key, work.result())

    def _table_stats(self) -> Dict[str, Any]:
        """The ``stats`` entries of this tier's table and abandoned executions."""
        return {
            "result_cache_entries": len(self._table),
            "abandoned": {"total": self._abandoned_total, "running": len(self._abandoned)},
        }

    def _admit(self, request: AuditRequest, key: Optional[str]) -> Any:
        """Pick the execution slot, or raise :class:`Overloaded` (shed)."""
        raise NotImplementedError  # pragma: no cover - every tier overrides

    async def _execute(self, request: AuditRequest, raw: bytes, slot: Any) -> Core:
        """Run one admitted request; raises on failure (see :meth:`_failure_of`)."""
        raise NotImplementedError  # pragma: no cover - every tier overrides

    def _failure_of(self, request: AuditRequest, error: Exception) -> Core:
        """The failed core of an execution that raised ``error``."""
        raise NotImplementedError  # pragma: no cover - every tier overrides

    def _release(self, slot: Any) -> None:
        """Give back the slot :meth:`_admit` took, once its execution lands."""

    # -- responses ---------------------------------------------------------------
    def _duplicate(
        self, request: AuditRequest, core: Core, started: float, hit: str, relation: str
    ) -> Dict[str, Any]:
        """Answer from a twin's core, linking this trace to the twin's."""
        trace = current_trace()
        leader = core.get("trace_id")
        if trace is not None and isinstance(leader, str) and leader != trace.trace_id:
            trace.link(leader, relation)
        return self._finish(request, core, started, hit)

    def _finish(
        self, request: AuditRequest, core: Core, started: float, hit: Optional[str] = None
    ) -> Dict[str, Any]:
        """Record one answered request and build its response envelope.

        ``hit`` names this tier's table answering it (``cached`` or
        ``coalesced``); otherwise :func:`_outcome_of` reads the core.
        """
        elapsed = time.perf_counter() - started
        outcome = hit or _outcome_of(core)
        self._metrics.observe(request.op, outcome, None if outcome == "shed" else elapsed)
        if not core.get("ok"):
            error = core.get("error") or {}
            return error_response(
                request.id,
                error.get("code", ERROR_INTERNAL),
                error.get("message", "unknown server error"),
                retryable=error.get("retryable"),
            )
        server = dict(core.get("server", {}))
        if hit is not None:
            server[hit] = True
            if self.hit_prefix:
                server[self.hit_prefix + hit] = True
        if "shard" in core:
            server["shard"] = core["shard"]
        server["elapsed_ms"] = round(elapsed * 1000.0, 3)
        response = ok_response(request.id, request.op, core["result"], server)
        if "stream" in core:
            response["_stream"] = core["stream"]
        return response


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------
def run_service(
    service: RequestPipeline,
    announce: Optional[Callable[[Tuple[str, int]], None]] = None,
) -> None:
    """Run one service until ``shutdown`` / Ctrl-C (the entry points).

    ``announce`` is called, on the service's loop, with the bound
    ``(host, port)`` once the socket is listening.
    """

    async def _amain() -> None:
        bound = await service.start()
        if announce is not None:
            announce(bound)
        try:
            await service.serve_until_stopped()
        except asyncio.CancelledError:  # pragma: no cover - Ctrl-C path
            await service.stop()
            raise

    try:
        asyncio.run(_amain())
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass


class ServiceThread:
    """A service running on a background thread (tests, benchmarks, demos)."""

    #: The service class this runner boots, and how long it may take.
    factory: Callable[..., RequestPipeline]
    start_timeout = 30.0
    thread_name = "repro-audit-server"

    def __init__(self, host: str = "127.0.0.1", port: int = 0, **options):
        self._service = self.factory(host, port, **options)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._address: Optional[Tuple[str, int]] = None
        self._error: Optional[BaseException] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._address is None:
            raise ReproError("the service thread is not running")
        return self._address

    def start(self) -> "ServiceThread":
        """Boot the loop thread and wait until the socket is listening."""

        def _announce(address: Tuple[str, int]) -> None:
            self._loop = asyncio.get_running_loop()
            self._address = address
            self._started.set()

        def _run() -> None:
            try:
                run_service(self._service, _announce)
            except BaseException as error:  # noqa: BLE001 - reported by start()
                self._error = error
            self._started.set()

        self._thread = threading.Thread(target=_run, name=self.thread_name, daemon=True)
        self._thread.start()
        self._started.wait(timeout=self.start_timeout)
        if self._error is not None:
            raise ReproError(f"the service failed to start: {self._error}")
        if self._address is None:
            raise ReproError(f"the service did not come up within {self.start_timeout:g}s")
        return self

    def stop(self, timeout: float = 60) -> None:
        """Request a drain-then-stop and join the loop thread."""
        loop, thread = self._loop, self._thread
        if loop is not None and thread is not None and thread.is_alive():
            try:
                loop.call_soon_threadsafe(self._service.request_stop)
            except RuntimeError:
                pass  # the loop already stopped (e.g. a client sent shutdown)
            thread.join(timeout=timeout)
        self._thread = None

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
