"""The audit fleet as the benchmark drives it: process control and load.

:class:`Fleet` starts ``perfbench/serve.py`` (``repro-audit serve
--workers 2``) in its own process tree, reads its resource usage from
``/proc`` and stops it.  :func:`closed_loop` is the load generator: a
fixed number of connections, each sending its next request only after
the previous reply, like ``repro-audit request`` and ``replay_workload``
callers.
"""

from __future__ import annotations

import contextlib
import gc
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: AF_UNIX socket paths are limited to 107 bytes and the fleet puts its
#: worker sockets at ``<tmp>/repro-fleet-XXXXXXXX/worker-N.sock``.  In a
#: checkout at a deeper path the fleet falls back to the system's
#: temporary directory.
_MAX_TMPDIR = 72


@dataclass
class LoopResult:
    """What a closed loop observed: one record per completed op."""

    start: float
    end: float
    #: ``(request index, latency seconds, summary)`` in completion order.
    records: List[Tuple[int, float, Any]] = field(default_factory=list)


def _read(path: str) -> Optional[str]:
    try:
        with open(path, encoding="utf8") as handle:
            return handle.read()
    except OSError:
        return None


class Fleet:
    """One running audit fleet (router process plus its forked workers)."""

    def __init__(self, scratch: Path, *, max_payload: Optional[int] = None,
                 trace_dir: Optional[Path] = None):
        self._scratch = scratch
        self._max_payload = max_payload
        self._trace_dir = trace_dir
        self.process: Optional[subprocess.Popen] = None
        self.address: Tuple[str, int] = ("127.0.0.1", 0)
        self._log_path = scratch / f"server-{time.monotonic_ns()}.log"

    # -- lifecycle ----------------------------------------------------------------
    def start(self, timeout: float = 60.0) -> None:
        """Boot the fleet and wait for its listening address."""
        command = [sys.executable, str(ROOT / "perfbench" / "serve.py")]
        if self._max_payload is not None:
            command += ["--max-payload", str(self._max_payload)]
        if self._trace_dir is not None:
            command += ["--trace-dir", str(self._trace_dir)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        tmp = self._scratch / "t"
        if len(str(tmp)) <= _MAX_TMPDIR:
            tmp.mkdir(parents=True, exist_ok=True)
            env["TMPDIR"] = str(tmp)
        with open(self._log_path, "w", encoding="utf8") as log:
            self.process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=str(ROOT)
            )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = _read(str(self._log_path)) or ""
            for line in text.splitlines():
                if "listening on" in line:
                    host, _, port = line.rsplit(" ", 1)[-1].rpartition(":")
                    self.address = (host, int(port))
                    return
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        log_text = _read(str(self._log_path)) or ""
        self.stop()
        raise RuntimeError(f"the audit fleet did not come up:\n{log_text}")

    def stop(self) -> None:
        """Shut the fleet down and wait until every process has ended."""
        if self.process is None:
            return
        workers = self.worker_pids()
        if self.process.poll() is None:
            from repro.service.client import AuditServiceClient

            try:
                with AuditServiceClient(*self.address, timeout=30.0) as client:
                    client.shutdown()
            except Exception:  # noqa: BLE001 - fall through to signals
                pass
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.terminate()
                try:
                    self.process.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        # Orphaned workers exit within a second of losing the router.
        deadline = time.monotonic() + 15.0
        while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        self.process = None

    # -- processes --------------------------------------------------------------------
    def worker_pids(self) -> List[int]:
        """The router's forked workers (same command line as the router)."""
        if self.process is None:
            return []
        router = self.process.pid
        command = _read_bytes(f"/proc/{router}/cmdline")
        found = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            stat = _read(f"/proc/{entry}/stat")
            if stat is None:
                continue
            fields = stat.rsplit(")", 1)[-1].split()
            if int(fields[1]) == router and _read_bytes(f"/proc/{entry}/cmdline") == command:
                found.append(int(entry))
        return sorted(found)

    def pids(self) -> List[int]:
        """Every process serving the workload: router first."""
        if self.process is None:
            return []
        return [self.process.pid, *self.worker_pids()]

    def cpu_seconds(self) -> float:
        """User plus system CPU time of every serving process so far."""
        ticks = os.sysconf("SC_CLK_TCK")
        total = 0
        for pid in self.pids():
            stat = _read(f"/proc/{pid}/stat")
            if stat is not None:
                fields = stat.rsplit(")", 1)[-1].split()
                total += int(fields[11]) + int(fields[12])
        return total / ticks

    def peak_rss_mb(self) -> float:
        """The largest peak resident set (``VmHWM``) of any serving process."""
        return max(peak_rss_mb(pid) for pid in self.pids())

    def signal_window(self, signum: int, marker: str, timeout: float = 30.0) -> None:
        """Send a trace-window signal to every process and await the file
        ``marker.format(pid=...)`` each writes in reply."""
        if self._trace_dir is None:
            raise RuntimeError("this fleet was started without span recording")
        pids = self.pids()
        for pid in pids:
            os.kill(pid, signum)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all((self._trace_dir / marker.format(pid=pid)).exists() for pid in pids):
                return
            time.sleep(0.01)
        raise RuntimeError(f"trace window signal {signum} not acknowledged by {pids}")


def _read_bytes(path: str) -> Optional[bytes]:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None


def _alive(pid: int) -> bool:
    return os.path.exists(f"/proc/{pid}")


def _status_mb(pid: int, field_name: str) -> float:
    for line in (_read(f"/proc/{pid}/status") or "").splitlines():
        if line.startswith(field_name + ":"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field_name} for process {pid}")


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of one process, in MiB."""
    return _status_mb(pid, "VmHWM")


def _resident_mb(pid: int) -> float:
    return _status_mb(pid, "VmRSS")


def closed_loop(
    address: Tuple[str, int],
    requests: Sequence[Dict[str, Any]],
    *,
    connections: int,
    seconds: Optional[float],
    summarize: Callable[[Optional[Dict[str, Any]]], Any],
) -> LoopResult:
    """Send ``requests`` in order over ``connections`` closed-loop clients.

    Stops taking new requests after ``seconds`` (``None``: send them
    all).  A transport failure is summarised as ``summarize(None)`` and
    the connection is reopened.  The load generator's own garbage
    collector is paused meanwhile (see :func:`client_gc_paused`).
    """
    from repro.exceptions import ReproError
    from repro.service.client import AuditServiceClient

    lock = threading.Lock()
    cursor = iter(enumerate(requests))
    result = LoopResult(start=time.perf_counter(), end=0.0)
    deadline = None if seconds is None else result.start + seconds

    def _client() -> None:
        client = AuditServiceClient(*address, timeout=120.0)
        try:
            while True:
                with lock:
                    if deadline is not None and time.perf_counter() >= deadline:
                        return
                    item = next(cursor, None)
                if item is None:
                    return
                index, document = item
                fields = {key: value for key, value in document.items() if key != "op"}
                started = time.perf_counter()
                try:
                    response: Optional[Dict[str, Any]] = client.request(document["op"], **fields)
                except (ReproError, OSError):
                    response = None
                    client.close()
                finished = time.perf_counter()
                summary = summarize(response)
                with lock:
                    result.records.append((index, finished - started, summary))
                    result.end = max(result.end, finished)
        finally:
            client.close()

    threads = [threading.Thread(target=_client, name=f"load-{i}") for i in range(connections)]
    with client_gc_paused():
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return result


@contextlib.contextmanager
def client_gc_paused():
    """Pause this (load-generating) process's garbage collector.

    The client holds every generated request; a full collection over
    them would stall it mid-window and land in the measured latencies.
    The program's own processes are untouched.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


class RssSampler:
    """The largest resident set among ``pids``, averaged over time.

    Use as a context manager around a measured window; samples
    ``VmRSS`` every ``interval`` seconds on a background thread.
    """

    def __init__(self, pids: Sequence[int], interval: float = 0.1):
        self._pids = list(pids)
        self._interval = interval
        self._samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="rss-sampler")

    def _run(self) -> None:
        while True:
            self._samples.append(max(_resident_mb(pid) for pid in self._pids))
            if self._stop.wait(self._interval):
                return

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def mean_mb(self) -> float:
        return sum(self._samples) / len(self._samples)
