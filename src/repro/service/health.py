"""Per-shard health tracking for the fleet router.

A stdlib circuit breaker with a three-rung degradation ladder:

``healthy``
    The shard takes its share of traffic: analyses by load (ties by
    rendezvous order), live sessions by name.

``degraded``
    ``degrade_after`` consecutive transport failures.  The shard still
    receives traffic (a single crash-restart cycle should not move its
    live sessions or cold-start every cache), but the state is surfaced
    in ``stats`` so operators see the first rung.

``quarantined``
    ``quarantine_after`` consecutive failures open the breaker: the
    router sends analyses to the other shards and the shard's live
    sessions to the next shard in rendezvous order.  After
    ``cooldown_seconds`` the breaker turns ``half-open`` and admits
    exactly one probe request; a success closes the breaker (back to
    ``healthy``), a failure re-opens it for another cooldown.  Granting
    the probe is a side effect of :meth:`CircuitBreaker.allows`, so the
    router asks only the shard it will then send the request to.

Failures are *transport-level* signals — a crashed worker, a refused
or wedged connection.  Structured analysis errors and deadline
expiries are the worker answering correctly and never trip the
breaker.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict

from ..exceptions import ReproError

__all__ = ["CircuitBreaker"]

STATE_HEALTHY = "healthy"
STATE_DEGRADED = "degraded"
STATE_QUARANTINED = "quarantined"
STATE_HALF_OPEN = "half-open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open probing.

    Thread-safe; the ``clock`` parameter (default
    :func:`time.monotonic`) is injectable so tests can drive the
    cooldown without sleeping.
    """

    def __init__(
        self,
        *,
        degrade_after: int = 1,
        quarantine_after: int = 3,
        cooldown_seconds: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if degrade_after < 1 or quarantine_after < degrade_after:
            raise ReproError(
                "need 1 <= degrade_after <= quarantine_after "
                f"(got {degrade_after}, {quarantine_after})"
            )
        if cooldown_seconds <= 0:
            raise ReproError("cooldown_seconds must be positive")
        self._degrade_after = degrade_after
        self._quarantine_after = quarantine_after
        self._cooldown = cooldown_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0  # consecutive
        self._opened_at: float = 0.0
        self._open = False
        self._probing = False
        self._stats = {"failures": 0, "successes": 0, "opened": 0, "probes": 0}

    # -- signal feeds -------------------------------------------------
    def record_success(self) -> None:
        """A request completed over transport (even with an error body)."""
        with self._lock:
            self._stats["successes"] += 1
            self._failures = 0
            self._open = False
            self._probing = False

    def record_failure(self) -> None:
        """A transport-level failure (crash, refused/wedged connection)."""
        with self._lock:
            self._stats["failures"] += 1
            self._failures += 1
            if self._probing:
                # The half-open probe failed: re-open for a fresh cooldown.
                self._probing = False
                self._open = True
                self._opened_at = self._clock()
                self._stats["opened"] += 1
            elif not self._open and self._failures >= self._quarantine_after:
                self._open = True
                self._opened_at = self._clock()
                self._stats["opened"] += 1

    # -- routing decisions --------------------------------------------
    def allows(self) -> bool:
        """May the router send this shard a request right now?

        Closed (healthy/degraded) breakers always allow.  Open breakers
        reject until the cooldown elapses, then admit exactly one probe
        at a time (half-open); further calls reject until that probe is
        resolved by :meth:`record_success` / :meth:`record_failure`.
        """
        with self._lock:
            if not self._open:
                return True
            if self._probing:
                return False
            if self._clock() - self._opened_at >= self._cooldown:
                self._probing = True
                self._stats["probes"] += 1
                return True
            return False

    @property
    def state(self) -> str:
        with self._lock:
            if self._open:
                if self._probing or self._clock() - self._opened_at >= self._cooldown:
                    return STATE_HALF_OPEN
                return STATE_QUARANTINED
            if self._failures >= self._degrade_after:
                return STATE_DEGRADED
            return STATE_HEALTHY

    def stats(self) -> Dict[str, Any]:
        state = self.state
        with self._lock:
            return {
                "state": state,
                "consecutive_failures": self._failures,
                **self._stats,
            }
