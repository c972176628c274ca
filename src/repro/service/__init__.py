"""The disclosure-audit service: a network front door for the analyzer.

The library answers every disclosure question the paper poses (security
decisions, leakage, collusion, prior knowledge, per-dictionary
verification) through :class:`~repro.session.AnalysisSession`, but only
as an in-process call.  This package puts those analyses behind a small
JSON-lines-over-TCP daemon, the way practical disclosure-control
deployments front their engines with a query interface:

* :mod:`repro.service.protocol` — the wire format: one JSON document per
  line, typed request/response envelopes, structured error codes;
* :mod:`repro.service.pipeline` — the request pipeline both front doors
  share (its table is :mod:`repro.service.coalesce`);
* :mod:`repro.service.server` — the asyncio daemon: one shared
  :class:`~repro.session.AnalysisSession` per (schema, dictionary,
  verification engine) fingerprint, a bounded thread pool as the
  executor;
* :mod:`repro.service.client` — sync and asyncio clients;
* :mod:`repro.service.metrics` — per-operation counters and latency
  percentiles served through the ``stats`` operation; a fleet reports
  its router's, which counts each client request once;
* :mod:`repro.service.fleet` — the pre-forked multi-process fleet: a
  router whose pipeline table coalesces and caches fleet-wide, and whose
  executor forwards each remaining analysis to the least-loaded healthy
  worker process (ties by rendezvous hashing of the request
  fingerprint) and each live operation to the worker holding its
  session; plus worker supervision and fleet-wide stats.
  ``repro-audit serve --workers N`` (N ≥ 2) boots this instead of the
  single-process daemon;
* :mod:`repro.service.health` — the per-shard circuit breaker behind
  the fleet's graceful-degradation ladder (healthy → degraded →
  quarantined with half-open probing);
* :mod:`repro.service.faults` — the deterministic fault-injection
  harness (``REPRO_FAULT_PLAN``) the chaos tests drive.

Resilience: requests may carry a ``deadline_ms`` budget (expiry is a
structured ``deadline-exceeded`` error and overrunning computations are
abandoned, not leaked), and both clients take a :class:`RetryPolicy`
(seeded decorrelated-jitter backoff over retryable errors).  Cached
answers are keyed by the version of the state they describe, so a
``live-audit`` answer is never served once a delta or a re-created
session has replaced that state.

Quick start::

    from repro.service import AuditServer, AuditServiceClient, ServerThread

    with ServerThread() as server:
        with AuditServiceClient(*server.address) as client:
            response = client.request(
                "decide",
                schema={"relations": [...]},
                secret="S(n, p) :- Emp(n, d, p)",
                views=["V(n, d) :- Emp(n, d, p)"],
            )
            print(response["result"]["verdict"])
"""

from .client import AsyncAuditServiceClient, AuditServiceClient, RetryPolicy, ServiceError
from .coalesce import FleetCoalescer
from .faults import FaultPlan, FaultRule
from .fleet import FleetServer, FleetThread, run_fleet
from .health import CircuitBreaker
from .metrics import ServiceMetrics
from .protocol import (
    ANALYSIS_OPERATIONS,
    CONTROL_OPERATIONS,
    OPERATIONS,
    PROTOCOL_VERSION,
    AuditRequest,
    ProtocolError,
    parse_request,
    request_key,
)
from .server import AuditServer, ServerThread, run_server

__all__ = [
    "ANALYSIS_OPERATIONS",
    "CONTROL_OPERATIONS",
    "OPERATIONS",
    "PROTOCOL_VERSION",
    "AuditRequest",
    "AuditServer",
    "AuditServiceClient",
    "AsyncAuditServiceClient",
    "CircuitBreaker",
    "FaultPlan",
    "FaultRule",
    "FleetCoalescer",
    "FleetServer",
    "FleetThread",
    "ProtocolError",
    "RetryPolicy",
    "ServerThread",
    "ServiceError",
    "ServiceMetrics",
    "parse_request",
    "request_key",
    "run_fleet",
    "run_server",
]
