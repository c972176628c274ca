"""Tracing and telemetry for the audit service (stdlib-only).

The package has four parts:

* :mod:`repro.obs.trace` — trace contexts and span trees.  A trace is
  opened by the tier that first sees a traced request
  (:func:`start_trace`), propagated via the wire protocol's ``trace``
  envelope field, and instrumentation points call :func:`span` — which
  is a single module-global boolean check plus a shared null object
  when no trace is open.
* :mod:`repro.obs.buffer` — a bounded per-process buffer of finished
  traces with head+tail+slow sampling, which the ``traces`` service
  operation returns.  Only the tier that opened a trace records it, so
  a fleet's router holds one document per traced request.
* :mod:`repro.obs.slowlog` — the structured slow-request log (JSON
  lines naming the dominant span).
* :mod:`repro.obs.prom` / :mod:`repro.obs.counters` — Prometheus text
  exposition of the merged service metrics, and the thread-safe counter
  dict the engine statistics use.
* :mod:`repro.obs.render` — plain-text span waterfalls and the live
  ``repro-audit top`` view.
"""

from __future__ import annotations

from .buffer import TRACES, TraceBuffer
from .counters import StatCounters
from .prom import CONTENT_TYPE, render_prometheus
from .render import render_top, render_waterfall, span_names
from .slowlog import SLOW_LOG_ENV, SLOW_MS_ENV, SlowLog, slow_log_from_env
from .trace import (
    DEFAULT_SPAN_LIMIT,
    Span,
    Trace,
    current_span,
    current_trace,
    dominant_span,
    new_trace_id,
    record_span,
    span,
    start_trace,
    walk_spans,
)

__all__ = [
    "CONTENT_TYPE",
    "DEFAULT_SPAN_LIMIT",
    "SLOW_LOG_ENV",
    "SLOW_MS_ENV",
    "Span",
    "StatCounters",
    "SlowLog",
    "TRACES",
    "Trace",
    "TraceBuffer",
    "current_span",
    "current_trace",
    "dominant_span",
    "new_trace_id",
    "record_span",
    "render_prometheus",
    "render_top",
    "render_waterfall",
    "span_names",
    "slow_log_from_env",
    "span",
    "start_trace",
    "walk_spans",
]
