"""Prometheus text-exposition rendering of the service metrics.

The ``metrics`` service operation answers with this module's output:
plain `text/plain; version=0.0.4` exposition — counters per (operation,
outcome), true cumulative histogram buckets per operation (maintained
by :class:`repro.service.metrics.ServiceMetrics`; a fleet renders its
router's), and point-in-time gauges (pending work, connections,
sessions, uptime).  Stdlib-only: the text format is simple enough that
a client library would be pure weight.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

__all__ = ["render_prometheus", "CONTENT_TYPE"]

#: The content type Prometheus scrapers expect for this output.
CONTENT_TYPE = "text/plain; version=0.0.4"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(labels: Mapping[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape(str(value))}"' for key, value in labels.items())
    return "{" + inner + "}"


def _number(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(
    stats: Mapping[str, Any],
    gauges: Optional[Mapping[str, Any]] = None,
    prefix: str = "repro",
) -> str:
    """Render one metrics document as Prometheus text exposition.

    ``stats`` is the document
    :meth:`repro.service.metrics.ServiceMetrics.snapshot` produces: an
    ``operations`` mapping with per-outcome counters and, when present,
    a ``histogram`` block of cumulative bucket counts.  ``gauges`` adds
    point-in-time values (``{"pending": 3, ...}``), each becoming
    ``<prefix>_<name>``.
    """
    lines: List[str] = []
    operations = stats.get("operations") or {}

    lines.append(f"# HELP {prefix}_requests_total Requests handled, by operation and outcome.")
    lines.append(f"# TYPE {prefix}_requests_total counter")
    for op in sorted(operations):
        entry = operations[op] or {}
        for outcome in sorted(k for k in entry if k not in ("requests", "latency_ms", "histogram")):
            count = entry[outcome]
            if isinstance(count, int):
                lines.append(
                    f"{prefix}_requests_total{_labels({'op': op, 'outcome': outcome})} {count}"
                )

    histogram_ops = [
        op for op in sorted(operations) if isinstance((operations[op] or {}).get("histogram"), Mapping)
    ]
    if histogram_ops:
        lines.append(
            f"# HELP {prefix}_request_duration_ms Request latency, cumulative histogram (milliseconds)."
        )
        lines.append(f"# TYPE {prefix}_request_duration_ms histogram")
        for op in histogram_ops:
            histogram = operations[op]["histogram"]
            buckets = histogram.get("buckets_ms") or {}
            total = histogram.get("count", 0)

            def _le_key(item):
                le = item[0]
                return float("inf") if le in ("+Inf", "inf") else float(le)

            for le, count in sorted(buckets.items(), key=_le_key):
                lines.append(
                    f"{prefix}_request_duration_ms_bucket{_labels({'op': op, 'le': le})} {count}"
                )
            lines.append(
                f"{prefix}_request_duration_ms_bucket{_labels({'op': op, 'le': '+Inf'})} {total}"
            )
            lines.append(
                f"{prefix}_request_duration_ms_sum{_labels({'op': op})} "
                f"{_number(histogram.get('sum_ms', 0.0))}"
            )
            lines.append(f"{prefix}_request_duration_ms_count{_labels({'op': op})} {total}")

    totals = stats.get("totals") or {}
    if isinstance(totals.get("requests"), int):
        lines.append(f"# HELP {prefix}_requests_handled_total Requests handled, all operations.")
        lines.append(f"# TYPE {prefix}_requests_handled_total counter")
        lines.append(f"{prefix}_requests_handled_total {totals['requests']}")

    if gauges:
        for name in sorted(gauges):
            value = gauges[name]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            lines.append(f"# TYPE {prefix}_{name} gauge")
            lines.append(f"{prefix}_{name} {_number(value)}")

    uptime = stats.get("uptime_seconds")
    if isinstance(uptime, (int, float)):
        lines.append(f"# TYPE {prefix}_uptime_seconds gauge")
        lines.append(f"{prefix}_uptime_seconds {_number(uptime)}")

    return "\n".join(lines) + "\n"
