"""The program's layers as the benchmark sees them, and the per-layer metrics.

Each layer key names one group of public functions of the program.  The
traced run wraps them (:func:`install`) before any server process forks,
so every process of the workload records spans for the same functions.
The groups are named after the modules:

===============  ============================================================
group            wrapped functions
===============  ============================================================
``service``      ``protocol.decode_message`` / ``parse_request``;
                 ``FleetCoalescer.claim/publish/lookup/abandon/forget``
``session``      ``AnalysisSession`` analyses; ``LiveAuditSession`` methods
``core``         ``CriticalityEngine.critical_tuples`` (every engine),
                 ``core.leakage._positive_leakage``,
                 ``verify_security_probabilistically``, ``independence_gap``
``probability``  ``ProbabilityKernel.joint_distribution`` (behind
                 ``joint_answer_distribution``) and ``.joint_probability``
                 (behind ``.probability``)
``cq``           ``cq.evaluation.evaluate``, ``delta_apply``,
                 ``delta_apply_many``
``relational``   ``Instance.add/remove/index``
===============  ============================================================
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from perfbench.tracer import WRAPPED_MARK, Tracer, unattributed_share

#: ``(key, group, targets)``; a target is ``"module:function"`` or
#: ``"module:Class.method"``.
LAYERS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("service.decode", "service", (
        "repro.service.protocol:decode_message",
        "repro.service.protocol:parse_request",
    )),
    ("service.coalesce", "service", tuple(
        f"repro.service.coalesce:FleetCoalescer.{name}"
        for name in ("claim", "publish", "lookup", "abandon", "forget")
    )),
    *(
        (f"session.{method}", "session", (f"repro.session.session:AnalysisSession.{method}",))
        for method in (
            "decide", "verify", "leakage", "collusion", "with_knowledge",
            "quick_check", "audit_plan",
        )
    ),
    ("live.apply_delta", "session", ("repro.session.live:LiveAuditSession.apply_delta",)),
    ("live.verdicts", "session", (
        "repro.session.live:LiveAuditSession.verdicts",
        "repro.session.live:LiveAuditSession.snapshot",
    )),
    ("criticality", "core", ("repro.core.criticality.base:CriticalityEngine.critical_tuples",)),
    ("leakage", "core", ("repro.core.leakage:_positive_leakage",)),
    ("security.verify", "core", ("repro.core.security:verify_security_probabilistically",)),
    ("security.gap", "core", ("repro.core.security:independence_gap",)),
    ("kernel.distribution", "probability", (
        "repro.probability.kernel:ProbabilityKernel.joint_distribution",
    )),
    ("kernel.joint_probability", "probability", (
        "repro.probability.kernel:ProbabilityKernel.joint_probability",
    )),
    ("cq.evaluate", "cq", ("repro.cq.evaluation:evaluate",)),
    ("cq.delta", "cq", (
        "repro.cq.evaluation:delta_apply",
        "repro.cq.evaluation:delta_apply_many",
    )),
    ("instance.add", "relational", ("repro.relational.instance:Instance.add",)),
    ("instance.remove", "relational", ("repro.relational.instance:Instance.remove",)),
    ("instance.index", "relational", ("repro.relational.instance:Instance.index",)),
)

#: Modules imported before wrapping, so that every ``from x import f``
#: copy of a wrapped function already exists and is replaced too.
PRELOAD = (
    "repro.cli",
    "repro.service.fleet",
    "repro.service.server",
    "repro.session.live",
    "repro.audit.auditor",
    "repro.core.prior",
    "repro.core.encrypted",
    "repro.core.adversary",
    "repro.cq.containment",
    "repro.probability.events",
    "repro.probability.engine",
    "repro.session.engines",
)

_KERNEL_MEMOS = (
    ("distribution_hits", "distributions"),
    ("query_table_hits", "query_compilations"),
    ("event_bit_hits", "event_compilations"),
)


def _session_cache(result: Any) -> Mapping[str, float]:
    used = getattr(result, "cache_used", None)
    if used is None:
        return {}
    return {"crit_hits": used.hits, "crit_misses": used.misses}


def _kernel_memos(args) -> Mapping[str, float]:
    stats = args[0].stats
    return {
        "kernel_memo_hits": sum(stats[hit] for hit, _ in _KERNEL_MEMOS),
        "kernel_memo_misses": sum(stats[miss] for _, miss in _KERNEL_MEMOS),
    }


def _live_memos(result: Any) -> Mapping[str, float]:
    return {
        "live_retained": result.get("retained", 0),
        "live_reaudited": len(result.get("reaudited", ())),
    }


def _counting_options(key: str) -> Dict[str, Callable]:
    if key.startswith("session."):
        return {"count_result": _session_cache}
    if key.startswith("kernel."):
        return {"count_delta": _kernel_memos}
    if key == "live.apply_delta":
        return {"count_result": _live_memos}
    return {}


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def _owners(target: str) -> List[Tuple[Any, str, Callable]]:
    """Every ``(owner, attribute, original)`` slot holding the target.

    A method is replaced on its class and on every subclass that
    overrides it; a module function on its module and on every loaded
    ``repro`` module that imported it by name.
    """
    owner, attribute = _resolve(target)
    original = getattr(owner, attribute)
    if isinstance(owner, type):
        slots = [(owner, attribute, original)]
        pending = list(owner.__subclasses__())
        while pending:
            subclass = pending.pop()
            pending.extend(subclass.__subclasses__())
            if attribute in vars(subclass):
                slots.append((subclass, attribute, vars(subclass)[attribute]))
        return slots
    return [
        (module, name, original)
        for module_name, module in list(sys.modules.items())
        if module_name.split(".")[0] == "repro" and module is not None
        for name, value in list(vars(module).items())
        if value is original
    ]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer function; returns a function that undoes it."""
    for module_name in PRELOAD:
        importlib.import_module(module_name)
    replaced: List[Tuple[Any, str, Callable]] = []
    for key, group, targets in LAYERS:
        options = _counting_options(key)
        for target in targets:
            for owner, attribute, original in _owners(target):
                setattr(owner, attribute, tracer.wrap(original, key, group, **options))
                replaced.append((owner, attribute, original))

    def uninstall() -> None:
        for owner, attribute, original in reversed(replaced):
            setattr(owner, attribute, original)

    return uninstall


def wrapped_targets() -> List[str]:
    """Targets currently replaced by a wrapper (empty when untraced)."""
    found = []
    for _, _, targets in LAYERS:
        for target in targets:
            owner, attribute = _resolve(target)
            if hasattr(getattr(owner, attribute), WRAPPED_MARK):
                found.append(target)
    return found


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------
#: ``name → unit`` of every per-layer metric, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "service.outside_session_ms": "ms",
    "service.cpu_ms_per_op": "ms",
    "service.decode.calls_per_op": "count",
    "service.decode.ms_per_op": "ms",
    "service.coalesce.calls_per_op": "count",
    "service.coalesce.ms_per_op": "ms",
    "service.cached_share": "ratio",
    "service.coalesced_share": "ratio",
    **{
        f"session.{method}.{measure}": unit
        for method in (
            "decide", "verify", "leakage", "collusion", "with_knowledge",
            "quick_check", "audit_plan",
        )
        for measure, unit in (("calls", "count"), ("self_ms", "ms"))
    },
    "session.crit_cache.hit_ratio": "ratio",
    "criticality.calls_per_op": "count",
    "criticality.self_ms_per_op": "ms",
    "leakage.self_ms_per_op": "ms",
    "security.verify.self_ms_per_op": "ms",
    "security.gap.self_ms_per_op": "ms",
    "kernel.distribution.calls_per_op": "count",
    "kernel.distribution.self_ms_per_op": "ms",
    "kernel.joint_probability.calls_per_op": "count",
    "kernel.joint_probability.self_ms_per_op": "ms",
    "kernel.memo_hit_ratio": "ratio",
    "cq.evaluate.calls_per_op": "count",
    "cq.evaluate.self_ms_per_op": "ms",
    "cq.delta.calls_per_op": "count",
    "cq.delta.self_ms_per_op": "ms",
    "instance.add.calls_per_op": "count",
    "instance.add.self_ms_per_op": "ms",
    "instance.remove.calls_per_op": "count",
    "instance.remove.self_ms_per_op": "ms",
    "instance.index.calls_per_op": "count",
    "instance.index.self_ms_per_op": "ms",
    "live.apply_delta.self_ms_per_op": "ms",
    "live.verdicts.self_ms_per_op": "ms",
    "live.memos_retained_share": "ratio",
    "error_share": "ratio",
    "unattributed_share": "ratio",
    "tracing_overhead": "ratio",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(
    record: Mapping[str, Any],
    *,
    ops: int,
    latency_sum_s: float,
    window: Tuple[float, float],
    benchmark_intervals: Sequence[Tuple[float, float]] = (),
    server_cpu_s: float,
    cached: int,
    coalesced: int,
    errors: int,
    attempted: int,
    traced_throughput: float,
    untraced_throughput: float,
) -> Dict[str, float]:
    """Every per-layer metric from a merged trace record and client figures.

    ``ops`` normalises the per-op figures; ``latency_sum_s`` is the sum
    of client-side op latencies over the traced window;
    ``benchmark_intervals`` are left out of ``unattributed_share``.
    """
    layers = record["layers"]
    counters = record["counters"]

    def calls(key: str) -> float:
        return _ratio(layers.get(key, (0, 0.0, 0.0))[0], ops)

    def self_ms(key: str) -> float:
        return _ratio(layers.get(key, (0, 0.0, 0.0))[2] * 1000.0, ops)

    session_s = record["groups"].get("session", 0.0)
    metrics: Dict[str, float] = {
        "service.outside_session_ms": _ratio((latency_sum_s - session_s) * 1000.0, ops),
        "service.cpu_ms_per_op": _ratio(server_cpu_s * 1000.0, ops),
        "service.decode.calls_per_op": calls("service.decode"),
        "service.decode.ms_per_op": self_ms("service.decode"),
        "service.coalesce.calls_per_op": calls("service.coalesce"),
        "service.coalesce.ms_per_op": self_ms("service.coalesce"),
        "service.cached_share": _ratio(cached, ops),
        "service.coalesced_share": _ratio(coalesced, ops),
    }
    for method in (
        "decide", "verify", "leakage", "collusion", "with_knowledge",
        "quick_check", "audit_plan",
    ):
        metrics[f"session.{method}.calls"] = calls(f"session.{method}")
        metrics[f"session.{method}.self_ms"] = self_ms(f"session.{method}")
    metrics["session.crit_cache.hit_ratio"] = _ratio(
        counters.get("crit_hits", 0),
        counters.get("crit_hits", 0) + counters.get("crit_misses", 0),
    )
    metrics["criticality.calls_per_op"] = calls("criticality")
    metrics["criticality.self_ms_per_op"] = self_ms("criticality")
    metrics["leakage.self_ms_per_op"] = self_ms("leakage")
    metrics["security.verify.self_ms_per_op"] = self_ms("security.verify")
    metrics["security.gap.self_ms_per_op"] = self_ms("security.gap")
    for key in ("kernel.distribution", "kernel.joint_probability", "cq.evaluate", "cq.delta"):
        metrics[f"{key}.calls_per_op"] = calls(key)
        metrics[f"{key}.self_ms_per_op"] = self_ms(key)
    metrics["kernel.memo_hit_ratio"] = _ratio(
        counters.get("kernel_memo_hits", 0),
        counters.get("kernel_memo_hits", 0) + counters.get("kernel_memo_misses", 0),
    )
    for key in ("instance.add", "instance.remove", "instance.index"):
        metrics[f"{key}.calls_per_op"] = calls(key)
        metrics[f"{key}.self_ms_per_op"] = self_ms(key)
    metrics["live.apply_delta.self_ms_per_op"] = self_ms("live.apply_delta")
    metrics["live.verdicts.self_ms_per_op"] = self_ms("live.verdicts")
    metrics["live.memos_retained_share"] = _ratio(
        counters.get("live_retained", 0),
        counters.get("live_retained", 0) + counters.get("live_reaudited", 0),
    )
    metrics["error_share"] = _ratio(errors, attempted)
    metrics["unattributed_share"] = unattributed_share(
        record["intervals"], *window, excluded=benchmark_intervals
    )
    metrics["tracing_overhead"] = _ratio(traced_throughput, untraced_throughput)
    if set(metrics) != set(PER_LAYER_UNITS):
        raise RuntimeError("per-layer metrics and PER_LAYER_UNITS disagree")
    return {name: metrics[name] for name in PER_LAYER_UNITS}
