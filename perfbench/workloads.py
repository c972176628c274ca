"""The four benchmark workloads: inputs, set-up, measurement and checks.

Every workload follows one protocol, driven by :mod:`perfbench.run`:

* ``prepare(seed)`` draws the inputs from the seed (untimed);
* ``setup(inputs, scratch, trace_dir)`` boots what serves the workload
  and runs the warm-up, whose inputs come from a different seed (timed:
  this is ``setup_s``);
* ``measure(state, seconds)`` runs ops for ``seconds`` and returns a
  :class:`Measurement`;
* ``check(inputs, measurement)`` compares outputs with an in-process
  reference outside the timed window and returns the wrong answers;
* ``guard(inputs, state, measurement)`` raises :class:`ShapeError` when
  the workload lost the shape it exists for;
* ``teardown(state)`` stops every process the workload started.

Tuple probabilities are ``k/1009`` with distinct numerators in
``[200, 800)`` (warm-up: ``k/1013``), so measured requests never
repeat a warm-up request and every exact computation works on numbers
of the same size whatever the seed.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench.service import Fleet, RssSampler, client_gc_paused, closed_loop, peak_rss_mb

#: Denominators of measured and warm-up tuple probabilities (primes).
DENOMINATOR = 1009
WARM_DENOMINATOR = 1013

#: Closed-loop connections of the analysis-traffic workloads.
CONNECTIONS = 2


class ShapeError(RuntimeError):
    """A workload no longer has the shape it exists to measure."""


@dataclass
class Measurement:
    """What one measured window produced."""

    start: float
    end: float
    #: Per-op latency in seconds, in completion order.
    latencies: List[float]
    attempted: int
    #: Ops that failed, were refused or timed out (wrong answers are
    #: added by the checks).
    failed: int
    cached: int = 0
    coalesced: int = 0
    #: Largest resident set of any serving process: its time average
    #: over the window, and its high-water mark since the process began.
    rss_mb: float = 0.0
    peak_rss_mb: float = 0.0
    server_cpu_s: float = 0.0
    #: Per-op latency corrected for host speed (see :func:`host_reference`),
    #: in the order of ``latencies``; ``None`` where no correction is made.
    corrected: Optional[List[float]] = None
    #: ``(start, end)`` of the benchmark's own work inside the window
    #: (reference loops): no program layer runs there.
    benchmark_intervals: List[Tuple[float, float]] = field(default_factory=list)
    #: Workload-specific facts for the report (op mix, sizes).
    details: Dict[str, Any] = field(default_factory=dict)
    #: Whatever ``check`` needs to compare outputs.
    outputs: Any = None

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def throughput(self) -> float:
        """Ops per second of the window, or per corrected second of op time."""
        if self.corrected is not None:
            return len(self.corrected) / sum(self.corrected)
        return self.ops / self.seconds


def probabilities(seed: int, count: int, denominator: int = DENOMINATOR) -> List[Fraction]:
    """``count`` distinct tuple probabilities drawn from the seed."""
    numerators = random.Random(seed).sample(range(200, 800), count)
    return [Fraction(k, denominator) for k in numerators]


def warm_seed(seed: int) -> int:
    """The warm-up seed that goes with a measurement seed."""
    return seed + 1_000_003


# ---------------------------------------------------------------------------
# Library references for analysis requests
# ---------------------------------------------------------------------------
def response_digest(response: Optional[Dict[str, Any]]) -> Tuple[Any, ...]:
    """The verdict-bearing fields of one analysis response.

    ``("error", code)`` for failures; otherwise the verdict, the exact
    leakage (``leakage``) and the per-pair verdicts (``plan``).
    """
    if response is None:
        return ("error", "transport")
    if not response.get("ok"):
        return ("error", (response.get("error") or {}).get("code"))
    result = response.get("result") or {}
    return (
        result.get("verdict"),
        (result.get("leakage") or {}).get("exact"),
        tuple(entry["secure"] for entry in result.get("entries", ())),
    )


def reference_digest(document: Dict[str, Any]) -> Tuple[Any, ...]:
    """:func:`response_digest` of a request, computed in-process."""
    from repro.audit.auditor import SecurityAuditor
    from repro.core.prior import KeyConstraintKnowledge
    from repro.io import dictionary_from_dict, schema_from_dict
    from repro.session import AnalysisSession, PublishingPlan

    schema = schema_from_dict(document["schema"])
    session = AnalysisSession(schema, dictionary=dictionary_from_dict(document["schema"], schema))
    op = document["op"]
    if op == "plan":
        result = session.audit_plan(
            PublishingPlan(secrets=document["secrets"], views=document["views"])
        )
        return (result.verdict, None, tuple(entry.secure for entry in result.entries))
    secret, views = document["secret"], document["views"]
    if op == "audit":
        report = SecurityAuditor(schema, session=session).audit(secret, views)
        return (report.all_secure, None, ())
    if op == "with_knowledge":
        keys = document["knowledge"]["keys"]
        knowledge = KeyConstraintKnowledge({name: tuple(p) for name, p in keys.items()})
        return (session.with_knowledge(secret, views, knowledge).verdict, None, ())
    if op == "leakage":
        result = session.leakage(secret, views)
        return (result.verdict, str(result.measurement.leakage), ())
    method = {"decide": "decide", "quick": "quick_check", "collusion": "collusion",
              "verify": "verify"}[op]
    return (getattr(session, method)(secret, views).verdict, None, ())


def _summarize(response: Optional[Dict[str, Any]]) -> Tuple[Any, ...]:
    """``(ok, cached, coalesced, digest)`` of one analysis response."""
    server = (response or {}).get("server") or {}
    return (
        bool(response and response.get("ok")),
        bool(server.get("cached") or server.get("fleet_cached")),
        bool(server.get("coalesced") or server.get("fleet_coalesced")),
        response_digest(response),
    )


def _request_key(document: Dict[str, Any]) -> str:
    return json.dumps(document, sort_keys=True)


# ---------------------------------------------------------------------------
# service-cold / service-hot: analysis traffic through the fleet
# ---------------------------------------------------------------------------
#: Rounds of the 29 Table 1 templates generated for ``service-cold``
#: (~3x what a 40-second window sends today) and for its warm-up.
COLD_ROUNDS = 600
COLD_WARM_ROUNDS = 4

#: Requests checked against the library reference per ``service-cold`` run.
COLD_CHECKED = 40

#: ``service-hot``: generated mix length (sent cyclically, ~4x what a
#: 20-second window sends today) and warm-up length.
HOT_MIX = 6000
HOT_WARM = 1000


def _template_rounds(probs: Sequence[Fraction], rng: random.Random) -> List[Dict[str, Any]]:
    from repro.workload import table1_templates

    requests: List[Dict[str, Any]] = []
    for probability in probs:
        round_ = table1_templates(str(probability))
        rng.shuffle(round_)
        requests.extend(round_)
    return requests


def prepare_cold(seed: int) -> Dict[str, Any]:
    warm = warm_seed(seed)
    return {
        "requests": _template_rounds(probabilities(seed, COLD_ROUNDS), random.Random(seed)),
        "warm": _template_rounds(
            probabilities(warm, COLD_WARM_ROUNDS, WARM_DENOMINATOR), random.Random(warm)
        ),
        "seed": seed,
    }


def prepare_hot(seed: int) -> Dict[str, Any]:
    from repro.workload import WorkloadSpec, generate_workload

    probability = str(probabilities(seed, 1)[0])
    mix = generate_workload(
        WorkloadSpec(seed=seed, requests=HOT_MIX, random_fraction=0.0, probability=probability)
    )
    warm = generate_workload(
        WorkloadSpec(
            seed=warm_seed(seed), requests=HOT_WARM, random_fraction=0.0, probability=probability
        )
    )
    return {"requests": mix * 100, "warm": warm, "seed": seed}


def setup_fleet(inputs, scratch: Path, trace_dir: Optional[Path]) -> Fleet:
    fleet = Fleet(scratch, trace_dir=trace_dir)
    fleet.start()
    try:
        warm = closed_loop(
            fleet.address, inputs["warm"], connections=CONNECTIONS, seconds=None,
            summarize=_summarize,
        )
    except BaseException:
        fleet.stop()
        raise
    if not all(summary[0] for _, _, summary in warm.records):
        fleet.stop()
        raise RuntimeError("warm-up requests failed")
    return fleet


def measure_fleet(fleet: Fleet, inputs, seconds: float) -> Measurement:
    cpu_before = fleet.cpu_seconds()
    with RssSampler(fleet.pids()) as rss:
        loop = closed_loop(
            fleet.address, inputs["requests"], connections=CONNECTIONS, seconds=seconds,
            summarize=_summarize,
        )
    cpu = fleet.cpu_seconds() - cpu_before
    ops: Dict[str, int] = {}
    for index, _, _ in loop.records:
        op = inputs["requests"][index]["op"]
        ops[op] = ops.get(op, 0) + 1
    return Measurement(
        start=loop.start,
        end=loop.end,
        latencies=[latency for _, latency, _ in loop.records],
        attempted=len(loop.records),
        failed=sum(1 for _, _, summary in loop.records if not summary[0]),
        cached=sum(1 for _, _, summary in loop.records if summary[1]),
        coalesced=sum(1 for _, _, summary in loop.records if summary[2]),
        rss_mb=rss.mean_mb,
        peak_rss_mb=fleet.peak_rss_mb(),
        server_cpu_s=cpu,
        details={"ops_by_type": ops, "connections": CONNECTIONS},
        outputs=loop.records,
    )


def check_cold(inputs, measurement: Measurement) -> List[str]:
    """A seeded sample of responses against the library reference."""
    records = [record for record in measurement.outputs if record[2][0]]
    rng = random.Random(inputs["seed"])
    sample = rng.sample(records, min(COLD_CHECKED, len(records)))
    wrong = []
    for index, _, summary in sample:
        document = inputs["requests"][index]
        expected = reference_digest(document)
        if summary[3] != expected:
            wrong.append(f"{document['op']} #{index}: got {summary[3]}, expected {expected}")
    measurement.details["checked"] = len(sample)
    return wrong


def check_hot(inputs, measurement: Measurement) -> List[str]:
    """Every response against the reference of its (distinct) request."""
    expected: Dict[str, Tuple[Any, ...]] = {}
    wrong = []
    for index, _, summary in measurement.outputs:
        if not summary[0]:
            continue
        document = inputs["requests"][index]
        key = _request_key(document)
        if key not in expected:
            expected[key] = reference_digest(document)
        if summary[3] != expected[key]:
            wrong.append(f"{document['op']} #{index}: got {summary[3]}, expected {expected[key]}")
    measurement.details["checked"] = measurement.ops
    measurement.details["distinct_requests"] = len(expected)
    return wrong


def guard_cold(inputs, state, measurement: Measurement) -> None:
    share = (measurement.cached + measurement.coalesced) / measurement.ops
    if share > 0.01:
        raise ShapeError(
            f"service-cold served {share:.2%} of its requests from a cache or "
            "coalescing (at most 1% allowed): it no longer measures compute"
        )


def guard_hot(inputs, state, measurement: Measurement) -> None:
    share = (measurement.cached + measurement.coalesced) / measurement.ops
    if share < 0.95:
        raise ShapeError(
            f"service-hot served only {share:.2%} of its requests from a cache or "
            "coalescing (at least 95% required): it no longer measures the pipeline"
        )


def window_fleet(fleet: Fleet, opening: bool) -> None:
    if opening:
        fleet.signal_window(signal.SIGUSR1, "started-{pid}")
    else:
        fleet.signal_window(signal.SIGUSR2, "trace-{pid}.json")


# ---------------------------------------------------------------------------
# live-delta: deltas and re-audits of a 10^5-fact live session
# ---------------------------------------------------------------------------
#: Facts of the measured live session (at least; the guard's floor).
LIVE_FACTS = 100_000
#: Distinct values per column: R ⋈ S stays ~25k rows at 10^5 facts.
LIVE_DOMAIN = 100_000
#: Deltas generated per run: ~2x what a 20-second window applies today.
LIVE_DELTAS = 1600
#: Facts of the delta generator's own instance; the remaining facts of
#: the live session are drawn independently (the generator mirrors its
#: state to pick deletes, which is quadratic at 10^5 facts).
LIVE_SEED_FACTS = 2000
#: Views published by the stream: one small view, so a publish costs a
#: fact-delta's time and index maintenance stays what the workload
#: measures (publishing ``R ⋈ S`` at 10^5 facts takes seconds).
LIVE_PUBLISH_POOL = ("{name}(x) :- T(x)",)
#: ``live-create`` documents are ~2 MB; raise the request-size bound.
LIVE_MAX_PAYLOAD = 64 << 20


def _delta_stream(seed: int, live: str, deltas: int) -> List[Dict[str, Any]]:
    from repro.workload import DeltaStreamSpec, InstanceSpec, generate_delta_stream

    return generate_delta_stream(
        DeltaStreamSpec(
            seed=seed,
            deltas=deltas,
            live=live,
            instance=InstanceSpec(
                seed=seed,
                facts=LIVE_SEED_FACTS,
                domain_size=LIVE_DOMAIN,
                relation_weights={"T": 0.1},
            ),
            publish_pool=LIVE_PUBLISH_POOL,
        )
    )


def prepare_live(seed: int) -> Dict[str, Any]:
    stream = _delta_stream(seed, f"live-{seed}", LIVE_DELTAS)
    facts = stream[0]["facts"]
    present = {(relation, tuple(values)) for relation, values in facts}
    rng = random.Random(seed)
    while len(present) < LIVE_FACTS + 1000:
        fact = (rng.choice("RS"), (rng.randrange(LIVE_DOMAIN), rng.randrange(LIVE_DOMAIN)))
        if fact not in present:
            present.add(fact)
            facts.append([fact[0], list(fact[1])])
    return {
        "stream": stream,
        "warm": _delta_stream(warm_seed(seed), "warm-up", 20),
        "seed": seed,
    }


def _live_call(client, document: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    from repro.exceptions import ReproError

    fields = {key: value for key, value in document.items() if key != "op"}
    try:
        return client.request(document["op"], **fields)
    except (ReproError, OSError):
        client.close()
        return None


def setup_live(inputs, scratch: Path, trace_dir: Optional[Path]) -> Dict[str, Any]:
    from repro.service.client import AuditServiceClient

    fleet = Fleet(scratch, max_payload=LIVE_MAX_PAYLOAD, trace_dir=trace_dir)
    fleet.start()
    client = AuditServiceClient(*fleet.address, timeout=120.0)
    try:
        for document in inputs["warm"]:
            for request in (document, {"op": "live-audit", "live": document["live"]}):
                response = _live_call(client, request)
                if not (response and response.get("ok")):
                    raise RuntimeError(f"warm-up {request['op']} failed: {response}")
        created = _live_call(client, inputs["stream"][0])
        if not (created and created.get("ok")):
            raise RuntimeError(f"live-create failed: {created}")
    except BaseException:
        client.close()
        fleet.stop()
        raise
    return {"fleet": fleet, "client": client, "created": created["result"]}


def measure_live(state, inputs, seconds: float) -> Measurement:
    fleet, client = state["fleet"], state["client"]
    live = inputs["stream"][0]["live"]
    latencies: List[float] = []
    failed = 0
    last_audit: Optional[Dict[str, Any]] = None
    kinds: Dict[str, int] = {}
    cpu_before = fleet.cpu_seconds()
    start = time.perf_counter()
    end = start
    with RssSampler(fleet.pids()) as rss, client_gc_paused():
        for delta in inputs["stream"][1:]:
            if end - start >= seconds:
                break
            began = time.perf_counter()
            ack = _live_call(client, delta)
            audit = _live_call(client, {"op": "live-audit", "live": live})
            end = time.perf_counter()
            latencies.append(end - began)
            for kind in ("add", "remove", "publish", "retract"):
                if kind in delta:
                    kinds[kind] = kinds.get(kind, 0) + 1
            ok = bool(ack and ack.get("ok") and audit and audit.get("ok"))
            if ok and audit["result"]["revision"] != ack["result"]["revision"]:
                ok = False  # the read did not see the write it follows
            if not ok:
                failed += 1
            else:
                last_audit = audit["result"]
    return Measurement(
        start=start,
        end=end,
        latencies=latencies,
        attempted=len(latencies),
        failed=failed,
        rss_mb=rss.mean_mb,
        peak_rss_mb=fleet.peak_rss_mb(),
        server_cpu_s=fleet.cpu_seconds() - cpu_before,
        details={
            "deltas_by_event": kinds,
            "initial_facts": state["created"]["fact_count"],
            "connections": 1,
        },
        outputs={"applied": len(latencies), "last_audit": last_audit},
    )


def _verdict_view(document: Dict[str, Any]) -> Dict[str, Any]:
    """The parts of a live verdict document that describe the state."""
    return {
        "fact_count": document["fact_count"],
        "views": {name: entry["size"] for name, entry in document["views"].items()},
        "secrets": {
            name: {key: entry[key] for key in ("secure", "exposed", "answer_size", "insecure_views")}
            for name, entry in document["secrets"].items()
        },
    }


def check_live(inputs, measurement: Measurement) -> List[str]:
    """The final ``live-audit`` against a from-scratch session."""
    from repro.io import schema_from_dict
    from repro.session import LiveAuditSession, fact_from_document
    from repro.workload import delta_stream_state

    outputs = measurement.outputs
    if outputs["last_audit"] is None:
        return ["no live-audit answer to check"]
    stream = inputs["stream"][: outputs["applied"] + 1]
    facts, views = delta_stream_state(stream)
    create = stream[0]
    schema = schema_from_dict(create["schema"])
    fresh = LiveAuditSession(
        schema,
        secrets=create["secrets"],
        views=views,
        facts=[fact_from_document(document) for document in facts],
    )
    expected = _verdict_view(fresh.verdicts())
    got = _verdict_view(outputs["last_audit"])
    if got != expected:
        return [f"final live-audit {got} differs from a from-scratch audit {expected}"]
    return []


def guard_live(inputs, state, measurement: Measurement) -> None:
    facts = state["created"]["fact_count"]
    if facts < LIVE_FACTS:
        raise ShapeError(
            f"live-delta started from {facts} facts (at least {LIVE_FACTS} required)"
        )


def teardown_live(state) -> None:
    state["client"].close()
    state["fleet"].stop()


# ---------------------------------------------------------------------------
# decision-path: the paper's verdicts in-process
# ---------------------------------------------------------------------------
#: Employee-schema shapes ``(names, departments, phones)``: 8- and 12-fact supports.
EMPLOYEE_SHAPES = ((2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2))
#: The shapes that run Table 1 row 2, whose 12-fact leakage takes ~2.5 s:
#: one 12-fact shape keeps the kernel's heaviest case in every round
#: without letting three such cases fill it.
ROW2_SHAPES = ((2, 2, 2), (2, 2, 3))
#: Rounds of cases prepared per run (~2x what a 40-second window finishes).
DECISION_ROUNDS = 24
#: What :func:`host_reference` is scaled to: a case's corrected time is
#: its wall time times this over the mean reference time of its round.
REFERENCE_NOMINAL_S = 0.020


def host_reference() -> None:
    """Fixed exact arithmetic of the kernel's kind, timed between cases.

    The shared host's speed swings up to 2x over seconds to minutes,
    which no number of cases averages away; this loop, which no program
    change can speed up, measures that speed next to the cases.
    """
    total, probability = Fraction(0), Fraction(345, 1009)
    for index in range(1500):
        total += probability ** (index % 12) * (1 - probability) ** (12 - index % 12)


def host_reference_seconds(repeats: int) -> float:
    """Mean wall time of ``repeats`` back-to-back :func:`host_reference` loops."""
    started = time.perf_counter()
    for _ in range(repeats):
        host_reference()
    return (time.perf_counter() - started) / repeats


def _three_relations():
    """The disconnected 3×4-fact schema of ``bench_exact_kernel.py``."""
    from repro.cq.parser import parse_query
    from repro.relational import Domain, RelationSchema, Schema

    products = Domain(["widget", "gadget"], name="products")
    money = Domain([10, 20], name="money")
    schema = Schema(
        [
            RelationSchema(name, ("product", column), {"product": products, column: money})
            for name, column in (("Cost", "cost"), ("Labor", "lc"), ("Part", "pc"))
        ]
    )
    secret = parse_query("S(p, c) :- Cost(p, c)")
    views = (parse_query("V1(p, l) :- Labor(p, l)"), parse_query("V2(p) :- Part(p, pc)"))
    return schema, secret, views


def _case_shapes() -> List[Tuple[str, Any, Any, Tuple[Any, ...], bool]]:
    """One round: ``(label, schema, secret, views, expected_secure)``."""
    from repro.bench import employee_schema, table1_pairs

    shapes = []
    for dims in EMPLOYEE_SHAPES:
        schema = employee_schema(*dims)
        for row in table1_pairs():
            if row.row == 2 and dims not in ROW2_SHAPES:
                continue
            label = f"emp{'x'.join(map(str, dims))}-row{row.row}"
            shapes.append((label, schema, row.secret, tuple(row.views), row.expected_secure))
    schema, secret, views = _three_relations()
    shapes.append(("three-relations", schema, secret, views, True))
    return shapes


def prepare_decision(seed: int) -> Dict[str, Any]:
    shapes = _case_shapes()
    rng = random.Random(seed)
    probs = iter(probabilities(seed, DECISION_ROUNDS * len(shapes)))
    rounds = []
    for _ in range(DECISION_ROUNDS):
        order = list(range(len(shapes)))
        rng.shuffle(order)
        rounds.append([(order_index, next(probs)) for order_index in order])
    # Warm-up: every shape except the slow 12-fact row-2 ones, once.
    warm_probs = iter(probabilities(warm_seed(seed), len(shapes), WARM_DENOMINATOR))
    warm = [
        (index, next(warm_probs))
        for index, (label, *_rest) in enumerate(shapes)
        if label == "emp2x2x2-row2" or not label.endswith("row2")
    ]
    return {"shapes": shapes, "rounds": rounds, "warm": warm, "seed": seed}


def _build_case(shapes, index: int, probability: Fraction) -> Dict[str, Any]:
    from repro.probability import Dictionary
    from repro.session import AnalysisSession

    label, schema, secret, views, expected = shapes[index]
    dictionary = Dictionary.uniform(schema, probability)
    return {
        "label": label,
        "secret": secret,
        "views": views,
        "expected": expected,
        "dictionary": dictionary,
        "session": AnalysisSession(schema, dictionary=dictionary),
        "support": len(dictionary.tuple_space()),
    }


def run_case(case: Dict[str, Any]) -> Dict[str, Any]:
    """Theorem 4.5, Definition 4.1, the independence gap and leakage."""
    from repro.core.security import independence_gap

    session, secret, views = case["session"], case["secret"], case["views"]
    return {
        "decide": session.decide(secret, views).verdict,
        "verify": session.verify(secret, views).verdict,
        "gap": independence_gap(secret, views, case["dictionary"]),
        "leakage": session.leakage(secret, views).measurement.leakage,
    }


def setup_decision(inputs, scratch: Path, trace_dir: Optional[Path]) -> Dict[str, Any]:
    shapes = inputs["shapes"]
    for index, probability in inputs["warm"]:
        run_case(_build_case(shapes, index, probability))
    rounds = [
        [_build_case(shapes, index, probability) for index, probability in round_]
        for round_ in inputs["rounds"]
    ]
    return {"rounds": rounds}


def measure_decision(state, inputs, seconds: float) -> Measurement:
    latencies: List[float] = []
    corrected: List[float] = []
    references: List[float] = []
    intervals: List[Tuple[float, float]] = []
    results = []
    start = time.perf_counter()
    end = start
    with RssSampler([os.getpid()]) as rss:
        # Whole rounds only, so every run times the same multiset of cases.
        for round_ in state["rounds"]:
            if end - start >= seconds:
                break
            first = len(latencies)
            while round_:
                case = round_.pop(0)
                began = time.perf_counter()
                outcome = run_case(case)
                end = time.perf_counter()
                latencies.append(end - began)
                results.append((case["label"], case["support"], case["expected"], outcome))
                host_reference()
                intervals.append((end, time.perf_counter()))
                references.append(intervals[-1][1] - end)
                end = intervals[-1][1]
            scale = REFERENCE_NOMINAL_S / statistics.fmean(references[first:])
            corrected.extend(latency * scale for latency in latencies[first:])
    if end - start < seconds:
        raise RuntimeError("decision-path ran out of prepared rounds; raise DECISION_ROUNDS")
    return Measurement(
        start=start,
        end=end,
        latencies=latencies,
        attempted=len(latencies),
        failed=0,
        rss_mb=rss.mean_mb,
        peak_rss_mb=peak_rss_mb(os.getpid()),
        corrected=corrected,
        benchmark_intervals=intervals,
        details={
            "rounds": len(latencies) // len(inputs["shapes"]),
            "cases_per_round": len(inputs["shapes"]),
            "supports": sorted({support for _, support, _, _ in results}),
            "reference_ms_median": statistics.median(references) * 1000.0,
        },
        outputs=results,
    )


def check_decision(inputs, measurement: Measurement) -> List[str]:
    """Theorem 4.5 against Definition 4.1, the gap and the paper's verdicts."""
    wrong = []
    for label, _, expected, outcome in measurement.outputs:
        secure = outcome["decide"]
        if outcome["verify"] != secure:
            wrong.append(f"{label}: verify {outcome['verify']} != decide {secure}")
        elif (outcome["gap"] == 0) != secure:
            wrong.append(f"{label}: independence gap {outcome['gap']} with decide {secure}")
        elif secure != expected:
            wrong.append(f"{label}: decide {secure}, the paper says {expected}")
    return wrong


def guard_decision(inputs, state, measurement: Measurement) -> None:
    if 12 not in measurement.details["supports"]:
        raise ShapeError("decision-path ran no case with a 12-fact support")


# ---------------------------------------------------------------------------
# The table run.py drives
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[int], Any]
    setup: Callable[[Any, Path, Optional[Path]], Any]
    measure: Callable[[Any, Any, float], Measurement]
    check: Callable[[Any, Measurement], List[str]]
    guard: Callable[[Any, Any, Measurement], None]
    teardown: Callable[[Any], None]
    #: ``window(state, opening)`` switches span recording in the serving
    #: processes; ``None`` when the workload runs in this process.
    window: Optional[Callable[[Any, bool], None]]
    #: Whether set-up time is scaled for host speed like the ops of
    #: ``measure`` (see :func:`host_reference`).
    host_corrected: bool = False


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "service-cold",
            "distinct Table 1 requests: every cache misses, time goes to routing, "
            "the session, crit_D, leakage and the kernel",
            prepare_cold, setup_fleet, measure_fleet, check_cold, guard_cold, Fleet.stop, window_fleet,
        ),
        Workload(
            "service-hot",
            "a seeded Table 1 mix with duplicates: >=95% cache or coalescing hits, "
            "so wire decode, routing and cache lookup make the latency",
            prepare_hot, setup_fleet, measure_fleet, check_hot, guard_hot, Fleet.stop, window_fleet,
        ),
        Workload(
            "live-delta",
            "fact deltas and re-audits of a 10^5-fact live session: Instance index "
            "maintenance and cq delta evaluation",
            prepare_live, setup_live, measure_live, check_live, guard_live, teardown_live,
            lambda state, opening: window_fleet(state["fleet"], opening),
        ),
        Workload(
            "decision-path",
            "the paper's decision path in-process: crit_D, Theorem 4.5, Definition 4.1 "
            "and leakage on 8-12-fact supports",
            prepare_decision, setup_decision, measure_decision, check_decision,
            guard_decision, lambda state: None, None, host_corrected=True,
        ),
    )
}
