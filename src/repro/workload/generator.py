"""Seeded request-workload generation and replay.

The three moving parts:

* :func:`table1_templates` — one request document per (operation,
  Table 1 row) combination over the employee schema;
* :func:`generate_workload` — a seeded mix of template draws, random
  query-view pairs and exact duplicates, sized and weighted by a
  :class:`WorkloadSpec`;
* :func:`replay_workload` — drive a live daemon with the generated
  requests over several concurrent connections and summarise the
  outcome (throughput, latency percentiles, duplicate hits).

For the incremental engine, :func:`generate_delta_stream` emits a
seeded ``live-create`` + ``apply-delta`` request sequence (configurable
insert/delete/publish/retract mix and per-delta churn) and
:func:`delta_stream_state` mirrors it to the expected final state;
:func:`replay_workload` serialises live-session requests on one
dedicated connection and can hold a ``subscribe`` stream open while the
deltas land.

Workload files are JSON: ``{"version": 1, "requests": [...]}``; every
request validates against :func:`repro.service.protocol.parse_request`.
"""

from __future__ import annotations

import json
import queue
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..bench.schemas import employee_schema, table1_pairs
from ..bench.workloads import WorkloadConfig, random_query_view_pair
from ..exceptions import ReproError
from ..io import schema_to_dict
from ..service.protocol import parse_request

__all__ = [
    "WorkloadSpec",
    "InstanceSpec",
    "DeltaStreamSpec",
    "table1_templates",
    "generate_workload",
    "generate_facts",
    "generate_instance",
    "generate_delta_stream",
    "delta_stream_state",
    "save_workload",
    "load_workload",
    "replay_workload",
]

#: Workload file format version.
WORKLOAD_VERSION = 1

#: Default operation weights of the mixed workload.
DEFAULT_MIX: Dict[str, float] = {
    "decide": 4.0,
    "quick": 2.0,
    "audit": 1.0,
    "collusion": 1.0,
    "plan": 0.5,
    "leakage": 0.5,
    "verify": 0.5,
    "with_knowledge": 0.5,
}


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one generated workload.

    Attributes
    ----------
    seed:
        Everything is drawn from ``random.Random(seed)``.
    requests:
        Number of request documents to emit.
    mix:
        Operation → weight; operations absent from the mix are never
        drawn.  Only consulted for Table 1 draws (random-schema draws
        use the dictionary-free ``decide`` / ``quick`` / ``collusion``).
    duplicate_fraction:
        Probability that a request repeats an earlier one verbatim
        (coalescing / result-cache pressure under replay).
    random_fraction:
        Probability that a non-duplicate request uses a random schema
        and query pair instead of a Table 1 template.
    probability:
        Uniform tuple probability attached to Table 1 requests (needed
        by ``leakage`` / ``verify``; harmless elsewhere).
    random_config:
        Shape of the random schemas/queries (see
        :class:`repro.bench.workloads.WorkloadConfig`).
    """

    seed: int = 0
    requests: int = 100
    mix: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_MIX))
    duplicate_fraction: float = 0.3
    random_fraction: float = 0.2
    probability: str = "1/4"
    random_config: WorkloadConfig = field(
        default_factory=lambda: WorkloadConfig(relations=2, max_arity=2, domain_size=2)
    )


def table1_templates(probability: str = "1/4") -> List[Dict[str, Any]]:
    """One request document per (operation, Table 1 row).

    Every document targets the 3-variable ``Emp(n, d, p)`` schema and is
    a complete, valid protocol request.
    """
    schema_doc = schema_to_dict(employee_schema())
    schema_doc["tuple_probability"] = probability
    rows = table1_pairs()
    templates: List[Dict[str, Any]] = []
    for row in rows:
        secret = str(row.secret)
        views = {f"user{i + 1}": str(view) for i, view in enumerate(row.views)}
        base = {"schema": schema_doc, "secret": secret, "views": views}
        templates.append({"op": "decide", **base})
        templates.append({"op": "quick", **base})
        templates.append({"op": "audit", **base})
        templates.append({"op": "collusion", **base})
        templates.append({"op": "leakage", **base})
        templates.append({"op": "verify", **base})
        templates.append(
            {
                "op": "with_knowledge",
                **base,
                "knowledge": {"kind": "keys", "keys": {"Emp": [0]}},
            }
        )
    templates.append(
        {
            "op": "plan",
            "schema": schema_doc,
            "secrets": {f"s{row.row}": str(row.secret) for row in rows},
            "views": {
                f"r{row.row}v{i}": str(view)
                for row in rows
                for i, view in enumerate(row.views)
            },
        }
    )
    return templates


def _random_request(spec: WorkloadSpec, rng: random.Random) -> Dict[str, Any]:
    """A dictionary-free request over a random schema and query pair."""
    schema, secret, view = random_query_view_pair(
        spec.random_config, seed=rng.randrange(1 << 30)
    )
    document = {
        "op": rng.choice(("decide", "quick", "collusion")),
        "schema": schema_to_dict(schema),
        "secret": str(secret),
        "views": [str(view)],
    }
    return document


def _weighted_choice(rng: random.Random, weights: Mapping[str, float]) -> str:
    operations = sorted(weights)
    total = sum(max(0.0, weights[op]) for op in operations)
    if total <= 0:
        raise ReproError("the workload mix must have at least one positive weight")
    mark = rng.random() * total
    for op in operations:
        mark -= max(0.0, weights[op])
        if mark <= 0:
            return op
    return operations[-1]


def generate_workload(spec: WorkloadSpec) -> List[Dict[str, Any]]:
    """The request documents of one seeded workload.

    Deterministic: equal specs generate equal lists.  Every emitted
    document passes :func:`~repro.service.protocol.parse_request`.
    """
    if spec.requests < 1:
        raise ReproError("a workload needs at least one request")
    rng = random.Random(spec.seed)
    templates = table1_templates(spec.probability)
    by_operation: Dict[str, List[Dict[str, Any]]] = {}
    for template in templates:
        by_operation.setdefault(template["op"], []).append(template)
    mix = {op: weight for op, weight in spec.mix.items() if op in by_operation}
    if not mix:
        raise ReproError(
            f"no mix operation is generatable; choose from {sorted(by_operation)}"
        )
    requests: List[Dict[str, Any]] = []
    for _ in range(spec.requests):
        if requests and rng.random() < spec.duplicate_fraction:
            requests.append(dict(rng.choice(requests)))
            continue
        if rng.random() < spec.random_fraction:
            document = _random_request(spec, rng)
        else:
            document = dict(rng.choice(by_operation[_weighted_choice(rng, mix)]))
        parse_request(document)  # what we emit must be servable
        requests.append(document)
    return requests


# ---------------------------------------------------------------------------
# Large-instance generation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class InstanceSpec:
    """Parameters of one seeded large instance.

    Sized for the 10^5–10^6-fact stores the sql evaluation engine
    targets; generation is streaming (:func:`generate_facts` yields),
    so a million facts never need to exist in one Python list.

    Attributes
    ----------
    seed:
        Everything is drawn from ``random.Random(seed)``.
    facts:
        Number of facts to draw (duplicates possible — stores and
        instances keep set semantics, so the final count may be
        slightly lower; with ``domain_size**2`` well above ``facts``
        the shortfall is negligible).
    relations:
        ``name → arity`` mapping of the schema to populate.
    domain_size:
        Values are ``v0 .. v{domain_size-1}`` column indices drawn as
        integers.
    skew:
        ``0.0`` draws values uniformly; larger values concentrate the
        mass on small indices (each draw is
        ``int(domain_size * u**(1 + skew))`` for uniform ``u``), which
        makes some join keys hot — the regime where index choice
        matters.
    relation_weights:
        Optional ``name → weight`` skew across relations; unlisted
        relations get weight 1.
    """

    seed: int = 0
    facts: int = 100_000
    relations: Mapping[str, int] = field(
        default_factory=lambda: {"R": 2, "S": 2, "T": 1}
    )
    domain_size: int = 1000
    skew: float = 0.0
    relation_weights: Mapping[str, float] = field(default_factory=dict)


def generate_facts(spec: InstanceSpec):
    """Yield the facts of one seeded large instance (deterministic).

    A generator, so 10^6-fact instances stream straight into
    :meth:`~repro.storage.sqlite.SQLiteFactStore.load_facts` without a
    list in between.
    """
    from ..relational.tuples import Fact

    if spec.facts < 0:
        raise ReproError("an instance cannot have a negative fact count")
    if spec.domain_size < 1:
        raise ReproError("the instance domain needs at least one value")
    if not spec.relations:
        raise ReproError("the instance spec names no relations")
    rng = random.Random(spec.seed)
    names = sorted(spec.relations)
    weights = [max(0.0, float(spec.relation_weights.get(name, 1.0))) for name in names]
    if sum(weights) <= 0:
        raise ReproError("the relation weights must have at least one positive entry")
    exponent = 1.0 + max(0.0, spec.skew)

    def draw_value() -> int:
        return int(spec.domain_size * rng.random() ** exponent) % spec.domain_size

    for _ in range(spec.facts):
        name = rng.choices(names, weights=weights)[0]
        arity = spec.relations[name]
        yield Fact(name, tuple(draw_value() for _ in range(arity)))


def generate_instance(spec: InstanceSpec):
    """The seeded instance as an in-memory
    :class:`~repro.relational.instance.Instance` (set semantics)."""
    from ..relational.instance import Instance

    return Instance(generate_facts(spec))


# ---------------------------------------------------------------------------
# Delta streams (incremental live sessions)
# ---------------------------------------------------------------------------
#: Default event weights of one delta stream: fact churn dominates, view
#: churn (the expensive re-audit trigger) stays rare — the regime the
#: incremental engine is built for.
DEFAULT_DELTA_MIX: Dict[str, float] = {
    "insert": 6.0,
    "delete": 3.0,
    "publish": 0.5,
    "retract": 0.5,
}

#: Queries over the default ``{"R": 2, "S": 2, "T": 1}`` relations.
DEFAULT_DELTA_SECRETS: Dict[str, str] = {
    "join": "Secret(x, z) :- R(x, y), S(y, z)",
}
DEFAULT_DELTA_VIEWS: Dict[str, str] = {
    "left": "V(x) :- R(x, y)",
    "unary": "W(x) :- T(x)",
}
#: Templates for stream-published views; ``{name}`` receives a fresh
#: head name per publish event.
DEFAULT_PUBLISH_POOL: Tuple[str, ...] = (
    "{name}(x, y) :- R(x, y)",
    "{name}(y) :- S(y, z)",
    "{name}(x, z) :- R(x, y), S(y, z)",
    "{name}(x) :- T(x)",
)


@dataclass(frozen=True)
class DeltaStreamSpec:
    """Parameters of one seeded live-session delta stream.

    The generated sequence starts with one ``live-create`` request
    (schema, secrets, views and the initial facts of ``instance``)
    followed by ``deltas`` ``apply-delta`` requests.  Each delta holds
    up to ``churn`` events drawn from ``mix``: inserts draw fresh
    facts, deletes pick live ones (the generator mirrors the session
    state, so deletes always hit), publishes add a fresh view from
    ``publish_pool`` and retracts drop a previously stream-published
    view.  Custom ``instance.relations`` need matching ``secrets`` /
    ``views`` / ``publish_pool`` queries.
    """

    seed: int = 0
    deltas: int = 64
    live: str = "live-0"
    instance: InstanceSpec = field(
        default_factory=lambda: InstanceSpec(facts=200, domain_size=50)
    )
    mix: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_DELTA_MIX))
    churn: int = 4
    secrets: Mapping[str, str] = field(
        default_factory=lambda: dict(DEFAULT_DELTA_SECRETS)
    )
    views: Mapping[str, str] = field(default_factory=lambda: dict(DEFAULT_DELTA_VIEWS))
    publish_pool: Sequence[str] = DEFAULT_PUBLISH_POOL


def _fact_key(document: Sequence[Any]) -> Tuple[str, Tuple[Any, ...]]:
    return (document[0], tuple(document[1]))


def generate_delta_stream(spec: DeltaStreamSpec) -> List[Dict[str, Any]]:
    """The request documents of one seeded delta stream (deterministic).

    ``requests[0]`` is the ``live-create``; every later document is an
    ``apply-delta`` against the same session.  Every emitted document
    passes :func:`~repro.service.protocol.parse_request`.  Replay them
    *in order* on one connection (``replay_workload`` does) — fact
    deltas only commute when no delta removes a fact an unapplied one
    adds.
    """
    from ..io import schema_to_dict as _schema_to_dict
    from ..relational.domain import Domain
    from ..relational.schema import RelationSchema, Schema

    if spec.deltas < 1:
        raise ReproError("a delta stream needs at least one delta")
    if spec.churn < 1:
        raise ReproError("a delta stream needs churn >= 1")
    if not spec.secrets:
        raise ReproError("a delta stream needs at least one secret")
    mix = {kind: weight for kind, weight in spec.mix.items() if weight > 0}
    unknown = set(mix) - {"insert", "delete", "publish", "retract"}
    if unknown:
        raise ReproError(f"unknown delta-stream events: {sorted(unknown)}")
    rng = random.Random(spec.seed)
    schema = Schema(
        tuple(
            RelationSchema(name, tuple(f"a{i}" for i in range(arity)))
            for name, arity in sorted(spec.instance.relations.items())
        ),
        domain=Domain(range(spec.instance.domain_size)),
    )

    state: set = set()
    initial: List[List[Any]] = []
    for fact in generate_facts(spec.instance):
        key = (fact.relation, tuple(fact.values))
        if key not in state:
            state.add(key)
            initial.append([fact.relation, list(fact.values)])
    create: Dict[str, Any] = {
        "op": "live-create",
        "live": spec.live,
        "schema": _schema_to_dict(schema),
        "secrets": dict(spec.secrets),
        "views": dict(spec.views),
        "facts": initial,
    }
    requests: List[Dict[str, Any]] = [create]

    names = sorted(spec.instance.relations)
    published: List[str] = []
    publish_counter = 0
    for _ in range(spec.deltas):
        adds: List[Tuple[str, Tuple[Any, ...]]] = []
        removes: List[Tuple[str, Tuple[Any, ...]]] = []
        publish: Dict[str, str] = {}
        retract: List[str] = []
        for _ in range(rng.randint(1, spec.churn)):
            kind = _weighted_choice(rng, mix)
            if kind == "retract" and not published:
                kind = "publish" if "publish" in mix else "insert"
            if kind == "delete" and not (state - set(adds)):
                kind = "insert"
            if kind == "insert":
                relation = rng.choice(names)
                arity = spec.instance.relations[relation]
                for _ in range(20):  # prefer genuinely fresh facts
                    key = (
                        relation,
                        tuple(
                            rng.randrange(spec.instance.domain_size)
                            for _ in range(arity)
                        ),
                    )
                    if key not in state:
                        break
                state.add(key)
                adds.append(key)
            elif kind == "delete":
                # Never remove a fact this same delta adds: add/remove
                # of one request must stay disjoint.
                key = rng.choice(sorted(state - set(adds)))
                state.discard(key)
                removes.append(key)
            elif kind == "publish":
                publish_counter += 1
                name = f"pub{publish_counter}"
                template = spec.publish_pool[
                    (publish_counter - 1) % len(spec.publish_pool)
                ]
                publish[name] = template.format(name=f"P{publish_counter}")
                published.append(name)
            else:  # retract
                name = rng.choice(sorted(published))
                published.remove(name)
                if name in publish:
                    # The server retracts before it publishes, so a view
                    # born and killed in one delta is simply cancelled.
                    del publish[name]
                else:
                    retract.append(name)
        if not (adds or removes or publish or retract):
            # Every event cancelled out (publish killed by a same-delta
            # retract); an empty delta is unservable, so insert instead.
            relation = rng.choice(names)
            key = (
                relation,
                tuple(
                    rng.randrange(spec.instance.domain_size)
                    for _ in range(spec.instance.relations[relation])
                ),
            )
            state.add(key)
            adds.append(key)
        document: Dict[str, Any] = {"op": "apply-delta", "live": spec.live}
        if adds:
            document["add"] = [[rel, list(values)] for rel, values in adds]
        if removes:
            document["remove"] = [[rel, list(values)] for rel, values in removes]
        if publish:
            document["publish"] = publish
        if retract:
            document["retract"] = retract
        parse_request(document)  # what we emit must be servable
        requests.append(document)
    parse_request(create)
    return requests


def delta_stream_state(
    requests: Sequence[Mapping[str, Any]],
) -> Tuple[List[List[Any]], Dict[str, str]]:
    """Mirror a delta stream: the ``(facts, views)`` a session holds
    after serving every request in order.

    Applies the same intra-delta order as the server (retractions, then
    publications, then the fact delta, whose contract is
    ``(facts - removed) | added`` — removals first, so a fact in both
    sides of one delta ends up present), so the result is exactly what
    a from-scratch audit of the final state should see.
    """
    facts: Dict[Tuple[str, Tuple[Any, ...]], List[Any]] = {}
    views: Dict[str, str] = {}
    for request in requests:
        op = request.get("op")
        if op == "live-create":
            facts = {}
            views = dict(request.get("views") or {})
            for document in request.get("facts") or ():
                facts[_fact_key(document)] = [document[0], list(document[1])]
        elif op == "apply-delta":
            for name in request.get("retract") or ():
                views.pop(name, None)
            for name, query in (request.get("publish") or {}).items():
                views[name] = query
            for document in request.get("remove") or ():
                facts.pop(_fact_key(document), None)
            for document in request.get("add") or ():
                facts[_fact_key(document)] = [document[0], list(document[1])]
    return sorted(facts.values()), views


# ---------------------------------------------------------------------------
# Workload files
# ---------------------------------------------------------------------------
def save_workload(requests: Sequence[Mapping[str, Any]], path: Union[str, Path]) -> None:
    """Write a replayable workload file."""
    document = {"version": WORKLOAD_VERSION, "requests": list(requests)}
    with open(path, "w", encoding="utf8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def load_workload(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read a workload file back; every request is re-validated."""
    with open(path, "r", encoding="utf8") as handle:
        document = json.load(handle)
    if not isinstance(document, Mapping) or "requests" not in document:
        raise ReproError(f"{path} is not a workload file (no 'requests' list)")
    if document.get("version") != WORKLOAD_VERSION:
        raise ReproError(
            f"unsupported workload version {document.get('version')!r}; "
            f"this build reads version {WORKLOAD_VERSION}"
        )
    requests = [dict(request) for request in document["requests"]]
    for request in requests:
        parse_request(request)
    return requests


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------
def replay_workload(
    requests: Sequence[Mapping[str, Any]],
    host: str,
    port: int,
    concurrency: int = 8,
    timeout: float = 120.0,
    *,
    retry_policy: Optional[Any] = None,
    subscribe: Optional[str] = None,
) -> Dict[str, Any]:
    """Drive a live daemon with a workload over concurrent connections.

    Each worker thread owns one connection and pulls requests from a
    shared queue, so duplicates genuinely race each other through the
    server's coalescing path.  Returns a summary document::

        {"requests": N, "ok": N, "errors": N, "overloaded": N,
         "deadline_exceeded": N, "seconds": s, "requests_per_second": r,
         "latency_ms": {"p50": ..., "p95": ..., "max": ...},
         "coalesced": N, "cached": N,
         "fleet_coalesced": N, "fleet_cached": N}

    ``overloaded`` (structured load-shedding answers) and
    ``deadline_exceeded`` (expired ``deadline_ms`` budgets) count
    separately from hard ``errors``: both are the server behaving as
    designed.  Against a multi-worker fleet,
    ``fleet_coalesced``/``fleet_cached`` count the answers the router
    satisfied without reaching any worker (they are subsets of
    ``coalesced``/``cached``).

    ``retry_policy`` (a :class:`repro.service.client.RetryPolicy`) is
    handed to every replay connection, so chaos runs can ride over
    injected worker crashes and shed requests.

    Live-session requests (any document with a ``live`` field — the
    streams of :func:`generate_delta_stream`) are *not* raced: they
    replay strictly in order on one dedicated connection with no retry
    policy (deltas are not idempotent), concurrently with the rest of
    the workload.  ``subscribe`` names a live session to watch: right
    after its ``live-create`` succeeds a subscriber connection opens,
    collects every pushed notification while the deltas land, and the
    summary gains ``live_requests``, ``notifications`` (the collected
    documents) and ``notifications_expected`` (successful deltas the
    subscription should have seen).
    """
    from ..service.client import AuditServiceClient
    from ..service.metrics import percentile

    if concurrency < 1:
        raise ReproError("replay needs at least one connection")
    live_requests: List[Tuple[int, Mapping[str, Any]]] = []
    pending: "queue.Queue[Tuple[int, Mapping[str, Any]]]" = queue.Queue()
    plain = 0
    for index, request in enumerate(requests):
        if request.get("live"):
            live_requests.append((index, request))
        else:
            pending.put((index, request))
            plain += 1
    lock = threading.Lock()
    outcomes = {
        "ok": 0,
        "errors": 0,
        "overloaded": 0,
        "deadline_exceeded": 0,
        "coalesced": 0,
        "cached": 0,
        "fleet_coalesced": 0,
        "fleet_cached": 0,
    }
    latencies: List[float] = []
    failures: List[str] = []

    def _connect(policy: Optional[Any]) -> "AuditServiceClient":
        return AuditServiceClient(host, port, timeout=timeout, retry_policy=policy)

    def _issue(client, index, request, policy):
        """Send one request and account it; returns ``(client, response)``
        with the client reconnected and the response ``None`` after a
        transport failure."""
        fields = {key: value for key, value in request.items() if key != "op"}
        started = time.perf_counter()
        try:
            response = client.request(request["op"], **fields)
        except Exception as error:
            # A transport failure must cost exactly one request:
            # account it, reconnect, keep draining the queue.
            with lock:
                outcomes["errors"] += 1
                if len(failures) < 5:
                    failures.append(
                        f"request {index} ({request.get('op')}): "
                        f"transport: {error}"
                    )
            client.close()
            return _connect(policy), None
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        with lock:
            latencies.append(elapsed_ms)
            if response.get("ok"):
                outcomes["ok"] += 1
                server = response.get("server") or {}
                if server.get("coalesced"):
                    outcomes["coalesced"] += 1
                if server.get("cached"):
                    outcomes["cached"] += 1
                if server.get("fleet_coalesced"):
                    outcomes["fleet_coalesced"] += 1
                if server.get("fleet_cached"):
                    outcomes["fleet_cached"] += 1
            else:
                error = response.get("error") or {}
                if error.get("code") == "overloaded":
                    outcomes["overloaded"] += 1
                elif error.get("code") == "deadline-exceeded":
                    outcomes["deadline_exceeded"] += 1
                else:
                    outcomes["errors"] += 1
                    if len(failures) < 5:
                        failures.append(
                            f"request {index} ({request.get('op')}): "
                            f"{error.get('code')}: {error.get('message')}"
                        )
        return client, response

    def _drain() -> None:
        client = _connect(retry_policy)
        try:
            while True:
                try:
                    index, request = pending.get_nowait()
                except queue.Empty:
                    return
                client, _ = _issue(client, index, request, retry_policy)
        finally:
            client.close()

    notifications: List[Dict[str, Any]] = []
    expected_notes = [0]
    subscriber: Dict[str, Any] = {}

    def _start_subscriber() -> None:
        client = AuditServiceClient(host, port, timeout=timeout)
        stream = client.subscribe(subscribe)

        def _pump() -> None:
            try:
                for notification in stream:
                    with lock:
                        notifications.append(notification)
            except Exception:  # the replay closing the socket ends us
                pass

        thread = threading.Thread(target=_pump, name="replay-subscribe", daemon=True)
        thread.start()
        subscriber["client"] = client
        subscriber["thread"] = thread

    def _drain_live() -> None:
        # Strictly in order, one connection, no retries: a replayed
        # delta is not idempotent, and reordering deltas that touch the
        # same fact changes the final state.
        client = _connect(None)
        try:
            for index, request in live_requests:
                client, response = _issue(client, index, request, None)
                if response is None or not response.get("ok"):
                    continue
                if (
                    subscribe
                    and request.get("op") == "live-create"
                    and request.get("live") == subscribe
                    and "client" not in subscriber
                ):
                    try:
                        _start_subscriber()
                    except Exception as error:
                        with lock:
                            if len(failures) < 5:
                                failures.append(f"subscribe {subscribe!r}: {error}")
                if (
                    "client" in subscriber
                    and request.get("op") == "apply-delta"
                    and request.get("live") == subscribe
                ):
                    # One notification per *event*: a delta that also
                    # retracts/publishes views pushes several lines.
                    result = response.get("result") or {}
                    expected_notes[0] += int(result.get("events") or 1)
        finally:
            client.close()

    threads = [
        threading.Thread(target=_drain, name=f"replay-{i}", daemon=True)
        for i in range(min(concurrency, plain or 1))
    ]
    if live_requests:
        threads.append(
            threading.Thread(target=_drain_live, name="replay-live", daemon=True)
        )
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
    if "client" in subscriber:
        # Notifications are pushed after each delta's response; give the
        # tail a moment to arrive before tearing the stream down.
        deadline = time.monotonic() + min(5.0, timeout)
        while time.monotonic() < deadline:
            with lock:
                if len(notifications) >= expected_notes[0]:
                    break
            time.sleep(0.05)
        subscriber["client"].interrupt()  # EOF the pump thread first;
        subscriber["thread"].join(timeout=5.0)  # close() would deadlock
        subscriber["client"].close()
    seconds = time.perf_counter() - started
    ordered = sorted(latencies)
    summary: Dict[str, Any] = {
        "requests": len(requests),
        **outcomes,
        "seconds": round(seconds, 4),
        "requests_per_second": round(len(latencies) / seconds, 2) if seconds else 0.0,
    }
    if ordered:
        summary["latency_ms"] = {
            "p50": round(percentile(ordered, 50), 3),
            "p95": round(percentile(ordered, 95), 3),
            "max": round(ordered[-1], 3),
        }
    if live_requests:
        summary["live_requests"] = len(live_requests)
    if subscribe is not None:
        summary["notifications"] = list(notifications)
        summary["notifications_expected"] = expected_notes[0]
    if failures:
        summary["failures"] = failures
    return summary
