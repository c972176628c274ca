"""The audit-service wire format.

One JSON document per line (``\\n``-terminated, UTF-8).  A *request*
names an operation plus the analysis inputs; every input is plain JSON
(schema documents in the :mod:`repro.io` format, queries as datalog
strings), so workload files can be written by hand or generated
programmatically::

    {"id": 1, "op": "decide",
     "schema": {"relations": [...]},
     "secret": "S(n, p) :- Emp(n, d, p)",
     "views": {"bob": "V(n, d) :- Emp(n, d, p)"}}

A *response* echoes the request id and either carries a result or a
structured error — the connection always survives a malformed request::

    {"id": 1, "ok": true, "op": "decide", "result": {"verdict": false, ...},
     "server": {"coalesced": false, "cached": false, "elapsed_ms": 3.1}}
    {"id": 1, "ok": false, "error": {"code": "invalid-request", "message": "..."}}

Operations
----------
Analysis operations mirror the session API: ``decide``, ``quick``,
``audit``, ``leakage``, ``collusion``, ``with_knowledge``, ``verify``
and ``plan``.  Control operations are ``ping``, ``stats``, ``traces``,
``metrics`` and ``shutdown``.

Live operations address a named :class:`~repro.session.LiveAuditSession`
held by the server (the ``live`` field carries the name):

* ``live-create`` — pin a (schema, secrets, views, facts) state;
* ``apply-delta`` — add/remove facts and publish/retract views, get the
  incremental re-verdict notification back;
* ``live-audit`` — the current verdict snapshot;
* ``subscribe`` — dedicate this connection to the session's
  notification stream: after the acknowledgement, every subsequent
  line pushed by the server is the notification of one mutation.

Live operations bypass request coalescing and result caches: each one
addresses the session's current state.  Mutations are *not* idempotent,
so they also bypass retry-after-``worker-crashed``; the fleet routes
every operation of one live session to the same shard by hashing the
session name (see :func:`routing_key`), which is what keeps the warm
incremental state on the owning worker.

Error codes
-----------
``bad-json``            the line is not a JSON object;
``payload-too-large``   the line exceeds the server's payload bound;
``invalid-request``     the envelope is malformed (missing/ill-typed field);
``unknown-operation``   ``op`` is not one of the operations above;
``analysis-error``      the analysis itself failed (bad query, no dictionary, ...);
``overloaded``          the worker queue is full; retry later;
``worker-crashed``      a fleet worker died mid-request; safe to retry;
``deadline-exceeded``   the request's ``deadline_ms`` budget ran out;
``internal``            unexpected server-side failure.

Error envelopes carry a ``retryable`` flag so clients need not hard-code
the code list: ``overloaded`` and ``worker-crashed`` are safe to retry
(the request never ran, or is idempotent and deduplicated fleet-wide by
its fingerprint); ``deadline-exceeded`` is *not* marked retryable — the
caller's time budget is spent and only the caller can grant more.

Tracing
-------
Analysis requests may carry a ``trace`` object asking the fleet to
record a span tree for this request: ``{"return": true}`` opens a trace
server-side and returns the finished tree in the response's
``server.trace``; the router adds ``id``/``parent`` when forwarding so
the worker's spans graft under the router's ``router.forward`` span.
Like ``deadline_ms``, the field is transport metadata: it is excluded
from both the coalescing fingerprint and the session key, so traced and
untraced duplicates still share one computation.

Deadlines
---------
Analysis requests may carry ``deadline_ms``, a wall-clock budget in
milliseconds covering queue wait **and** computation.  Only the tier
that answers the client enforces it: the daemon, or the fleet router,
which forwards the request without the field.  On expiry that tier
answers ``deadline-exceeded``, and the computation runs on, holding its
slot, until it lands; an ok answer is then cached there, so a retry is
answered ``cached`` (``fleet_cached`` through a fleet).  The deadline is
excluded from the coalescing fingerprint: two requests that differ only
in budget still share one computation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.prior import (
    CardinalityConstraintKnowledge,
    ConjunctionKnowledge,
    KeyConstraintKnowledge,
    PriorKnowledge,
)
from ..exceptions import ReproError
from ..relational.schema import Schema

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_PAYLOAD",
    "ANALYSIS_OPERATIONS",
    "CONTROL_OPERATIONS",
    "LIVE_OPERATIONS",
    "LIVE_MUTATION_OPERATIONS",
    "OPERATIONS",
    "ERROR_BAD_JSON",
    "ERROR_PAYLOAD_TOO_LARGE",
    "ERROR_INVALID_REQUEST",
    "ERROR_UNKNOWN_OPERATION",
    "ERROR_ANALYSIS",
    "ERROR_OVERLOADED",
    "ERROR_WORKER_CRASHED",
    "ERROR_DEADLINE_EXCEEDED",
    "ERROR_INTERNAL",
    "RETRYABLE_ERROR_CODES",
    "ProtocolError",
    "AuditRequest",
    "parse_request",
    "request_key",
    "routing_key",
    "session_key",
    "knowledge_from_dict",
    "encode_message",
    "decode_message",
    "ok_response",
    "error_response",
]

#: Version tag carried in ``ping`` responses (bumped on breaking changes).
PROTOCOL_VERSION = 1

#: Default upper bound on one request line, in bytes.
DEFAULT_MAX_PAYLOAD = 1 << 20

#: Operations that run an analysis on a session.
ANALYSIS_OPERATIONS = frozenset(
    {"decide", "quick", "audit", "leakage", "collusion", "with_knowledge", "verify", "plan"}
)

#: Operations answered by the server itself.
CONTROL_OPERATIONS = frozenset({"ping", "stats", "traces", "metrics", "shutdown"})

#: Operations addressing a named live audit session (the ``live`` field).
LIVE_OPERATIONS = frozenset({"live-create", "apply-delta", "live-audit", "subscribe"})

#: The live operations that change server-side state.  Like every live
#: operation they are never coalesced or cached, and they are never
#: marked retryable — a repeat would apply the delta twice.
LIVE_MUTATION_OPERATIONS = frozenset({"live-create", "apply-delta"})

OPERATIONS = ANALYSIS_OPERATIONS | CONTROL_OPERATIONS | LIVE_OPERATIONS

ERROR_BAD_JSON = "bad-json"
ERROR_PAYLOAD_TOO_LARGE = "payload-too-large"
ERROR_INVALID_REQUEST = "invalid-request"
ERROR_UNKNOWN_OPERATION = "unknown-operation"
ERROR_ANALYSIS = "analysis-error"
ERROR_OVERLOADED = "overloaded"
ERROR_WORKER_CRASHED = "worker-crashed"
ERROR_DEADLINE_EXCEEDED = "deadline-exceeded"
ERROR_INTERNAL = "internal"

#: Codes a client may retry without changing the request: the work
#: either never started (``overloaded``) or is idempotent and
#: deduplicated fleet-wide by the request fingerprint
#: (``worker-crashed``).
RETRYABLE_ERROR_CODES = frozenset({ERROR_OVERLOADED, ERROR_WORKER_CRASHED})


class ProtocolError(ReproError):
    """A request violates the wire format; carries the structured code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


#: Request ids may be any JSON scalar the client chooses.
RequestId = Union[str, int, float, None]

#: ``views`` / ``secrets`` accept a name→query mapping or a plain list.
Queries = Union[Mapping[str, str], Sequence[str], str]


@dataclass(frozen=True)
class AuditRequest:
    """A validated request envelope (analysis inputs still unparsed).

    Queries stay datalog strings and the schema stays a JSON document
    here: parsing them belongs to the execution step, where failures map
    to ``analysis-error`` rather than ``invalid-request``.
    """

    op: str
    id: RequestId = None
    schema: Optional[Mapping[str, Any]] = None
    secret: Optional[str] = None
    views: Optional[Queries] = None
    secrets: Optional[Queries] = None
    dictionary: Optional[Mapping[str, Any]] = None
    knowledge: Optional[Mapping[str, Any]] = None
    engine: str = "exact"
    options: Mapping[str, Any] = field(default_factory=dict)
    #: Wall-clock budget (queue wait + computation) in milliseconds.
    deadline_ms: Optional[float] = None
    #: Tracing directives (``{"return": true, "id": ..., "parent": ...}``).
    #: Transport metadata, excluded from fingerprints like ``deadline_ms``.
    trace: Optional[Mapping[str, Any]] = None
    #: Live-session name (live operations only).
    live: Optional[str] = None
    #: Initial facts (``live-create``) as fact documents.
    facts: Optional[Sequence[Any]] = None
    #: Facts to insert / delete (``apply-delta``) as fact documents.
    add: Optional[Sequence[Any]] = None
    remove: Optional[Sequence[Any]] = None
    #: Views to publish (name → datalog) / retract (names) in a delta.
    publish: Optional[Mapping[str, str]] = None
    retract: Optional[Sequence[str]] = None

    @property
    def is_control(self) -> bool:
        """True for ``ping`` / ``stats`` / ``shutdown``."""
        return self.op in CONTROL_OPERATIONS

    @property
    def is_live(self) -> bool:
        """True for operations addressing a named live session."""
        return self.op in LIVE_OPERATIONS

    @property
    def is_live_mutation(self) -> bool:
        """True for live operations that change server-side state."""
        return self.op in LIVE_MUTATION_OPERATIONS


def _require(document: Mapping[str, Any], key: str, op: str) -> Any:
    value = document.get(key)
    if value is None:
        raise ProtocolError(
            ERROR_INVALID_REQUEST, f"operation {op!r} requires the {key!r} field"
        )
    return value


def _check_queries(value: Any, key: str) -> Queries:
    if isinstance(value, str):
        return value
    if isinstance(value, Mapping):
        if not value or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in value.items()
        ):
            raise ProtocolError(
                ERROR_INVALID_REQUEST,
                f"{key!r} must map recipient names to datalog query strings",
            )
        return dict(value)
    if isinstance(value, Sequence):
        if not value or not all(isinstance(v, str) for v in value):
            raise ProtocolError(
                ERROR_INVALID_REQUEST,
                f"{key!r} must be a non-empty list of datalog query strings",
            )
        return list(value)
    raise ProtocolError(
        ERROR_INVALID_REQUEST,
        f"{key!r} must be a query string, a list of them, or a name→query mapping",
    )


def parse_request(document: Any) -> AuditRequest:
    """Validate a decoded JSON document into an :class:`AuditRequest`.

    Raises :class:`ProtocolError` with ``invalid-request`` or
    ``unknown-operation`` on malformed envelopes.
    """
    if not isinstance(document, Mapping):
        raise ProtocolError(ERROR_INVALID_REQUEST, "a request must be a JSON object")
    op = document.get("op")
    if not isinstance(op, str):
        raise ProtocolError(ERROR_INVALID_REQUEST, "a request must name an 'op' string")
    if op not in OPERATIONS:
        raise ProtocolError(
            ERROR_UNKNOWN_OPERATION,
            f"unknown operation {op!r}; expected one of {', '.join(sorted(OPERATIONS))}",
        )
    request_id = document.get("id")
    if request_id is not None and not isinstance(request_id, (str, int, float)):
        raise ProtocolError(ERROR_INVALID_REQUEST, "the request 'id' must be a JSON scalar")
    options = document.get("options") or {}
    if not isinstance(options, Mapping) or not all(isinstance(k, str) for k in options):
        raise ProtocolError(
            ERROR_INVALID_REQUEST, "'options' must be an object with string keys"
        )
    deadline_ms = document.get("deadline_ms")
    if deadline_ms is not None:
        if (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
            or deadline_ms <= 0
        ):
            raise ProtocolError(
                ERROR_INVALID_REQUEST, "'deadline_ms' must be a positive number"
            )
        deadline_ms = float(deadline_ms)
    trace = document.get("trace")
    if trace is not None:
        if not isinstance(trace, Mapping) or not all(isinstance(k, str) for k in trace):
            raise ProtocolError(
                ERROR_INVALID_REQUEST, "'trace' must be an object with string keys"
            )
        trace = dict(trace)
    if op in CONTROL_OPERATIONS:
        return AuditRequest(op=op, id=request_id, options=dict(options), trace=trace)

    if op in LIVE_OPERATIONS:
        return _parse_live_request(
            document, op, request_id, options, deadline_ms, trace
        )

    schema = _require(document, "schema", op)
    if not isinstance(schema, Mapping) or not schema.get("relations"):
        raise ProtocolError(
            ERROR_INVALID_REQUEST,
            "'schema' must be a schema document with a non-empty 'relations' list",
        )
    dictionary = document.get("dictionary")
    if dictionary is not None and not isinstance(dictionary, Mapping):
        raise ProtocolError(ERROR_INVALID_REQUEST, "'dictionary' must be a JSON object")
    engine = document.get("engine", "exact")
    if not isinstance(engine, str):
        raise ProtocolError(ERROR_INVALID_REQUEST, "'engine' must be a string")

    secret: Optional[str] = None
    views: Optional[Queries] = None
    secrets: Optional[Queries] = None
    knowledge: Optional[Mapping[str, Any]] = None
    if op == "plan":
        secrets = _check_queries(_require(document, "secrets", op), "secrets")
        views = _check_queries(_require(document, "views", op), "views")
    else:
        secret = _require(document, "secret", op)
        if not isinstance(secret, str):
            raise ProtocolError(ERROR_INVALID_REQUEST, "'secret' must be a datalog string")
        views = _check_queries(_require(document, "views", op), "views")
    if op == "with_knowledge":
        knowledge = _require(document, "knowledge", op)
        if not isinstance(knowledge, Mapping) or "kind" not in knowledge:
            raise ProtocolError(
                ERROR_INVALID_REQUEST,
                "'knowledge' must be an object with a 'kind' field",
            )
    return AuditRequest(
        op=op,
        id=request_id,
        schema=dict(schema),
        secret=secret,
        views=views,
        secrets=secrets,
        dictionary=dict(dictionary) if dictionary is not None else None,
        knowledge=dict(knowledge) if knowledge is not None else None,
        engine=engine,
        options=dict(options),
        deadline_ms=deadline_ms,
        trace=trace,
    )


def _check_fact_list(value: Any, key: str) -> List[Any]:
    """Shallow validation of a fact-document list (deep checks at execution)."""
    if not isinstance(value, Sequence) or isinstance(value, str):
        raise ProtocolError(
            ERROR_INVALID_REQUEST, f"{key!r} must be a list of fact documents"
        )
    return list(value)


def _parse_live_request(
    document: Mapping[str, Any],
    op: str,
    request_id: "RequestId",
    options: Mapping[str, Any],
    deadline_ms: Optional[float],
    trace: Optional[Mapping[str, Any]],
) -> AuditRequest:
    """Validate the live-operation envelopes (``live`` names the session)."""
    live = _require(document, "live", op)
    if not isinstance(live, str) or not live:
        raise ProtocolError(
            ERROR_INVALID_REQUEST, "'live' must name the live session (non-empty string)"
        )
    fields: Dict[str, Any] = {
        "op": op,
        "id": request_id,
        "live": live,
        "options": dict(options),
        "deadline_ms": deadline_ms,
        "trace": trace,
    }
    if op == "live-create":
        schema = _require(document, "schema", op)
        if not isinstance(schema, Mapping) or not schema.get("relations"):
            raise ProtocolError(
                ERROR_INVALID_REQUEST,
                "'schema' must be a schema document with a non-empty 'relations' list",
            )
        fields["schema"] = dict(schema)
        fields["secrets"] = _check_queries(_require(document, "secrets", op), "secrets")
        if document.get("views") is not None:
            fields["views"] = _check_queries(document["views"], "views")
        if document.get("facts") is not None:
            fields["facts"] = _check_fact_list(document["facts"], "facts")
        dictionary = document.get("dictionary")
        if dictionary is not None:
            if not isinstance(dictionary, Mapping):
                raise ProtocolError(
                    ERROR_INVALID_REQUEST, "'dictionary' must be a JSON object"
                )
            fields["dictionary"] = dict(dictionary)
    elif op == "apply-delta":
        if document.get("add") is not None:
            fields["add"] = _check_fact_list(document["add"], "add")
        if document.get("remove") is not None:
            fields["remove"] = _check_fact_list(document["remove"], "remove")
        publish = document.get("publish")
        if publish is not None:
            if not isinstance(publish, Mapping) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in publish.items()
            ):
                raise ProtocolError(
                    ERROR_INVALID_REQUEST,
                    "'publish' must map view names to datalog query strings",
                )
            fields["publish"] = dict(publish)
        retract = document.get("retract")
        if retract is not None:
            if (
                not isinstance(retract, Sequence)
                or isinstance(retract, str)
                or not all(isinstance(name, str) for name in retract)
            ):
                raise ProtocolError(
                    ERROR_INVALID_REQUEST, "'retract' must be a list of view names"
                )
            fields["retract"] = list(retract)
        if not any(
            fields.get(key) for key in ("add", "remove", "publish", "retract")
        ):
            raise ProtocolError(
                ERROR_INVALID_REQUEST,
                "'apply-delta' needs at least one of 'add', 'remove', "
                "'publish' or 'retract'",
            )
    # subscribe / live-audit carry nothing beyond the session name.
    return AuditRequest(**fields)


def dictionary_spec(request: AuditRequest) -> Optional[Mapping[str, Any]]:
    """The dictionary-defining fields of a request.

    The per-request ``dictionary`` object wins; otherwise the schema
    document's ``tuple_probability`` / ``expected_size`` keys apply,
    exactly as :func:`repro.io.dictionary_from_dict` reads them.  The
    fingerprints serialise it as decoded, in one ``json.dumps`` whose
    ``sort_keys`` orders nested keys too.
    """
    if request.dictionary is not None:
        return request.dictionary
    schema = request.schema or {}
    spec = {
        key: schema[key]
        for key in ("tuple_probability", "expected_size")
        if key in schema
    }
    return spec or None


def session_key(request: AuditRequest) -> str:
    """The session-sharing fingerprint of a request.

    Requests with equal keys run on one shared
    :class:`~repro.session.AnalysisSession` (hence one critical-tuple
    cache, and one dictionary whose memo table holds the probability
    kernel's compiled artifacts).
    """
    payload = {
        "schema": request.schema,
        "dictionary": dictionary_spec(request),
        "engine": request.engine,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def request_key(request: AuditRequest) -> str:
    """The coalescing/memoization key of an analysis request: everything
    but the request id.

    Two requests with the same key are the same question to the same
    session, so concurrent duplicates await one computation and repeats
    hit the server's result cache.  The key is textual: α-equivalent but
    differently-spelled queries get distinct keys (the session's own
    critical-tuple cache still unifies their heavy work).  Live requests
    are never fingerprinted; :func:`routing_key` keys them by session.
    """
    payload = {
        "op": request.op,
        "schema": request.schema,
        "secret": request.secret,
        "views": request.views,
        "secrets": request.secrets,
        "dictionary": dictionary_spec(request),
        "knowledge": request.knowledge,
        "engine": request.engine,
        "options": request.options,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def routing_key(request: AuditRequest) -> str:
    """The string the fleet router hashes into a rendezvous order of shards.

    For live operations it is derived from the *session name only*, so
    every create, delta, audit and subscription of one live session
    reaches the shard that owns its warm incremental state.  For
    stateless analysis requests it is the full :func:`request_key`; the
    router coalesces and caches duplicates before routing, and uses this
    order only to break ties between equally loaded shards (so an idle
    fleet sends a question to the same owner every time).
    """
    if request.is_live:
        return f"live|{request.live}"
    return request_key(request)


# ---------------------------------------------------------------------------
# Knowledge documents
# ---------------------------------------------------------------------------
def knowledge_from_dict(document: Mapping[str, Any], schema: Schema) -> PriorKnowledge:
    """Build a :class:`PriorKnowledge` from its JSON description.

    Supported kinds::

        {"kind": "keys"}                                    # keys declared on the schema
        {"kind": "keys", "keys": {"Emp": [0]}}              # explicit key positions
        {"kind": "cardinality", "comparison": "at_most",
         "count": 3, "relation": "Emp"}                     # relation optional
        {"kind": "conjunction", "parts": [ ... ]}           # nested documents
    """
    kind = document.get("kind")
    if kind == "keys":
        keys = document.get("keys")
        if keys is None:
            return KeyConstraintKnowledge.from_schema(schema)
        if not isinstance(keys, Mapping):
            raise ProtocolError(
                ERROR_INVALID_REQUEST, "'keys' must map relation names to position lists"
            )
        return KeyConstraintKnowledge(
            {name: tuple(int(p) for p in positions) for name, positions in keys.items()}
        )
    if kind == "cardinality":
        comparison = document.get("comparison")
        count = document.get("count")
        if not isinstance(comparison, str) or not isinstance(count, int):
            raise ProtocolError(
                ERROR_INVALID_REQUEST,
                "cardinality knowledge needs a 'comparison' string and an integer 'count'",
            )
        return CardinalityConstraintKnowledge(
            comparison, count, relation=document.get("relation")
        )
    if kind == "conjunction":
        parts = document.get("parts")
        if not isinstance(parts, Sequence) or not parts:
            raise ProtocolError(
                ERROR_INVALID_REQUEST, "conjunction knowledge needs a non-empty 'parts' list"
            )
        return ConjunctionKnowledge(
            [knowledge_from_dict(part, schema) for part in parts]
        )
    raise ProtocolError(
        ERROR_INVALID_REQUEST,
        f"unsupported knowledge kind {kind!r}; expected 'keys', 'cardinality' "
        "or 'conjunction'",
    )


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------
def encode_message(document: Mapping[str, Any]) -> bytes:
    """Serialise one message to its wire form (JSON + newline)."""
    return json.dumps(document, separators=(",", ":"), default=str).encode("utf8") + b"\n"


def decode_message(line: bytes, max_payload: int = DEFAULT_MAX_PAYLOAD) -> Any:
    """Decode one received line; raises :class:`ProtocolError` on bad input."""
    if len(line) > max_payload:
        raise ProtocolError(
            ERROR_PAYLOAD_TOO_LARGE,
            f"request of {len(line)} bytes exceeds the {max_payload}-byte bound",
        )
    try:
        return json.loads(line.decode("utf8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(ERROR_BAD_JSON, f"request is not valid JSON: {exc}") from exc


def ok_response(
    request_id: RequestId,
    op: str,
    result: Mapping[str, Any],
    server: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """A success envelope; ``server`` adds to the serving tier's flags."""
    server = {"coalesced": False, "cached": False, **(server or {})}
    return {"id": request_id, "ok": True, "op": op, "result": result, "server": server}


def error_response(
    request_id: RequestId,
    code: str,
    message: str,
    *,
    retryable: Optional[bool] = None,
) -> Dict[str, Any]:
    """A structured-error envelope (the connection stays open).

    ``retryable`` defaults to the code's membership in
    :data:`RETRYABLE_ERROR_CODES`; pass it explicitly to override.
    """
    if retryable is None:
        retryable = code in RETRYABLE_ERROR_CODES
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message, "retryable": bool(retryable)},
    }
