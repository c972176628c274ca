"""Tests for the disclosure-audit service (protocol, server, clients).

The server tests boot a real daemon on an ephemeral port via
:class:`~repro.service.server.ServerThread` and talk to it over real
sockets — the malformed-request tests in particular assert the contract
of ISSUE satellite 4: every bad input yields a *structured* error and
neither the connection nor the server dies.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import pytest

from repro.bench import employee_schema
from repro.io import schema_to_dict
from repro.service import (
    AsyncAuditServiceClient,
    AuditServiceClient,
    ProtocolError,
    ServerThread,
    ServiceError,
    parse_request,
    request_key,
)
from repro.service.metrics import ServiceMetrics, percentile
from repro.service.protocol import (
    ERROR_ANALYSIS,
    ERROR_BAD_JSON,
    ERROR_INVALID_REQUEST,
    ERROR_OVERLOADED,
    ERROR_PAYLOAD_TOO_LARGE,
    ERROR_UNKNOWN_OPERATION,
    decode_message,
    encode_message,
    session_key,
)
from repro.workload import WorkloadSpec, generate_workload, table1_templates


def _schema_doc(**sizes) -> dict:
    document = schema_to_dict(employee_schema(**sizes))
    document["tuple_probability"] = "1/4"
    return document


SCHEMA = _schema_doc()
SECRET = "S(n, p) :- Emp(n, d, p)"
VIEWS = {"bob": "V(n, d) :- Emp(n, d, p)"}
SECURE_SECRET = "S4(n) :- Emp(n, HR, p)"
SECURE_VIEWS = {"bob": "V4(n) :- Emp(n, Mgmt, p)"}


@pytest.fixture(scope="module")
def server():
    with ServerThread(workers=4) as running:
        yield running


@pytest.fixture()
def client(server):
    with AuditServiceClient(*server.address) as connected:
        yield connected


# ---------------------------------------------------------------------------
# Protocol envelope validation
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request([1, 2, 3])
        assert excinfo.value.code == ERROR_INVALID_REQUEST

    def test_rejects_missing_op(self):
        with pytest.raises(ProtocolError):
            parse_request({"schema": SCHEMA})

    def test_rejects_unknown_op(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request({"op": "frobnicate"})
        assert excinfo.value.code == ERROR_UNKNOWN_OPERATION

    def test_rejects_missing_schema(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request({"op": "decide", "secret": SECRET, "views": ["V(n) :- Emp(n, d, p)"]})
        assert excinfo.value.code == ERROR_INVALID_REQUEST
        assert "schema" in str(excinfo.value)

    def test_rejects_empty_views(self):
        with pytest.raises(ProtocolError):
            parse_request({"op": "decide", "schema": SCHEMA, "secret": SECRET, "views": []})

    def test_rejects_bad_id(self):
        with pytest.raises(ProtocolError):
            parse_request({"op": "ping", "id": {"nested": True}})

    def test_plan_requires_secrets(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request({"op": "plan", "schema": SCHEMA, "views": VIEWS})
        assert "secrets" in str(excinfo.value)

    def test_knowledge_requires_kind(self):
        with pytest.raises(ProtocolError):
            parse_request(
                {
                    "op": "with_knowledge",
                    "schema": SCHEMA,
                    "secret": SECRET,
                    "views": VIEWS,
                    "knowledge": {"keys": {}},
                }
            )

    def test_control_ops_need_no_schema(self):
        for op in ("ping", "stats", "shutdown"):
            assert parse_request({"op": op}).is_control

    def test_request_key_ignores_id(self):
        base = {"op": "decide", "schema": SCHEMA, "secret": SECRET, "views": VIEWS}
        one = parse_request({**base, "id": 1})
        two = parse_request({**base, "id": "two"})
        assert request_key(one) == request_key(two)

    def test_request_key_distinguishes_views(self):
        base = {"op": "decide", "schema": SCHEMA, "secret": SECRET}
        one = parse_request({**base, "views": VIEWS})
        two = parse_request({**base, "views": SECURE_VIEWS})
        assert request_key(one) != request_key(two)

    def test_session_key_groups_by_schema_and_engine(self):
        base = {"op": "decide", "schema": SCHEMA, "secret": SECRET, "views": VIEWS}
        one = parse_request(base)
        two = parse_request({**base, "secret": SECURE_SECRET})
        assert session_key(one) == session_key(two)
        other_engine = parse_request({**base, "engine": "sampling"})
        assert session_key(one) != session_key(other_engine)

    def test_decode_rejects_bad_json(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_message(b"{not json\n")
        assert excinfo.value.code == ERROR_BAD_JSON

    def test_decode_rejects_oversized(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_message(b"x" * 100, max_payload=50)
        assert excinfo.value.code == ERROR_PAYLOAD_TOO_LARGE

    def test_encode_round_trip(self):
        document = {"op": "ping", "id": 7}
        assert decode_message(encode_message(document)) == document


def _canonical_walk(value):
    """A reference normal form: mappings with ``str`` keys in sorted order,
    sequences as lists (the oracle of the fingerprints' key order)."""
    if isinstance(value, dict):
        return {
            str(k): _canonical_walk(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [_canonical_walk(v) for v in value]
    return value


def _reference_keys(request):
    """``(request_key, session_key)`` built from the normalised fields."""
    if request.dictionary is not None:
        spec = _canonical_walk(request.dictionary)
    else:
        schema = request.schema or {}
        spec = {k: schema[k] for k in ("tuple_probability", "expected_size") if k in schema}
        spec = _canonical_walk(spec) if spec else None

    def dumps(payload):
        return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)

    request_payload = {
        "op": request.op,
        "schema": _canonical_walk(request.schema),
        "secret": request.secret,
        "views": _canonical_walk(request.views),
        "secrets": _canonical_walk(request.secrets),
        "dictionary": spec,
        "knowledge": _canonical_walk(request.knowledge),
        "engine": request.engine,
        "options": _canonical_walk(request.options),
    }
    session_payload = {
        "schema": _canonical_walk(request.schema),
        "dictionary": spec,
        "engine": request.engine,
    }
    return dumps(request_payload), dumps(session_payload)


class TestFingerprints:
    """A fingerprint is one ``json.dumps`` of the decoded fields, byte for
    byte the string built from the normalised fields."""

    def _documents(self):
        documents = table1_templates() + table1_templates("1/2")
        documents += generate_workload(
            WorkloadSpec(seed=11, requests=120, random_fraction=0.5)
        )
        base = {"schema": SCHEMA, "secret": SECRET, "views": VIEWS}
        nested = {"z": {"b": [1, {"y": 2, "x": [3, {"q": None}]}], "a": 1.5}, "m": "s"}
        documents += [
            {"op": "leakage", **base, "dictionary": {"uniform": "1/3", "z": nested}},
            {"op": "leakage", **base, "options": {"max_view_rows": 2, "nested": nested}},
            {
                "op": "with_knowledge",
                **base,
                "knowledge": {
                    "kind": "conjunction",
                    "parts": [{"kind": "keys", "keys": {"Emp": [0, 2]}}, {"kind": "keys"}],
                },
            },
            {
                "op": "plan",
                "schema": {**SCHEMA, "expected_size": 3, "extra": nested},
                "secrets": {"s2": SECRET, "s1": SECURE_SECRET},
                "views": ["V(n) :- Emp(n, d, p)", "W(p) :- Emp(n, d, p)"],
                "engine": "sampling",
            },
        ]
        return documents

    def test_keys_match_the_canonical_walk(self):
        documents = self._documents()
        for document in documents:
            # Decoded from the wire, as the server sees it.
            request = parse_request(decode_message(encode_message(document)))
            assert (request_key(request), session_key(request)) == _reference_keys(request)

    def test_key_order_never_splits_a_fingerprint(self):
        document = {
            "op": "leakage",
            "schema": SCHEMA,
            "secret": SECRET,
            "views": VIEWS,
            "dictionary": {"uniform": "1/3", "z": {"b": 1, "a": 2}},
        }
        shuffled = json.loads(json.dumps(document))
        shuffled["dictionary"] = {"z": {"a": 2, "b": 1}, "uniform": "1/3"}
        shuffled = dict(reversed(list(shuffled.items())))
        one, two = parse_request(document), parse_request(shuffled)
        assert request_key(one) == request_key(two)
        assert session_key(one) == session_key(two)


class TestMetrics:
    def test_percentile_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert percentile([5.0], 95) == 5.0

    def test_snapshot_totals(self):
        metrics = ServiceMetrics()
        metrics.observe("decide", "computed", 0.01)
        metrics.observe("decide", "coalesced", 0.001)
        metrics.observe("decide", "cached", 0.0001)
        metrics.observe("quick", "error")
        snapshot = metrics.snapshot()
        assert snapshot["totals"]["requests"] == 4
        assert snapshot["totals"]["duplicate_hits"] == 2
        assert snapshot["totals"]["coalescing_hit_rate"] == 0.25
        assert snapshot["operations"]["decide"]["latency_ms"]["count"] == 3

    def test_rejects_unknown_outcome(self):
        with pytest.raises(ValueError):
            ServiceMetrics().observe("decide", "mystery")


# ---------------------------------------------------------------------------
# End-to-end operations
# ---------------------------------------------------------------------------
class TestOperations:
    def test_ping(self, client):
        assert client.ping() is True

    def test_decide_disclosure(self, client):
        result = client.call("decide", schema=SCHEMA, secret=SECRET, views=VIEWS)
        assert result["verdict"] is False
        assert result["kind"] == "decide"
        assert result["common_critical_count"] > 0

    def test_decide_secure(self, client):
        result = client.call(
            "decide", schema=SCHEMA, secret=SECURE_SECRET, views=SECURE_VIEWS
        )
        assert result["verdict"] is True

    def test_quick(self, client):
        result = client.call(
            "quick", schema=SCHEMA, secret=SECURE_SECRET, views=SECURE_VIEWS
        )
        assert result["kind"] == "quick-check"

    def test_collusion(self, client):
        result = client.call(
            "collusion",
            schema=SCHEMA,
            secret=SECRET,
            views={"bob": "V(n, d) :- Emp(n, d, p)", "carol": "W(d, p) :- Emp(n, d, p)"},
        )
        assert result["verdict"] is False
        assert "bob" in result["insecure_recipients"]

    def test_leakage(self, client):
        result = client.call("leakage", schema=SCHEMA, secret=SECRET, views=VIEWS)
        assert result["verdict"] is False
        assert 0 < result["leakage"]["float"] <= 1

    def test_verify(self, client):
        result = client.call(
            "verify", schema=SCHEMA, secret=SECURE_SECRET, views=SECURE_VIEWS
        )
        assert result["verdict"] is True
        assert result["engine"] == "exact"

    def test_with_knowledge_keys(self, client):
        result = client.call(
            "with_knowledge",
            schema=SCHEMA,
            secret=SECRET,
            views=VIEWS,
            knowledge={"kind": "keys", "keys": {"Emp": [0]}},
        )
        assert result["kind"] == "with-knowledge"
        assert result["conclusive"] is True

    def test_with_knowledge_cardinality(self, client):
        result = client.call(
            "with_knowledge",
            schema=SCHEMA,
            secret=SECURE_SECRET,
            views=SECURE_VIEWS,
            knowledge={"kind": "cardinality", "comparison": "at_most", "count": 3},
        )
        assert result["kind"] == "with-knowledge"

    def test_plan(self, client):
        result = client.call(
            "plan",
            schema=SCHEMA,
            secrets={"hr": "S(n) :- Emp(n, HR, p)", "pairs": SECRET},
            views={"bob": "V(n) :- Emp(n, Mgmt, p)", "carol": "W(n, d) :- Emp(n, d, p)"},
        )
        assert result["verdict"] is False
        entries = {(e["secret"], e["recipient"]): e["secure"] for e in result["entries"]}
        assert entries[("hr", "bob")] is True
        assert entries[("pairs", "carol")] is False

    def test_audit_includes_observability(self, client):
        result = client.call("audit", schema=SCHEMA, secret=SECRET, views=VIEWS)
        assert result["all_secure"] is False
        assert result["verdict"] is False  # the uniform field every op carries
        assert result["findings"][0]["disclosure"]
        observability = result["observability"]
        assert "critical_tuple_cache" in observability
        assert observability["engines"]["verification"] == "exact"

    def test_dictionary_override(self, client):
        result = client.call(
            "leakage",
            schema=SCHEMA,
            secret=SECRET,
            views=VIEWS,
            dictionary={"tuple_probability": "1/2"},
        )
        assert result["kind"] == "leakage"

    def test_stats_reports_sessions(self, client):
        client.call("decide", schema=SCHEMA, secret=SECRET, views=VIEWS)
        client.call("verify", schema=SCHEMA, secret=SECRET, views=VIEWS)
        stats = client.stats()
        assert stats["totals"]["requests"] > 0
        assert stats["queue_limit"] >= 1
        assert any(s["engine"] == "exact" for s in stats["sessions"])
        # quantitative ops ran on this schema, so kernel counters surface
        assert any("kernels" in s for s in stats["sessions"])
        # one crit_D cache serves every session, and stats report it once
        assert stats["crit_cache"]["misses"] > 0
        assert all("cache" not in s for s in stats["sessions"])

    def test_sessions_share_one_critical_tuple_cache(self, client):
        # Two dictionaries over one schema are two sessions, but crit_D
        # depends only on the schema, the query and the domain: the
        # second decide finds every set the first one computed.  The
        # relation name is this test's own, so the process-wide cache
        # holds none of its sets before the first decide.
        schema = {
            "relations": [{"name": "Rota", "attributes": ["nurse", "ward"]}],
            "domain": ["a", "b"],
            "tuple_probability": "1/4",
        }
        fields = dict(secret="S(n) :- Rota(n, w)", views={"bob": "V(w) :- Rota(n, w)"})
        first = client.request("decide", schema=schema, **fields)
        schema = {**schema, "tuple_probability": "2/5"}
        second = client.request("decide", schema=schema, **fields)
        assert not first["server"]["cached"] and not second["server"]["cached"]
        assert first["result"]["cache_used"]["misses"] > 0
        assert second["result"]["cache_used"]["misses"] == 0
        assert second["result"]["cache_used"]["hits"] > 0

    def test_repeat_request_hits_result_cache(self, client):
        fields = dict(schema=SCHEMA, secret=SECURE_SECRET, views=SECURE_VIEWS)
        first = client.request("decide", **fields)
        second = client.request("decide", **fields)
        assert first["ok"] and second["ok"]
        assert second["server"]["cached"] is True
        assert second["result"] == first["result"]


# ---------------------------------------------------------------------------
# Malformed requests must not kill the connection or the server
# ---------------------------------------------------------------------------
class TestMalformedRequests:
    def test_bad_json_keeps_connection(self, client):
        response = client.send_raw(b"this is not json\n")
        assert response["ok"] is False
        assert response["error"]["code"] == ERROR_BAD_JSON
        assert client.ping() is True  # same connection still serves

    def test_unhashable_op_keeps_connection(self, client):
        # A dict-valued op crashed the pre-parse op lookup once; it must
        # yield a structured error like every other malformed envelope.
        response = client.send_raw(
            json.dumps({"op": {"nested": True}}).encode() + b"\n"
        )
        assert response["ok"] is False
        assert response["error"]["code"] == ERROR_INVALID_REQUEST
        assert client.ping() is True

    def test_unknown_operation(self, client):
        response = client.request("escalate", schema=SCHEMA)
        assert response["ok"] is False
        assert response["error"]["code"] == ERROR_UNKNOWN_OPERATION
        assert client.ping() is True

    def test_missing_schema_field(self, client):
        response = client.request("decide", secret=SECRET, views=VIEWS)
        assert response["ok"] is False
        assert response["error"]["code"] == ERROR_INVALID_REQUEST
        assert "schema" in response["error"]["message"]
        assert client.ping() is True

    def test_unparsable_query_is_analysis_error(self, client):
        response = client.request(
            "decide", schema=SCHEMA, secret="not a datalog query", views=VIEWS
        )
        assert response["ok"] is False
        assert response["error"]["code"] == ERROR_ANALYSIS
        assert client.ping() is True

    def test_bad_engine_is_analysis_error(self, client):
        response = client.request(
            "decide", schema=SCHEMA, secret=SECRET, views=VIEWS, engine="quantum"
        )
        assert response["ok"] is False
        assert response["error"]["code"] == ERROR_ANALYSIS

    def test_service_error_raised_by_call(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.call("decide", schema=SCHEMA, secret="broken(", views=VIEWS)
        assert excinfo.value.code == ERROR_ANALYSIS

    def test_oversized_payload(self):
        # A dedicated server with a tiny payload bound: an oversized line
        # below the stream limit earns a structured error and the
        # connection keeps serving.
        with ServerThread(workers=1, max_payload=2048) as server:
            with AuditServiceClient(*server.address) as client:
                padding = "x" * 4000
                response = client.request("ping", padding=padding)
                assert response["ok"] is False
                assert response["error"]["code"] == ERROR_PAYLOAD_TOO_LARGE
                assert client.ping() is True
                # Far beyond the stream limit the framing is lost: the
                # server answers once, drops that connection, survives.
                with AuditServiceClient(*server.address) as flooder:
                    response = flooder.request("ping", padding="y" * 50000)
                    assert response["ok"] is False
                    assert response["error"]["code"] == ERROR_PAYLOAD_TOO_LARGE
                assert client.ping() is True

    def test_server_survives_abrupt_disconnect(self, server, client):
        raw = socket.create_connection(server.address)
        raw.sendall(b'{"op": "ping"}\n')
        raw.close()  # vanish without reading the response
        assert client.ping() is True

    def test_envelope_errors_attributed_to_named_op(self):
        with ServerThread(workers=1) as server:
            with AuditServiceClient(*server.address) as client:
                client.request("decide", secret=SECRET, views=VIEWS)  # no schema
                stats = client.stats()
            assert stats["operations"]["decide"]["error"] == 1
            assert "unknown" not in stats["operations"]


# ---------------------------------------------------------------------------
# Coalescing and load shedding
# ---------------------------------------------------------------------------
def _burst(address, count, document):
    """Fire `count` identical requests concurrently; return the envelopes."""

    async def _run():
        clients = [AsyncAuditServiceClient(*address) for _ in range(count)]
        try:
            return await asyncio.gather(
                *(client.request(**document) for client in clients)
            )
        finally:
            for client in clients:
                await client.close()

    return asyncio.run(_run())


class TestCoalescing:
    def test_identical_burst_computes_once(self):
        with ServerThread(workers=2) as server:
            count = 12
            responses = _burst(
                server.address,
                count,
                dict(op="decide", schema=SCHEMA, secret=SECRET, views=VIEWS),
            )
            assert all(r["ok"] for r in responses)
            verdicts = {json.dumps(r["result"]["verdict"]) for r in responses}
            assert verdicts == {"false"}
            duplicates = sum(
                r["server"]["coalesced"] or r["server"]["cached"] for r in responses
            )
            assert duplicates >= count - 1
            snapshot = server.server.metrics.snapshot()
            assert snapshot["totals"]["duplicate_hits"] >= count - 1
            assert snapshot["operations"]["decide"]["computed"] == 1

    def test_distinct_requests_not_coalesced(self):
        with ServerThread(workers=2) as server:
            with AuditServiceClient(*server.address) as client:
                first = client.request("decide", schema=SCHEMA, secret=SECRET, views=VIEWS)
                second = client.request(
                    "decide", schema=SCHEMA, secret=SECURE_SECRET, views=SECURE_VIEWS
                )
            assert first["server"] == {"coalesced": False, "cached": False,
                                       "elapsed_ms": first["server"]["elapsed_ms"]}
            assert second["server"]["cached"] is False


class TestLoadShedding:
    def test_overloaded_requests_get_structured_error(self):
        # One worker, queue depth 1: concurrent *distinct* slow requests
        # beyond the first must be shed with an `overloaded` error.
        with ServerThread(workers=1, queue_limit=1) as server:
            slow = dict(
                op="verify",
                schema=SCHEMA,
                secret=SECRET,
                views=VIEWS,
                engine="sampling",
                options={"samples": 30000},
            )

            async def _run():
                clients = [AsyncAuditServiceClient(*server.address) for _ in range(3)]
                try:
                    tasks = []
                    for index, client in enumerate(clients):
                        document = dict(slow)
                        # distinct seeds -> distinct request keys -> no coalescing
                        document["options"] = {**slow["options"], "seed": index}
                        tasks.append(asyncio.create_task(client.request(**document)))
                        await asyncio.sleep(0.05)
                    return await asyncio.gather(*tasks)
                finally:
                    for client in clients:
                        await client.close()

            responses = asyncio.run(_run())
            outcomes = [r["ok"] for r in responses]
            assert outcomes[0] is True
            shed = [r for r in responses if not r["ok"]]
            assert shed, "expected at least one request to be shed"
            assert all(r["error"]["code"] == ERROR_OVERLOADED for r in shed)
            # the daemon survives and recovers
            with AuditServiceClient(*server.address) as client:
                assert client.ping() is True
                assert client.stats()["totals"]["shed"] >= 1


class TestLifecycle:
    def test_shutdown_request_stops_server(self):
        server = ServerThread(workers=1).start()
        with AuditServiceClient(*server.address) as client:
            assert client.shutdown() == {"stopping": True}
        server._thread and server._thread.join(timeout=10)
        # the socket must be gone
        with pytest.raises(OSError):
            socket.create_connection(server.address, timeout=0.5).close()
        server.stop()

    def test_inflight_work_finishes_before_shutdown(self):
        with ServerThread(workers=2) as server:
            results = {}

            def _slow_then_read():
                with AuditServiceClient(*server.address) as client:
                    results["slow"] = client.request(
                        "verify",
                        schema=SCHEMA,
                        secret=SECRET,
                        views=VIEWS,
                        engine="sampling",
                        options={"samples": 20000},
                    )

            worker = threading.Thread(target=_slow_then_read)
            worker.start()
            import time as _time

            _time.sleep(0.1)
            with AuditServiceClient(*server.address) as client:
                client.shutdown()
            worker.join(timeout=30)
            assert results["slow"]["ok"] is True
