"""Tests for the live-session protocol operations of the audit service.

These boot a real single-process daemon (:class:`ServerThread`) and
exercise ``live-create`` / ``apply-delta`` / ``live-audit`` /
``subscribe`` over real sockets: session lifecycle, per-delta
notification fan-out, uncached audits, and the error contract for
unknown or duplicate sessions.  The stale-answer
regressions run against the fleet (:class:`FleetThread`) as well.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import faults
from repro.bench import employee_schema
from repro.io import schema_to_dict
from repro.service import (
    AuditServiceClient,
    FaultPlan,
    FleetThread,
    ProtocolError,
    ServerThread,
    ServiceError,
    parse_request,
)
from repro.service.protocol import ERROR_ANALYSIS, ERROR_INVALID_REQUEST


def _schema_doc(**sizes) -> dict:
    document = schema_to_dict(employee_schema(**sizes))
    document["tuple_probability"] = "1/4"
    return document


SCHEMA = _schema_doc()
SECRET = "S(n, p) :- Emp(n, d, p)"
VIEWS = {"bob": "V(n, d) :- Emp(n, d, p)"}
SECURE_SECRET = "S4(n) :- Emp(n, 'd0', p)"
SECURE_VIEWS = {"bob": "V4(n) :- Emp(n, 'd1', p)"}
FACT = ["Emp", ["n0", "d0", "p0"]]
OTHER_FACT = ["Emp", ["n1", "d1", "p1"]]


@pytest.fixture(scope="module")
def server():
    with ServerThread(workers=2) as running:
        yield running


@pytest.fixture()
def client(server):
    with AuditServiceClient(*server.address) as connected:
        yield connected


_counter = iter(range(10_000))


def _create(client, name=None, **overrides) -> str:
    """Create a fresh live session with a unique name; return the name."""
    name = name or f"live-{next(_counter)}"
    fields = {
        "live": name,
        "schema": SCHEMA,
        "secrets": {"s": SECRET},
        "views": VIEWS,
        "facts": [FACT],
    }
    fields.update(overrides)
    result = client.call("live-create", **fields)
    assert result["created"] is True
    return name


# ---------------------------------------------------------------------------
# Protocol validation of the live envelopes
# ---------------------------------------------------------------------------
class TestLiveProtocol:
    def test_live_name_required(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request({"op": "apply-delta", "add": [FACT]})
        assert excinfo.value.code == ERROR_INVALID_REQUEST

    def test_empty_delta_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request({"op": "apply-delta", "live": "x"})
        assert "at least one" in str(excinfo.value)

    def test_publish_must_map_names_to_queries(self):
        with pytest.raises(ProtocolError):
            parse_request({"op": "apply-delta", "live": "x", "publish": ["V(n) :- Emp(n, d, p)"]})

    def test_retract_must_be_name_list(self):
        with pytest.raises(ProtocolError):
            parse_request({"op": "apply-delta", "live": "x", "retract": "bob"})

    def test_live_create_requires_secrets(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request({"op": "live-create", "live": "x", "schema": SCHEMA})
        assert "secrets" in str(excinfo.value)

    def test_live_ops_are_flagged(self):
        request = parse_request(
            {"op": "apply-delta", "live": "x", "add": [FACT]}
        )
        assert request.is_live and request.is_live_mutation
        audit = parse_request({"op": "live-audit", "live": "x"})
        assert audit.is_live and not audit.is_live_mutation


# ---------------------------------------------------------------------------
# Session lifecycle over the wire
# ---------------------------------------------------------------------------
class TestLiveLifecycle:
    def test_create_then_audit(self, client):
        name = _create(client)
        snapshot = client.call("live-audit", live=name)
        assert snapshot["revision"] == 0
        assert snapshot["fact_count"] == 1
        assert snapshot["secrets"]["s"]["secure"] is False
        assert snapshot["secrets"]["s"]["exposed"] is True
        assert snapshot["view_names"] == ["bob"]

    def test_live_sessions_read_the_process_crit_cache(self):
        # A decide puts crit(S) and crit(V) in the process cache; a live
        # session over the same pair reads them there instead of
        # recomputing them in a cache of its own.
        with ServerThread(workers=1) as server, AuditServiceClient(*server.address) as fresh:
            fresh.call("decide", schema=SCHEMA, secret=SECRET, views=VIEWS)
            before = fresh.call("stats")["crit_cache"]
            _create(fresh)
            after = fresh.call("stats")["crit_cache"]
        assert after["hits"] - before["hits"] >= 2
        assert after["misses"] == before["misses"]

    def test_duplicate_create_is_an_analysis_error(self, client):
        name = _create(client)
        with pytest.raises(ServiceError) as excinfo:
            _create(client, name=name)
        assert excinfo.value.code == ERROR_ANALYSIS
        assert "already exists" in str(excinfo.value)

    def test_unknown_session_is_an_analysis_error(self, client):
        for op in ("live-audit", "apply-delta"):
            with pytest.raises(ServiceError) as excinfo:
                client.call(op, live="never-created", add=[FACT])
            assert excinfo.value.code == ERROR_ANALYSIS

    def test_store_backed_session(self, client):
        name = _create(client, options={"store": True})
        snapshot = client.call("live-audit", live=name)
        assert snapshot["store_backed"] is True
        result = client.call("apply-delta", live=name, add=[OTHER_FACT])
        assert result["fact_count"] == 2

    def test_sql_engine_session_matches_default(self, client):
        # A store-backed session runs every evaluation on the sql engine.
        default_name = _create(client)
        sql_name = _create(client, options={"store": True})
        for name in (default_name, sql_name):
            client.call("apply-delta", live=name, add=[OTHER_FACT])
        default = client.call("live-audit", live=default_name)
        via_sql = client.call("live-audit", live=sql_name)
        assert via_sql["store_backed"] is True
        assert via_sql["secrets"] == default["secrets"]
        assert via_sql["views"] == default["views"]
        assert via_sql["fact_count"] == default["fact_count"]


class TestApplyDelta:
    def test_delta_advances_revision_and_counts_events(self, client):
        name = _create(client)
        result = client.call("apply-delta", live=name, add=[OTHER_FACT])
        assert result["event"] == "apply-delta"
        assert result["revision"] == 1
        assert result["fact_count"] == 2
        assert result["events"] == 1
        result = client.call(
            "apply-delta", live=name, remove=[FACT, OTHER_FACT]
        )
        assert result["revision"] == 2
        assert result["fact_count"] == 0
        # The answer emptied out, so the insecure secret is no longer exposed.
        assert result["secrets"]["s"]["exposed"] is False

    def test_live_audits_are_never_cached(self, client):
        name = _create(client)
        first = client.request("live-audit", live=name)
        second = client.request("live-audit", live=name)
        client.call("apply-delta", live=name, add=[OTHER_FACT])
        third = client.request("live-audit", live=name)
        assert third["result"]["fact_count"] == 2
        for response in (first, second, third):
            assert response["server"]["cached"] is False
            assert not response["server"].get("fleet_cached")

    def test_publish_and_retract_in_one_request(self, client):
        name = _create(
            client, secrets={"s": SECURE_SECRET}, views=SECURE_VIEWS
        )
        assert client.call("live-audit", live=name)["secrets"]["s"]["secure"] is True
        result = client.call(
            "apply-delta",
            live=name,
            publish={"leak": "V5(n, p) :- Emp(n, d, p)"},
            add=[OTHER_FACT],
        )
        assert result["events"] == 2  # one publish + one fact delta
        assert result["secrets"]["s"]["secure"] is False
        result = client.call("apply-delta", live=name, retract=["leak"])
        assert result["events"] == 1
        assert result["secrets"]["s"]["secure"] is True

    def test_retract_unknown_view_is_an_analysis_error(self, client):
        name = _create(client)
        with pytest.raises(ServiceError) as excinfo:
            client.call("apply-delta", live=name, retract=["nope"])
        assert excinfo.value.code == ERROR_ANALYSIS

    def test_stats_reports_live_sessions(self, client):
        name = _create(client)
        client.call("apply-delta", live=name, add=[OTHER_FACT])
        stats = client.stats()
        assert name in stats["live"]
        entry = stats["live"][name]
        assert entry["revision"] == 1
        assert entry["facts"] == 2
        assert entry["stats"]["deltas"] == 1


# ---------------------------------------------------------------------------
# Subscribe streaming
# ---------------------------------------------------------------------------
class TestSubscribe:
    def test_subscribe_unknown_session_fails_eagerly(self, server):
        with AuditServiceClient(*server.address) as subscriber:
            with pytest.raises(ServiceError) as excinfo:
                subscriber.subscribe("never-created")
            assert excinfo.value.code == ERROR_ANALYSIS

    def test_notifications_stream_per_event(self, server, client):
        name = _create(client)
        subscriber = AuditServiceClient(*server.address)
        stream = subscriber.subscribe(name)
        received = []
        done = threading.Event()

        def _pump():
            for notification in stream:
                received.append(notification)
                if len(received) >= 3:
                    done.set()
                    return

        thread = threading.Thread(target=_pump, daemon=True)
        thread.start()
        try:
            client.call("apply-delta", live=name, add=[OTHER_FACT])
            client.call(
                "apply-delta",
                live=name,
                publish={"extra": "V6(n) :- Emp(n, d, p)"},
                remove=[FACT],
            )
            assert done.wait(10.0), f"got {len(received)} notifications"
        finally:
            subscriber.interrupt()
            thread.join(5.0)
            subscriber.close()
        events = [note["event"] for note in received]
        assert events == ["apply-delta", "publish", "apply-delta"]
        revisions = [note["revision"] for note in received]
        assert revisions == sorted(revisions)
        assert all(note["live"] for note in received)
        # The last notification reflects the final state: one fact net.
        assert received[-1]["fact_count"] == 1

    def test_stream_matches_final_audit(self, server, client):
        name = _create(client)
        subscriber = AuditServiceClient(*server.address)
        stream = subscriber.subscribe(name)
        received = []
        done = threading.Event()

        def _pump():
            for notification in stream:
                received.append(notification)
                if len(received) >= 2:
                    done.set()
                    return

        thread = threading.Thread(target=_pump, daemon=True)
        thread.start()
        try:
            client.call("apply-delta", live=name, add=[OTHER_FACT])
            client.call("apply-delta", live=name, remove=[FACT])
            assert done.wait(10.0)
        finally:
            subscriber.interrupt()
            thread.join(5.0)
            subscriber.close()
        final = client.call("live-audit", live=name)
        last = received[-1]
        assert last["revision"] == final["revision"]
        assert last["fact_count"] == final["fact_count"]
        # The verdicts agree; only the per-event ``changed`` flag is
        # delta-relative (a snapshot never reports changes).
        def _verdict(doc):
            return {
                name: {k: v for k, v in entry.items() if k != "changed"}
                for name, entry in doc["secrets"].items()
            }

        assert _verdict(last) == _verdict(final)


# ---------------------------------------------------------------------------
# A live-audit answer describes one database state; it must never be
# served once that state is gone (both front doors)
# ---------------------------------------------------------------------------
def _boot(kind: str, *, fleet_workers: int, **worker_options):
    if kind == "server":
        return ServerThread(workers=2, **worker_options)
    return FleetThread(
        workers=fleet_workers, worker_threads=2, worker_options=worker_options
    )


@pytest.mark.parametrize("kind", ["server", "fleet"])
class TestStaleLiveAnswers:
    def test_audit_in_flight_across_a_delta_is_not_served_after_it(self, kind):
        # The first live-audit answer is held back 0.6s on its way out;
        # a delta is acknowledged meanwhile.  At revision 1 the database
        # holds two facts, so no later audit may describe revision 0.
        faults.install(FaultPlan.from_spec({"seed": 0, "faults": [
            {"point": "server.respond", "action": "delay", "op": "live-audit",
             "delay": 0.6, "count": 1},
        ]}))
        try:
            with _boot(kind, fleet_workers=2) as service:
                with AuditServiceClient(*service.address, timeout=30) as client:
                    _create(client, name="race", facts=[FACT])
                    held = {}

                    def audit() -> None:
                        with AuditServiceClient(*service.address, timeout=30) as other:
                            held["first"] = other.request("live-audit", live="race")

                    thread = threading.Thread(target=audit)
                    thread.start()
                    time.sleep(0.2)  # the first audit is in flight
                    delta = client.call("apply-delta", live="race", add=[OTHER_FACT])
                    assert (delta["revision"], delta["fact_count"]) == (1, 2)
                    thread.join(timeout=30)
                    fresh = client.request("live-audit", live="race")
            assert held["first"]["ok"] and held["first"]["result"]["revision"] == 0
            assert fresh["ok"] is True
            assert fresh["result"]["revision"] == 1
            assert fresh["result"]["fact_count"] == 2
            assert not fresh["server"].get("fleet_cached")
        finally:
            faults.uninstall()

    def test_evicted_and_recreated_session_is_never_answered_from_cache(self, kind):
        with _boot(kind, fleet_workers=1, max_live=1) as service:
            with AuditServiceClient(*service.address, timeout=30) as client:
                _create(client, name="x", facts=[FACT])
                assert client.call("live-audit", live="x")["fact_count"] == 1
                assert client.call("live-audit", live="x")["fact_count"] == 1
                _create(client, name="y")  # max_live=1: evicts x
                with pytest.raises(ServiceError) as excinfo:
                    client.call("live-audit", live="x")
                assert excinfo.value.code == ERROR_ANALYSIS
                assert "no live session named 'x'" in str(excinfo.value)
                _create(client, name="x", facts=[FACT, OTHER_FACT])
                again = client.request("live-audit", live="x")
        assert again["ok"] is True
        assert again["result"]["fact_count"] == 2
        assert again["result"]["revision"] == 0
        assert not again["server"]["cached"]
        assert not again["server"].get("fleet_cached")
