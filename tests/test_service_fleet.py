"""Tests for the pre-forked multi-worker audit fleet.

These boot a real router plus real worker processes
(:class:`~repro.service.fleet.FleetThread`) and talk to them over real
sockets, covering the PR's hard guarantees:

* a burst of identical requests on distinct connections costs exactly
  one computation *fleet-wide* (the router's in-flight table and cache);
* an idle fleet routes each fingerprint to its rendezvous owner, while
  concurrent uncached requests go to the least-loaded healthy shard,
  counted from admission, a recovering shard gets exactly one probe,
  and a shard whose worker is being re-forked gets no analyses;
* ``stats`` is the router's own record of the requests it answered,
  with per-shard queue depths, and marks itself ``partial`` while a
  worker cannot answer;
* drain-then-stop answers every in-flight request across multiple
  workers and reaps every worker process (no orphans);
* a crashed worker fails its in-flight requests with a *retryable*
  structured error, restarts, and re-serves the same fingerprint;
* saturation sheds with structured ``overloaded`` answers, and only
  once every healthy shard is full;
* a busy port is a one-line :class:`ReproError`, not a traceback.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import signal
import socket
import threading
import time

import pytest

from repro import faults
from repro.bench import employee_schema
from repro.exceptions import ReproError
from repro.io import schema_to_dict
from repro.service import (
    AuditServiceClient,
    FaultPlan,
    FaultRule,
    FleetCoalescer,
    FleetThread,
    parse_request,
    request_key,
)
from repro.service.pipeline import fingerprint as pipeline_fingerprint
from repro.service.protocol import ERROR_OVERLOADED, ERROR_WORKER_CRASHED


def _schema_doc(**sizes) -> dict:
    document = schema_to_dict(employee_schema(**sizes))
    document["tuple_probability"] = "1/4"
    return document


SCHEMA = _schema_doc()
SECRET = "S(n, p) :- Emp(n, d, p)"
VIEWS = {"bob": "V(n, d) :- Emp(n, d, p)"}

#: Distinct ``leakage`` requests for the lifecycle and load tests.  A
#: ``server.execute`` delay rule (:func:`_hold_leakages`), not their own
#: computing time, keeps them in flight while a test kills, drains or
#: saturates the fleet.
SLOW_SCHEMA = _schema_doc(names=3)
SLOW_SECRETS = [
    "S(p) :- Emp(n0, d, p)",
    "S(p) :- Emp(n1, d, p)",
    "S(p) :- Emp(n2, d, p)",
    "S(n) :- Emp(n, d0, p)",
    "S(n) :- Emp(n, d1, p)",
    "S(n, p) :- Emp(n, d, p)",
    "S(d, p) :- Emp(n, d, p)",
    "S(p) :- Emp(n, d0, p)",
]


def _fingerprint(document: dict) -> str:
    return hashlib.sha256(
        request_key(parse_request(document)).encode("utf8")
    ).hexdigest()


def _slow_request(secret: str) -> dict:
    return {
        "op": "leakage",
        "schema": SLOW_SCHEMA,
        "secret": secret,
        "views": VIEWS,
    }


def _hold_leakages(delay: float) -> None:
    """Install a plan that holds every ``leakage`` ``delay`` s in its worker.

    Install it before the fleet starts: the forked workers inherit it.
    """
    faults.install(FaultPlan([FaultRule(
        point="server.execute", action="delay", op="leakage", delay=delay, count=None,
    )]))


def _await_executing(fleet: FleetThread, counts: dict, timeout: float = 30.0) -> None:
    """Poll fleet ``stats`` until shard ``i``'s worker holds ``counts[i]`` requests."""
    deadline = time.time() + timeout
    with AuditServiceClient(*fleet.address) as connection:
        while time.time() < deadline:
            shards = connection.stats()["fleet"]["shards"]
            pending = {entry["shard"]: entry.get("worker", {}).get("pending") for entry in shards}
            if all(pending[shard] == count for shard, count in counts.items()):
                return
            time.sleep(0.01)
    raise AssertionError(f"the workers never held {counts} requests at once")


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test leaves the process without an active fault plan."""
    yield
    faults.uninstall()


def _wait_restart(fleet: FleetThread, shard: int, old_pid: int, timeout: float = 30.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        pids = fleet.fleet.worker_pids
        if pids[shard] not in (old_pid, -1):
            return pids[shard]
        time.sleep(0.05)
    raise AssertionError(f"worker {shard} did not restart within {timeout}s")


@contextlib.contextmanager
def _refork_held(fleet: FleetThread, shard: int = 0):
    """SIGKILL ``shard``'s worker and hold its re-fork until the block ends.

    Yields the killed pid once the supervisor has seen the crash.
    """
    router = fleet.fleet
    release = threading.Event()
    spawn = router._spawn

    async def held_spawn(target):
        while target.index == shard and not release.is_set():
            await asyncio.sleep(0.02)
        await spawn(target)

    router._spawn = held_spawn
    victim = router.worker_pids[shard]
    os.kill(victim, signal.SIGKILL)
    try:
        deadline = time.time() + 30
        while router.worker_pids[shard] != -1 and time.time() < deadline:
            time.sleep(0.02)
        assert router.worker_pids[shard] == -1, "the supervisor never saw the crash"
        yield victim
        assert router.worker_pids[shard] == -1, f"shard {shard} came back mid-test"
    finally:
        release.set()


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.fixture(scope="module")
def fleet():
    with FleetThread(workers=2, worker_threads=2) as running:
        yield running


@pytest.fixture(scope="module")
def client(fleet):
    with AuditServiceClient(*fleet.address) as connected:
        yield connected


class TestFleetBasics:
    def test_ping_reports_fleet_shape(self, client):
        result = client.call("ping")
        assert result["pong"] is True
        assert result["fleet"]["workers"] == 2

    def test_decide_matches_single_process_semantics(self, client):
        response = client.request("decide", schema=SCHEMA, secret=SECRET, views=VIEWS)
        assert response["ok"] is True
        assert response["result"]["verdict"] in (True, False, None)
        assert response["server"]["shard"] in (0, 1)

    def test_repeat_hits_the_fleet_cache(self, fleet, client):
        fields = dict(schema=SCHEMA, secret="S2(n) :- Emp(n, d, p)", views=VIEWS)
        first = client.request("decide", **fields)
        assert first["ok"] and not first["server"].get("fleet_cached")
        with AuditServiceClient(*fleet.address) as other:
            second = other.request("decide", **fields)
        assert second["ok"] is True
        assert second["server"]["cached"] is True
        assert second["server"]["fleet_cached"] is True
        assert second["result"] == first["result"]

    def test_routing_is_deterministic(self, client):
        fields = dict(schema=SCHEMA, secret="S3(p) :- Emp(n, d, p)", views=VIEWS)
        shards = {
            client.request("decide", **fields)["server"]["shard"] for _ in range(5)
        }
        assert len(shards) == 1

    def test_distinct_fingerprints_spread_over_shards(self, fleet):
        documents = [
            {"op": "decide", "schema": SCHEMA, "secret": f"Q{i}(n) :- Emp(n, d, p)", "views": VIEWS}
            for i in range(16)
        ]
        shards = {fleet.fleet._shard_for(_fingerprint(doc)).index for doc in documents}
        assert shards == {0, 1}

    def test_unknown_operation_is_a_structured_error(self, client):
        response = client.request("frobnicate")
        assert response["ok"] is False
        assert response["error"]["code"] == "unknown-operation"
        assert client.ping()  # the connection survived

    def test_bad_json_is_a_structured_error(self, client):
        response = client.send_raw(b"{not json\n")
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-json"
        assert client.ping()


class TestFleetCoalescing:
    def test_burst_of_duplicates_costs_one_computation_fleet_wide(self, fleet):
        fields = dict(
            schema=SCHEMA, secret="Sburst(n) :- Emp(n, d, p)", views=VIEWS
        )
        barrier = threading.Barrier(16)
        responses, failures = [], []

        def one() -> None:
            try:
                with AuditServiceClient(*fleet.address) as connection:
                    barrier.wait(timeout=30)
                    responses.append(connection.request("decide", **fields))
            except Exception as error:  # pragma: no cover - diagnostic
                failures.append(error)

        threads = [threading.Thread(target=one) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures
        assert len(responses) == 16
        assert all(response["ok"] for response in responses)
        fresh = [
            response
            for response in responses
            if not response["server"].get("coalesced")
            and not response["server"].get("cached")
        ]
        assert len(fresh) == 1
        duplicates = [r for r in responses if r is not fresh[0]]
        assert all(
            r["server"].get("fleet_coalesced") or r["server"].get("fleet_cached")
            for r in duplicates
        )
        # Every duplicate carries the owner's exact result.
        reference = json.dumps(fresh[0]["result"], sort_keys=True, default=str)
        assert all(
            json.dumps(r["result"], sort_keys=True, default=str) == reference
            for r in duplicates
        )


class TestFleetStats:
    def test_stats_aggregates_every_worker(self, fleet, client):
        client.request("decide", schema=SCHEMA, secret=SECRET, views=VIEWS)
        stats = client.stats()
        assert stats["totals"]["requests"] >= 1
        assert stats["totals"]["computed"] >= 1
        assert "decide" in stats["operations"]
        doc = stats["fleet"]
        assert doc["workers"] == 2
        assert doc["routing"] == "least-outstanding/rendezvous-ties"
        assert len(doc["shards"]) == 2
        for entry in doc["shards"]:
            assert entry["alive"] is True
            assert entry["queue_limit"] >= 1
            assert entry["outstanding"] >= 0
        assert doc["coalescer"]["cache_size"] >= 1

    def test_merged_latency_percentiles_are_present(self, client):
        for index in range(4):
            client.request(
                "decide",
                schema=SCHEMA,
                secret=f"Slat{index}(n) :- Emp(n, d, p)",
                views=VIEWS,
            )
        stats = client.stats()
        latency = stats["operations"]["decide"].get("latency_ms")
        assert latency is not None
        assert latency["count"] >= 4
        assert latency["p50"] <= latency["p95"] <= latency["p99"] <= latency["max"]

    def test_stats_and_metrics_are_partial_while_a_worker_restarts(self):
        with FleetThread(workers=2, worker_threads=2) as fleet:
            router = fleet.fleet
            with AuditServiceClient(*fleet.address) as client:
                for index in range(3):
                    assert client.request(
                        "decide", schema=SCHEMA, secret=f"Spartial{index}(n) :- Emp(n, d, p)",
                        views=VIEWS,
                    )["ok"]
                with _refork_held(fleet) as victim:
                    started = time.perf_counter()
                    metrics = client.call("metrics")
                    metrics_seconds = time.perf_counter() - started
                    stats = client.stats()
                    stats_seconds = time.perf_counter() - started - metrics_seconds
                assert metrics_seconds < 5.0 and stats_seconds < 5.0
                assert metrics["partial"] is True
                assert stats["partial"] is True
                missing, serving = stats["fleet"]["shards"]
                assert "error" in missing and "worker" not in missing
                assert "error" not in serving and "worker" in serving
                # The router's own record: 3 decides, the scrape, this call.
                assert stats["totals"] == router.metrics.snapshot()["totals"]
                assert stats["totals"]["requests"] == 5

                _wait_restart(fleet, 0, victim)
                assert "partial" not in client.call("metrics")
                stats = client.stats()
                assert "partial" not in stats
                assert all("worker" in entry for entry in stats["fleet"]["shards"])
                assert stats["totals"]["requests"] == 7


class TestFleetLifecycle:
    def test_drain_then_stop_answers_in_flight_requests(self):
        _hold_leakages(0.5)
        fleet = FleetThread(workers=2, worker_threads=2).start()
        try:
            by_shard = {0: [], 1: []}
            for secret in SLOW_SECRETS:
                document = _slow_request(secret)
                shard = fleet.fleet._shard_for(_fingerprint(document)).index
                by_shard[shard].append(document)
            # Two slow requests on each worker.
            documents = by_shard[0][:2] + by_shard[1][:2]
            assert len(documents) == 4, "the slow requests must span both workers"
            pids = list(fleet.fleet.worker_pids)
            responses, failures = [], []

            def one(document: dict) -> None:
                try:
                    with AuditServiceClient(*fleet.address, timeout=120) as connection:
                        responses.append(
                            connection.request(document["op"], **{
                                key: value
                                for key, value in document.items()
                                if key != "op"
                            })
                        )
                except Exception as error:
                    failures.append(error)

            threads = [
                threading.Thread(target=one, args=(document,))
                for document in documents
            ]
            for thread in threads:
                thread.start()
            _await_executing(fleet, {0: 2, 1: 2})  # the leakages are now in flight
            fleet.stop()
            for thread in threads:
                thread.join(timeout=120)
            assert not failures
            assert len(responses) == 4
            assert all(response["ok"] for response in responses), responses
            _assert_reaped(pids)
        finally:
            fleet.stop()

    def test_worker_crash_fails_in_flight_and_restart_reserves_fingerprint(self):
        _hold_leakages(1.0)  # the re-forked worker inherits it too
        fleet = FleetThread(workers=2, worker_threads=2, result_cache_size=0).start()
        try:
            document = _slow_request(SLOW_SECRETS[5])
            shard = fleet.fleet._shard_for(_fingerprint(document)).index
            victim = fleet.fleet.worker_pids[shard]
            holder = {}

            def one() -> None:
                with AuditServiceClient(*fleet.address, timeout=120) as connection:
                    holder["response"] = connection.request(
                        "leakage",
                        schema=document["schema"],
                        secret=document["secret"],
                        views=document["views"],
                    )

            thread = threading.Thread(target=one)
            thread.start()
            _await_executing(fleet, {shard: 1})  # the leakage is in flight on the victim
            os.kill(victim, signal.SIGKILL)
            thread.join(timeout=60)
            response = holder["response"]
            assert response["ok"] is False
            assert response["error"]["code"] == ERROR_WORKER_CRASHED
            assert "retry" in response["error"]["message"]

            _wait_restart(fleet, shard, victim)
            with AuditServiceClient(*fleet.address, timeout=120) as connection:
                retry = connection.request(
                    "leakage",
                    schema=document["schema"],
                    secret=document["secret"],
                    views=document["views"],
                )
            assert retry["ok"] is True
            assert retry["server"]["shard"] == shard
            assert not retry["server"].get("cached")

            with AuditServiceClient(*fleet.address) as connection:
                stats = connection.stats()
            by_shard = {entry["shard"]: entry for entry in stats["fleet"]["shards"]}
            assert by_shard[shard]["restarts"] == 1
            assert by_shard[shard]["alive"] is True
        finally:
            fleet.stop()

    def test_saturated_shards_shed_with_structured_errors(self):
        _hold_leakages(0.5)
        fleet = FleetThread(
            workers=2,
            worker_threads=1,
            shard_queue_limit=1,
            connections_per_worker=1,
        ).start()
        try:
            responses = []
            lock = threading.Lock()

            def one(secret: str) -> None:
                with AuditServiceClient(*fleet.address, timeout=120) as connection:
                    response = connection.request(
                        "leakage", schema=SLOW_SCHEMA, secret=secret, views=VIEWS
                    )
                with lock:
                    responses.append(response)

            threads = [
                threading.Thread(target=one, args=(secret,))
                for secret in SLOW_SECRETS
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert len(responses) == len(SLOW_SECRETS)
            shed = [r for r in responses if not r["ok"]]
            served = [r for r in responses if r["ok"]]
            assert served, "a saturated fleet must still serve some requests"
            assert shed, "six concurrent slow requests must overflow limit-1 shards"
            for response in shed:
                assert response["error"]["code"] == ERROR_OVERLOADED
                assert "saturated" in response["error"]["message"]
        finally:
            fleet.stop()


def _owner_pair(fleet: FleetThread):
    """Two distinct slow requests with the same rendezvous owner."""
    by_owner = {}
    for secret in SLOW_SECRETS:
        document = _slow_request(secret)
        owner = fleet.fleet._shard_for(_fingerprint(document)).index
        by_owner.setdefault(owner, []).append(document)
    pair = max(by_owner.values(), key=len)[:2]
    assert len(pair) == 2, "two slow requests must share an owner"
    return pair


def _send(fleet: FleetThread, document: dict, barrier=None) -> dict:
    with AuditServiceClient(*fleet.address, timeout=120) as connection:
        if barrier is not None:
            connection.ping()  # connected: only the request itself waits
            barrier.wait(timeout=30)
        return connection.request(
            document["op"], **{key: value for key, value in document.items() if key != "op"}
        )


def _at_once(fleet: FleetThread, documents) -> list:
    """Send every document on its own connection at the same moment."""
    barrier = threading.Barrier(len(documents))
    responses = [None] * len(documents)

    def one(index: int) -> None:
        responses[index] = _send(fleet, documents[index], barrier)

    threads = [threading.Thread(target=one, args=(index,)) for index in range(len(documents))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    return responses


def _settled_stats(fleet: FleetThread) -> dict:
    """Fleet stats once the burst is over: nothing may still count as in flight."""
    with AuditServiceClient(*fleet.address) as connection:
        doc = connection.stats()["fleet"]
    assert [entry["outstanding"] for entry in doc["shards"]] == [0] * len(doc["shards"])
    return doc


class TestLoadAwareRouting:
    """Uncached analyses go to the least-loaded healthy shard, ties by owner."""

    def test_concurrent_requests_with_one_owner_run_on_both_shards(self):
        _hold_leakages(0.3)
        with FleetThread(workers=2, worker_threads=2) as fleet:
            responses = _at_once(fleet, _owner_pair(fleet))
            assert all(response["ok"] for response in responses), responses
            assert {response["server"]["shard"] for response in responses} == {0, 1}
            doc = _settled_stats(fleet)
            assert doc["diverted"] == 0  # load, not health, moved the second

    def test_requests_count_from_admission_not_from_the_forward(self):
        # The first request sits in the router-side delay before it is
        # forwarded; the second is admitted meanwhile and must already
        # see the owner's load.
        faults.install(FaultPlan.from_spec({"seed": 3, "faults": [
            {"point": "router.forward", "action": "delay", "op": "leakage",
             "delay": 0.2, "count": None},
        ]}))
        try:
            with FleetThread(workers=2, worker_threads=2) as fleet:
                responses = _at_once(fleet, _owner_pair(fleet))
                assert all(response["ok"] for response in responses), responses
                assert {response["server"]["shard"] for response in responses} == {0, 1}
                assert _settled_stats(fleet)["diverted"] == 0
        finally:
            faults.uninstall()

    def test_sheds_only_when_every_shard_is_saturated(self):
        _hold_leakages(1.0)
        with FleetThread(
            workers=2, worker_threads=1, shard_queue_limit=1, connections_per_worker=1
        ) as fleet:
            pair = _owner_pair(fleet)
            third = next(
                _slow_request(secret)
                for secret in SLOW_SECRETS
                if _slow_request(secret) not in pair
            )
            holder = {}
            sender = threading.Thread(target=lambda: holder.update(pair=_at_once(fleet, pair)))
            sender.start()
            deadline = time.time() + 10
            shards = fleet.fleet._shards
            while any(shard.outstanding < 1 for shard in shards) and time.time() < deadline:
                time.sleep(0.002)
            shed = _send(fleet, third)
            sender.join(timeout=120)
            assert all(response["ok"] for response in holder["pair"]), holder["pair"]
            assert {response["server"]["shard"] for response in holder["pair"]} == {0, 1}
            assert shed["ok"] is False
            assert shed["error"]["code"] == ERROR_OVERLOADED
            message = shed["error"]["message"]
            assert "all shards are saturated" in message
            assert "shard 0: 1" in message and "shard 1: 1" in message
            _settled_stats(fleet)

    def test_idle_fleet_routes_by_rendezvous_owner(self, fleet, client):
        owners = set()
        for index in range(8):
            document = {
                "op": "decide", "schema": SCHEMA,
                "secret": f"Sidle{index}(n) :- Emp(n, d, p)", "views": VIEWS,
            }
            owner = fleet.fleet._shard_for(_fingerprint(document)).index
            response = client.request("decide", **{k: v for k, v in document.items() if k != "op"})
            assert response["ok"] and not response["server"].get("cached")
            assert response["server"]["shard"] == owner
            owners.add(owner)
        assert owners == {0, 1}, "the requests must exercise both owners"
        _settled_stats(fleet)

    def test_recovering_shard_gets_exactly_one_probe(self):
        clock = [0.0]
        with FleetThread(
            workers=2,
            worker_threads=2,
            breaker_options={
                "quarantine_after": 1, "cooldown_seconds": 5.0, "clock": lambda: clock[0],
            },
        ) as fleet:
            documents = [
                {"op": "decide", "schema": SCHEMA,
                 "secret": f"Sprobe{index}(n) :- Emp(n, d, p)", "views": VIEWS}
                for index in range(12)
            ]
            sick = fleet.fleet._shards[0]
            sick.breaker.record_failure()  # quarantined until the cooldown
            owned = next(
                document for document in documents
                if fleet.fleet._ranked(_fingerprint(document))[0] is sick
            )
            documents.remove(owned)
            response = _send(fleet, owned)
            assert response["ok"] and response["server"]["shard"] == 1
            assert sick.breaker.state == "quarantined"
            assert _settled_stats(fleet)["diverted"] == 1

            clock[0] = 6.0  # past the cooldown: one probe may go through
            responses = _at_once(fleet, documents)
            assert all(response["ok"] for response in responses), responses
            assert 0 in {response["server"]["shard"] for response in responses}
            stats = sick.breaker.stats()
            assert stats["probes"] == 1
            assert stats["state"] == "healthy"
            doc = _settled_stats(fleet)
            # Requests turned away while the probe was in flight are
            # health reroutes too; the healthy shard never diverts.
            assert doc["diverted"] == doc["shards"][0]["diverted"] >= 1
            assert doc["shards"][1]["diverted"] == 0
            assert doc["shards"][0]["health"] == "healthy"

    def test_analyses_route_around_a_restarting_worker(self):
        with FleetThread(workers=2, worker_threads=2) as fleet:
            router = fleet.fleet
            documents = [
                {"op": "decide", "schema": SCHEMA,
                 "secret": f"Srefork{index}(n) :- Emp(n, d, p)", "views": VIEWS}
                for index in range(10)
            ]
            owned = [
                document for document in documents
                if router._ranked(_fingerprint(document))[0].index == 0
            ]
            assert len(owned) >= 4, "shard 0 must own enough requests to trip its breaker"
            comeback = owned[-1]  # sent once shard 0 serves again
            documents.remove(comeback)

            # Hold shard 0's re-fork open until the requests are answered.
            with _refork_held(fleet) as victim:
                responses = [_send(fleet, document) for document in documents[:5]]
                responses += _at_once(fleet, documents[5:])
            assert all(response["ok"] for response in responses), responses
            assert {response["server"]["shard"] for response in responses} == {1}
            assert not any(response["server"].get("cached") for response in responses)

            _wait_restart(fleet, 0, victim)
            doc = _settled_stats(fleet)
            breaker = doc["shards"][0]["breaker"]
            assert breaker["failures"] == 0 and breaker["opened"] == 0
            assert doc["shards"][0]["health"] == "healthy"
            assert doc["diverted"] == 0
            # Back in rotation: an idle fleet routes to the owner again.
            response = _send(fleet, comeback)
            assert response["ok"] and response["server"]["shard"] == 0

class TestBindErrors:
    def test_fleet_reports_busy_port_as_one_line_error(self):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            with pytest.raises(ReproError, match="address already in use"):
                FleetThread(port=port, workers=2).start()
        finally:
            blocker.close()

    def test_serve_cli_exits_with_one_line_error(self, capsys):
        from repro.cli import main

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            code = main(["serve", "--port", str(port)])
        finally:
            blocker.close()
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "address already in use" in captured.err
        assert "Traceback" not in captured.err


class TestFleetCoalescerTable:
    """The pipeline's in-memory table (one per serving process)."""

    @staticmethod
    def _on_loop(body):
        async def _run():
            return body(FleetCoalescer(cache_size=3))

        return asyncio.run(_run())

    def test_claim_publish_cache_hit(self):
        def body(table):
            assert table.claim("fp") is None  # first caller owns
            leader = table.claim("fp")  # second follows the owner
            assert leader is not None and not leader.done()
            table.publish("fp", {"ok": True})
            assert leader.result() == {"ok": True}
            assert table.lookup("fp") == {"ok": True}
            assert table.claim("fp") is None  # nothing in flight any more

        self._on_loop(body)

    def test_abandon_reopens_the_claim(self):
        def body(table):
            assert table.claim("fp") is None
            leader = table.claim("fp")
            table.abandon("fp", {"ok": False})
            assert leader.result() == {"ok": False}  # followers still answered
            assert table.lookup("fp") is None  # ...but nothing is cached
            assert table.claim("fp") is None  # ownership is claimable again

        self._on_loop(body)

    def test_result_cache_is_bounded(self):
        def body(table):
            for index in range(6):
                assert table.claim(f"fp{index}") is None
                table.publish(f"fp{index}", {"ok": True, "result": index})
            assert table.stats()["cached_results"] == 3
            assert table.lookup("fp5") is not None
            assert table.lookup("fp0") is None

        self._on_loop(body)

    def test_forget_drops_a_published_result(self):
        def body(table):
            assert table.claim("fp") is None
            table.publish("fp", {"ok": True})
            assert table.forget("fp") is True
            assert table.lookup("fp") is None
            assert table.forget("missing") is False
            assert table.stats()["forgotten"] == 1

        self._on_loop(body)


# ---------------------------------------------------------------------------
# Live sessions through the fleet
# ---------------------------------------------------------------------------
LIVE_SCHEMA = SCHEMA
LIVE_FACT = ["Emp", ["n0", "d0", "p0"]]
LIVE_OTHER = ["Emp", ["n1", "d1", "p1"]]


class TestFleetLive:
    def _create(self, client, name):
        result = client.call(
            "live-create",
            live=name,
            schema=LIVE_SCHEMA,
            secrets={"s": SECRET},
            views=VIEWS,
            facts=[LIVE_FACT],
        )
        assert result["created"] is True

    def test_live_ops_share_one_shard(self, client):
        self._create(client, "fleet-routing")
        shards = set()
        for _ in range(3):
            response = client.request("live-audit", live="fleet-routing")
            assert response["ok"] is True
            shards.add(response["server"]["shard"])
        delta = client.request("apply-delta", live="fleet-routing", add=[LIVE_OTHER])
        assert delta["ok"] is True
        shards.add(delta["server"]["shard"])
        assert len(shards) == 1

    def test_repeat_audit_is_never_cached(self, fleet, client):
        self._create(client, "fleet-invalidate")
        first = client.request("live-audit", live="fleet-invalidate")
        with AuditServiceClient(*fleet.address) as other:
            second = other.request("live-audit", live="fleet-invalidate")
        assert second["result"]["fact_count"] == 1
        client.call("apply-delta", live="fleet-invalidate", add=[LIVE_OTHER])
        third = client.request("live-audit", live="fleet-invalidate")
        assert third["result"]["fact_count"] == 2
        assert third["result"]["revision"] == 1
        for response in (first, second, third):
            assert response["ok"] is True
            assert not response["server"]["cached"]
            assert not response["server"].get("fleet_cached")

    def test_subscribe_relays_through_the_router(self, fleet, client):
        self._create(client, "fleet-subscribe")
        subscriber = AuditServiceClient(*fleet.address)
        stream = subscriber.subscribe("fleet-subscribe")
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
            client.call("apply-delta", live="fleet-subscribe", add=[LIVE_OTHER])
            client.call("apply-delta", live="fleet-subscribe", remove=[LIVE_FACT])
            assert done.wait(15.0), f"got {len(received)} notifications"
        finally:
            subscriber.interrupt()
            thread.join(5.0)
            subscriber.close()
        assert [note["event"] for note in received] == ["apply-delta", "apply-delta"]
        assert received[-1]["fact_count"] == 1
        final = client.call("live-audit", live="fleet-subscribe")
        assert received[-1]["revision"] == final["revision"]
        assert received[-1]["fact_count"] == final["fact_count"]

    def test_a_subscribe_probe_closes_its_shards_breaker(self):
        clock = [0.0]
        with FleetThread(
            workers=2,
            worker_threads=2,
            breaker_options={
                "quarantine_after": 1, "cooldown_seconds": 5.0, "clock": lambda: clock[0],
            },
        ) as fleet:
            router = fleet.fleet
            name = next(
                f"probe-{index}" for index in range(64)
                if router._ranked(pipeline_fingerprint(f"live|probe-{index}"))[0].index == 0
            )
            with AuditServiceClient(*fleet.address) as client:
                self._create(client, name)
            breaker = router._shards[0].breaker
            breaker.record_failure()  # quarantined until the cooldown
            clock[0] = 6.0  # past it: the subscribe is the one probe
            subscriber = AuditServiceClient(*fleet.address)
            try:
                subscriber.subscribe(name)
                assert breaker.stats()["probes"] == 1
                assert breaker.state == "healthy"
            finally:
                subscriber.close()

    def test_mutations_are_never_fleet_cached(self, client):
        self._create(client, "fleet-mutate")
        first = client.request("apply-delta", live="fleet-mutate", add=[LIVE_OTHER])
        second = client.request(
            "apply-delta", live="fleet-mutate", remove=[LIVE_OTHER]
        )
        assert first["ok"] and second["ok"]
        assert not first["server"].get("fleet_cached")
        assert not second["server"].get("fleet_cached")
        assert second["result"]["revision"] == 2
