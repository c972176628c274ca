"""Chaos suite: the resilience layer under deterministic fault injection.

Everything here drives real servers/fleets (real sockets, real forked
worker processes) through seeded :class:`repro.faults.FaultPlan`\\ s,
covering the PR's hard guarantees:

* the fault engine itself is deterministic (``after``/``count`` bounds,
  seeded ``probability``, env installation);
* client retry backoff is decorrelated jitter from a *seeded* RNG —
  two policies with one seed produce one delay sequence;
* a ``deadline_ms`` budget expires as a structured ``deadline-exceeded``
  answer and the overrunning computation is abandoned, not leaked;
* a SIGKILLed worker mid-coalesced-burst answers *every* follower with
  a retryable ``worker-crashed`` error (nobody hangs), and the shard
  restarts;
* the per-shard circuit breaker walks healthy → degraded → quarantined
  → half-open → closed;
* a sqlite I/O error inside the ``sql`` evaluation engine degrades to
  the compiled engine with an identical verdict (counted, not silent);
* the chaos gate: a 64-request mixed workload through retrying clients
  completes 100% successfully under a plan that SIGKILLs a worker
  mid-burst and injects a sqlite error, with verdicts identical to a
  fault-free run.
"""

from __future__ import annotations

import hashlib
import json
import queue
import threading

import pytest

from repro import faults
from repro.bench import employee_schema
from repro.cq import eval_engine_scope, evaluate, q
from repro.cq.sql import SQL_STATS
from repro.exceptions import ReproError
from repro.io import schema_to_dict
from repro.relational import Fact, Instance
from repro.service import (
    AuditServiceClient,
    CircuitBreaker,
    FaultPlan,
    FaultRule,
    FleetThread,
    RetryPolicy,
    ServerThread,
)
from repro.service.health import (
    STATE_DEGRADED,
    STATE_HALF_OPEN,
    STATE_HEALTHY,
    STATE_QUARANTINED,
)
from repro.service.protocol import (
    ERROR_DEADLINE_EXCEEDED,
    ERROR_WORKER_CRASHED,
    parse_request,
    request_key,
)
from repro.workload import replay_workload


def _schema_doc(**sizes) -> dict:
    document = schema_to_dict(employee_schema(**sizes))
    document["tuple_probability"] = "1/4"
    return document


SCHEMA = _schema_doc()
SECRET = "S(n, p) :- Emp(n, d, p)"
VIEWS = {"bob": "V(n, d) :- Emp(n, d, p)"}

#: Large enough that ``leakage`` reliably takes hundreds of ms — a
#: computation that is still in flight when a fault fires.
SLOW_SCHEMA = _schema_doc(names=3)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test leaves the process without an active fault plan."""
    yield
    faults.uninstall()
    faults.set_context(shard=None)


def _primary_shard(document: dict, workers: int = 2) -> int:
    """The rendezvous-primary shard of one request (mirrors the router)."""
    fingerprint = hashlib.sha256(
        request_key(parse_request(document)).encode("utf8")
    ).hexdigest()
    return max(
        range(workers),
        key=lambda index: hashlib.blake2b(
            f"{fingerprint}|{index}".encode("ascii"), digest_size=8
        ).digest(),
    )


# ---------------------------------------------------------------------------
# The fault engine
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_after_and_count_bound_firing(self):
        plan = FaultPlan.from_spec(
            {"faults": [{"point": "sql.execute", "action": "delay",
                         "after": 2, "count": 2}]}
        )
        fired = [bool(plan.fire("sql.execute")) for _ in range(6)]
        assert fired == [False, False, True, True, False, False]

    def test_unbounded_count(self):
        plan = FaultPlan.from_spec(
            [{"point": "sql.execute", "action": "delay", "count": None}]
        )
        assert all(plan.fire("sql.execute") for _ in range(5))

    def test_op_and_shard_selectors(self):
        plan = FaultPlan(
            [FaultRule(point="server.execute", action="delay",
                       op="decide", shard=1, count=None)]
        )
        assert not plan.fire("server.execute", op="audit", shard=1)
        assert not plan.fire("server.execute", op="decide", shard=0)
        assert plan.fire("server.execute", op="decide", shard=1)

    def test_seeded_probability_is_deterministic(self):
        def draws(seed):
            plan = FaultPlan.from_spec(
                {"seed": seed,
                 "faults": [{"point": "sql.execute", "action": "delay",
                             "count": None, "probability": 0.5}]}
            )
            return [bool(plan.fire("sql.execute")) for _ in range(32)]

        first, twin, other = draws(7), draws(7), draws(8)
        assert first == twin
        assert first != other
        assert any(first) and not all(first)

    def test_from_text_reads_inline_json_and_files(self, tmp_path):
        spec = {"seed": 3, "faults": [{"point": "sql.execute", "action": "delay"}]}
        inline = FaultPlan.from_text(json.dumps(spec))
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(spec))
        from_file = FaultPlan.from_text(str(path))
        assert inline.seed == from_file.seed == 3
        assert len(inline.rules) == len(from_file.rules) == 1

    def test_validation_rejects_unknown_points_actions_fields(self):
        with pytest.raises(ReproError, match="unknown fault point"):
            FaultPlan.from_spec([{"point": "nope", "action": "delay"}])
        with pytest.raises(ReproError, match="unknown fault action"):
            FaultPlan.from_spec([{"point": "sql.execute", "action": "nope"}])
        with pytest.raises(ReproError, match="unknown fault fields"):
            FaultPlan.from_spec([{"point": "sql.execute", "action": "delay",
                                  "bogus": 1}])
        with pytest.raises(ReproError, match="probability"):
            FaultPlan.from_spec([{"point": "sql.execute", "action": "delay",
                                  "probability": 2.0}])

    def test_fire_without_a_plan_is_empty_and_stats_none(self):
        faults.uninstall()
        assert faults.fire("sql.execute") == ()
        assert faults.stats() is None

    def test_install_from_env(self, monkeypatch):
        monkeypatch.setenv(
            faults.FAULT_PLAN_ENV,
            '{"seed": 1, "faults": [{"point": "sql.execute", "action": "delay"}]}',
        )
        plan = faults.install_from_env()
        assert plan is faults.active_plan()
        assert plan.seed == 1

    def test_blank_env_leaves_programmatic_plan(self, monkeypatch):
        plan = FaultPlan()
        faults.install(plan)
        monkeypatch.delenv(faults.FAULT_PLAN_ENV, raising=False)
        assert faults.install_from_env() is plan

    def test_stats_reports_hits_and_fired(self):
        plan = FaultPlan.from_spec(
            [{"point": "sql.execute", "action": "delay", "after": 1}]
        )
        faults.install(plan)
        faults.fire("sql.execute")
        faults.fire("sql.execute")
        (rule,) = faults.stats()["rules"]
        assert rule["hits"] == 2 and rule["fired"] == 1


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_seeded_jitter_is_deterministic(self):
        def delays(seed):
            policy = RetryPolicy(seed=seed)
            rng = policy.rng()
            sequence, previous = [], 0.0
            for _ in range(8):
                previous = policy.next_delay(rng, previous)
                sequence.append(previous)
            return sequence

        assert delays(42) == delays(42)
        assert delays(42) != delays(43)
        for delay in delays(42):
            assert RetryPolicy().base_delay <= delay <= RetryPolicy().max_delay

    def test_should_retry_response(self):
        policy = RetryPolicy()
        assert not policy.should_retry_response({"ok": True})
        assert policy.should_retry_response(
            {"ok": False, "error": {"code": "overloaded"}}
        )
        assert policy.should_retry_response(
            {"ok": False, "error": {"code": "worker-crashed"}}
        )
        # The server's explicit retryable flag wins over the code list.
        assert policy.should_retry_response(
            {"ok": False, "error": {"code": "internal", "retryable": True}}
        )
        assert not policy.should_retry_response(
            {"ok": False, "error": {"code": "deadline-exceeded",
                                    "retryable": False}}
        )

    def test_validation(self):
        with pytest.raises(ReproError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ReproError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ReproError):
            RetryPolicy(max_delay=0.01, base_delay=0.05)


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def test_full_ladder_cycle(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            degrade_after=1, quarantine_after=3, cooldown_seconds=5.0,
            clock=lambda: clock[0],
        )
        assert breaker.state == STATE_HEALTHY and breaker.allows()
        breaker.record_failure()
        assert breaker.state == STATE_DEGRADED and breaker.allows()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == STATE_QUARANTINED
        assert not breaker.allows()
        # Cooldown elapses: exactly one half-open probe is admitted.
        clock[0] = 5.1
        assert breaker.state == STATE_HALF_OPEN
        assert breaker.allows()
        assert not breaker.allows()  # second caller is still locked out
        breaker.record_success()
        assert breaker.state == STATE_HEALTHY and breaker.allows()

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            quarantine_after=1, cooldown_seconds=2.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        assert not breaker.allows()
        clock[0] = 2.1
        assert breaker.allows()  # the probe
        breaker.record_failure()  # probe failed: back to quarantined
        assert breaker.state == STATE_QUARANTINED
        assert not breaker.allows()
        clock[0] = 4.3  # a fresh cooldown from the re-open
        assert breaker.allows()
        stats = breaker.stats()
        assert stats["opened"] == 2 and stats["probes"] == 2

    def test_validation(self):
        with pytest.raises(ReproError):
            CircuitBreaker(quarantine_after=0)
        with pytest.raises(ReproError):
            CircuitBreaker(cooldown_seconds=-1.0)


# ---------------------------------------------------------------------------
# Deadlines (single-process daemon)
# ---------------------------------------------------------------------------
class TestDeadlines:
    def test_expiry_under_a_slow_computation(self):
        faults.install(FaultPlan(
            [FaultRule(point="server.execute", action="delay",
                       op="decide", delay=0.6, count=1)]
        ))
        with ServerThread() as server:
            with AuditServiceClient(*server.address) as client:
                response = client.request(
                    "decide", schema=SCHEMA, secret=SECRET, views=VIEWS,
                    deadline_ms=120,
                )
                assert not response["ok"]
                error = response["error"]
                assert error["code"] == ERROR_DEADLINE_EXCEEDED
                assert error["retryable"] is False
                assert "120" in error["message"]
                stats = client.request("stats")["result"]
                assert stats["abandoned"]["total"] == 1
                assert stats["totals"]["deadline"] == 1
                # The delay rule is spent: the same question now answers
                # comfortably inside an identical budget.
                retry = client.request(
                    "decide", schema=SCHEMA, secret=SECRET, views=VIEWS,
                    deadline_ms=30_000,
                )
                assert retry["ok"] is True

    def test_deadline_is_excluded_from_the_fingerprint(self):
        with ServerThread() as server:
            with AuditServiceClient(*server.address) as client:
                first = client.request(
                    "decide", schema=SCHEMA, secret=SECRET, views=VIEWS,
                    deadline_ms=20_000,
                )
                second = client.request(
                    "decide", schema=SCHEMA, secret=SECRET, views=VIEWS,
                    deadline_ms=40_000,
                )
                assert first["ok"] and second["ok"]
                # A different budget is the same question: answered from
                # the result cache, no second computation.
                assert second["server"].get("cached") is True

    def test_invalid_deadline_is_a_structured_error(self):
        with ServerThread() as server:
            with AuditServiceClient(*server.address) as client:
                response = client.request(
                    "decide", schema=SCHEMA, secret=SECRET, views=VIEWS,
                    deadline_ms=-5,
                )
                assert not response["ok"]
                assert response["error"]["code"] == "invalid-request"


# ---------------------------------------------------------------------------
# Client retries against injected transport faults
# ---------------------------------------------------------------------------
class TestClientRetries:
    def test_dropped_connection_is_retried_transparently(self):
        faults.install(FaultPlan(
            [FaultRule(point="server.respond", action="drop",
                       op="decide", count=1)]
        ))
        policy = RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.05,
                             seed=1)
        with ServerThread() as server:
            with AuditServiceClient(*server.address, retry_policy=policy) as client:
                response = client.request(
                    "decide", schema=SCHEMA, secret=SECRET, views=VIEWS
                )
                assert response["ok"] is True
                assert client.retry_stats["retries"] >= 1

    def test_without_a_policy_the_drop_surfaces(self):
        faults.install(FaultPlan(
            [FaultRule(point="server.respond", action="drop",
                       op="decide", count=1)]
        ))
        with ServerThread() as server:
            with AuditServiceClient(*server.address) as client:
                with pytest.raises(ReproError):
                    client.request(
                        "decide", schema=SCHEMA, secret=SECRET, views=VIEWS
                    )

    def test_replay_workload_takes_a_retry_policy(self):
        faults.install(FaultPlan(
            [FaultRule(point="server.respond", action="drop",
                       op="decide", count=2)]
        ))
        requests = [
            {"op": "decide", "schema": SCHEMA,
             "secret": f"R{i}(n) :- Emp(n, d, p)", "views": VIEWS}
            for i in range(8)
        ]
        with ServerThread() as server:
            summary = replay_workload(
                requests, *server.address, concurrency=4,
                retry_policy=RetryPolicy(max_attempts=4, base_delay=0.01,
                                         max_delay=0.05, seed=2),
            )
        assert summary["ok"] == 8
        assert summary["errors"] == 0


# ---------------------------------------------------------------------------
# sql -> compiled degradation
# ---------------------------------------------------------------------------
class TestSqlDegradation:
    QUERY = q("Q(n) :- Emp(n, d)")
    INSTANCE = Instance({Fact("Emp", ("ann", "ops")), Fact("Emp", ("bo", "hr"))})

    def test_io_error_degrades_with_identical_answers(self):
        with eval_engine_scope("compiled"):
            expected = evaluate(self.QUERY, self.INSTANCE)
        faults.install(FaultPlan(
            [FaultRule(point="sql.execute", action="sqlite-error", count=1)]
        ))
        before = SQL_STATS["sql_io_fallbacks"]
        with eval_engine_scope("sql"):
            degraded = evaluate(self.QUERY, self.INSTANCE)
            again = evaluate(self.QUERY, self.INSTANCE)  # fault spent: sql path
        assert degraded == again == expected
        assert SQL_STATS["sql_io_fallbacks"] == before + 1

    def test_service_answers_identically_through_the_degradation(self):
        with ServerThread() as server:
            with AuditServiceClient(*server.address) as client:
                clean = client.request(
                    "decide", schema=SCHEMA, secret=SECRET, views=VIEWS,
                    eval_engine="sql",
                )
                assert clean["ok"] is True
                faults.install(FaultPlan(
                    [FaultRule(point="sql.execute", action="sqlite-error",
                               count=1)]
                ))
                faulted = client.request(
                    "decide", schema=SCHEMA,
                    secret="S2(d) :- Emp(n, d, p)", views=VIEWS,
                    eval_engine="sql",
                )
                assert faulted["ok"] is True
        with ServerThread() as fresh:
            with AuditServiceClient(*fresh.address) as client:
                faults.uninstall()
                reference = client.request(
                    "decide", schema=SCHEMA,
                    secret="S2(d) :- Emp(n, d, p)", views=VIEWS,
                    eval_engine="sql",
                )
        assert faulted["result"]["verdict"] == reference["result"]["verdict"]


# ---------------------------------------------------------------------------
# Fleet chaos
# ---------------------------------------------------------------------------
def _drain_with_verdicts(address, requests, *, policy=None, concurrency=8):
    """Replay ``requests`` and return (verdict-by-index, failure list)."""
    pending: "queue.Queue" = queue.Queue()
    for index, request in enumerate(requests):
        pending.put((index, request))
    verdicts: dict = {}
    failures: list = []
    lock = threading.Lock()

    def drain():
        client = AuditServiceClient(*address, retry_policy=policy)
        try:
            while True:
                try:
                    index, request = pending.get_nowait()
                except queue.Empty:
                    return
                fields = {k: v for k, v in request.items() if k != "op"}
                try:
                    response = client.request(request["op"], **fields)
                except Exception as error:
                    client.close()
                    client = AuditServiceClient(*address, retry_policy=policy)
                    with lock:
                        failures.append((index, f"transport: {error}"))
                    continue
                with lock:
                    if response.get("ok"):
                        verdicts[index] = (response.get("result") or {}).get(
                            "verdict"
                        )
                    else:
                        failures.append((index, response.get("error")))
        finally:
            client.close()

    threads = [threading.Thread(target=drain, daemon=True) for _ in range(concurrency)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=180)
    return verdicts, failures


def _mixed_workload(n: int) -> list:
    """``n`` distinct decide requests, every fourth on the sql engine.

    Odd indices ask about a department the view never mentions
    (disjoint critical tuples, verdict True); even indices ask for the
    full secret against the full view (verdict False).  The mix makes
    a *wrong* answer — not just a missing one — detectable by the
    verdict comparison.
    """
    documents = []
    for i in range(n):
        if i % 2:
            document = {"op": "decide", "schema": SCHEMA,
                        "secret": f"S{i}(n) :- Emp(n, HR, p)",
                        "views": {"bob": "V(n) :- Emp(n, Mgmt, p)"}}
        else:
            document = {"op": "decide", "schema": SCHEMA,
                        "secret": f"S{i}(n, p) :- Emp(n, d, p)",
                        "views": VIEWS}
        if i % 4 == 0:
            document["eval_engine"] = "sql"
        documents.append(document)
    return documents


class TestFleetChaos:
    def test_sigkill_mid_coalesced_burst_answers_every_follower(self, monkeypatch):
        document = {
            "op": "leakage", "schema": SLOW_SCHEMA,
            "secret": "S(n, p) :- Emp(n, d, p)", "views": VIEWS,
        }
        # Scope the kill to the request's own shard: every worker booted
        # on that shard dies on its first leakage computation, so the
        # retry below can only succeed through the circuit breaker's
        # diversion to the healthy shard.
        primary = _primary_shard(document)
        monkeypatch.setenv(
            faults.FAULT_PLAN_ENV,
            json.dumps({"seed": 0, "faults": [
                {"point": "server.execute", "action": "kill",
                 "op": "leakage", "shard": primary, "count": 1},
            ]}),
        )
        responses: list = []
        lock = threading.Lock()

        def one():
            with AuditServiceClient(*fleet.address, timeout=60.0) as client:
                response = client.request(
                    document["op"],
                    **{k: v for k, v in document.items() if k != "op"},
                )
            with lock:
                responses.append(response)

        with FleetThread(workers=2, worker_threads=2) as fleet:
            threads = [threading.Thread(target=one) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            # The guarantee is liveness: nobody hangs until a drain
            # timeout.  Every response is either the retryable crash
            # error, or — when the burst spreads enough for the breaker
            # to quarantine the killed shard mid-burst — a genuine
            # answer computed by the healthy fallback shard.
            assert len(responses) == 6, "a follower hung past the crash"
            crashed = [r for r in responses if not r["ok"]]
            assert crashed, "the kill fault never surfaced to any caller"
            for response in crashed:
                error = response["error"]
                assert error["code"] == ERROR_WORKER_CRASHED
                assert error["retryable"] is True
            # The supervisor restarts the shard; a retrying client rides
            # over the crash window and gets the real answer.
            policy = RetryPolicy(max_attempts=8, base_delay=0.2,
                                 max_delay=2.0, budget_seconds=60.0, seed=3)
            with AuditServiceClient(
                *fleet.address, timeout=60.0, retry_policy=policy
            ) as client:
                answer = client.request(
                    document["op"],
                    **{k: v for k, v in document.items() if k != "op"},
                )
            assert answer["ok"] is True

    def test_fleet_stats_surface_health_and_faults(self, monkeypatch):
        monkeypatch.setenv(
            faults.FAULT_PLAN_ENV,
            '{"seed": 0, "faults": []}',
        )
        with FleetThread(workers=2, worker_threads=1) as fleet:
            with AuditServiceClient(*fleet.address) as client:
                client.request("decide", schema=SCHEMA, secret=SECRET, views=VIEWS)
                stats = client.request("stats")["result"]
        doc = stats["fleet"]
        assert doc["diverted"] == 0
        assert doc["faults"]["rules"] == []
        for shard in doc["shards"]:
            assert shard["health"] == STATE_HEALTHY
            assert shard["breaker"]["failures"] == 0

    def test_chaos_gate_64_requests_all_succeed_with_true_verdicts(
        self, monkeypatch
    ):
        requests = _mixed_workload(64)

        # Fault-free reference run.
        monkeypatch.delenv(faults.FAULT_PLAN_ENV, raising=False)
        faults.uninstall()
        with FleetThread(workers=2, worker_threads=2) as fleet:
            expected, failures = _drain_with_verdicts(fleet.address, requests)
        assert not failures and len(expected) == 64
        # Both verdicts occur, so the comparison below can catch a
        # degraded path answering wrongly, not only one not answering.
        assert set(expected.values()) == {True, False}

        # Chaos run: one worker SIGKILLed mid-burst, one injected sqlite
        # I/O error, everything ridden over by retrying clients.
        monkeypatch.setenv(
            faults.FAULT_PLAN_ENV,
            json.dumps({"seed": 0, "faults": [
                {"point": "server.execute", "action": "kill",
                 "shard": 0, "after": 20, "count": 1},
                {"point": "sql.execute", "action": "sqlite-error",
                 "after": 2, "count": 1},
            ]}),
        )
        policy = RetryPolicy(max_attempts=8, base_delay=0.1, max_delay=2.0,
                             budget_seconds=90.0, seed=11)
        with FleetThread(
            workers=2, worker_threads=2,
            breaker_options={"cooldown_seconds": 0.5},
        ) as fleet:
            verdicts, failures = _drain_with_verdicts(
                fleet.address, requests, policy=policy
            )
            with AuditServiceClient(*fleet.address) as client:
                stats = client.request("stats")["result"]
        assert not failures, f"chaos run had user-visible errors: {failures[:3]}"
        assert len(verdicts) == 64
        assert verdicts == expected
        # The faults genuinely fired in the workers.
        restarts = sum(s["restarts"] for s in stats["fleet"]["shards"])
        assert restarts >= 1, "the kill fault never took a worker down"
