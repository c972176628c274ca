"""Tests for the tracing and telemetry subsystem (:mod:`repro.obs`).

The propagation invariants the PR promises:

* the ``trace`` envelope field never enters request fingerprints, so a
  traced and an untraced copy of the same request coalesce;
* with tracing off, response envelopes carry no observability fields at
  all — the wire format is exactly the pre-tracing one;
* coalesced followers and result-cache hits link to the leader's trace;
* span trees survive a worker crash and restart (the fleet keeps
  returning full distributed waterfalls afterwards);
* only the tier that opens a trace records it: a fleet's ``traces`` and
  slow log hold each traced request once, and a failed request's
  worker spans are inside its one tree;
* a fleet counts each client request once, at the router: its
  Prometheus ``metrics`` renders the router's record with every
  worker's gauges summed, never asks a worker for ``metrics``, and
  counts none of its own ``stats`` calls to the workers.
"""

from __future__ import annotations

import json
import os
import re
import signal
import threading
import time

import pytest

from repro import faults
from repro.bench import employee_schema
from repro.io import schema_to_dict
from repro.obs import (
    SLOW_LOG_ENV,
    TRACES,
    StatCounters,
    TraceBuffer,
    dominant_span,
    render_prometheus,
    render_waterfall,
    span,
    span_names,
    start_trace,
)
from repro.service import (
    AuditServiceClient,
    FaultPlan,
    FaultRule,
    FleetThread,
    ServerThread,
    parse_request,
    request_key,
)
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import session_key


def _schema_doc(**sizes) -> dict:
    document = schema_to_dict(employee_schema(**sizes))
    document["tuple_probability"] = "1/4"
    return document


SCHEMA = _schema_doc()
SECRET = "S(n, p) :- Emp(n, d, p)"
VIEWS = {"bob": "V(n, d) :- Emp(n, d, p)"}


# ---------------------------------------------------------------------------
# Trace primitives (no service)
# ---------------------------------------------------------------------------
class TestTracePrimitives:
    def test_span_is_null_without_a_trace(self):
        scope = span("anything")
        with scope as live:
            assert not live  # the null span is falsy: no allocation, no attrs

    def test_start_trace_builds_a_tree(self):
        with start_trace("root") as trace:
            with span("child") as child:
                child.set("k", 1)
                with span("grandchild"):
                    pass
            with span("sibling"):
                pass
        document = trace.to_dict()
        assert document["trace_id"] == trace.trace_id
        assert span_names(document) == ["root", "child", "grandchild", "sibling"]
        child_doc = document["root"]["children"][0]
        assert child_doc["attrs"] == {"k": 1}
        total_children = sum(
            c["duration_ms"] for c in document["root"]["children"]
        )
        assert total_children <= document["duration_ms"] + 0.001

    def test_dominant_span_reports_largest_self_time(self):
        with start_trace("root") as trace:
            with span("fast"):
                pass
            with span("slow"):
                time.sleep(0.02)
        dominant = dominant_span(trace.to_dict())
        assert dominant["name"] == "slow"

    def test_waterfall_renders_every_span(self):
        with start_trace("root") as trace:
            with span("inner"):
                pass
        text = render_waterfall(trace.to_dict())
        assert "root" in text and "inner" in text and trace.trace_id in text

    def test_trace_buffer_samples_head_tail_slow(self):
        buffer = TraceBuffer(head=2, tail=3, slow=2)
        for index in range(10):
            buffer.record(
                {"trace_id": f"t{index}", "started": index, "duration_ms": index}
            )
        snapshot = buffer.snapshot()
        assert snapshot["recorded"] == 10
        assert [d["trace_id"] for d in snapshot["head"]] == ["t0", "t1"]
        assert [d["trace_id"] for d in snapshot["tail"]] == ["t7", "t8", "t9"]
        assert [d["trace_id"] for d in snapshot["slow"]] == ["t9", "t8"]


# ---------------------------------------------------------------------------
# Thread-safe counters and metric merging
# ---------------------------------------------------------------------------
class TestCounters:
    def test_bump_is_thread_safe(self):
        counters = StatCounters(("hits",))

        def worker():
            for _ in range(10_000):
                counters.bump("hits")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counters["hits"] == 80_000
        counters.reset()
        assert counters["hits"] == 0

    def test_reads_stay_plain_dict(self):
        counters = StatCounters({"a": 2})
        counters.bump("a", 3)
        assert counters["a"] == 5
        assert dict(counters) == {"a": 5}
        assert json.dumps(counters) == '{"a": 5}'


class TestMetricsMerging:
    def test_prometheus_exposition_has_histogram_buckets(self):
        metrics = ServiceMetrics()
        for elapsed in (0.001, 0.02, 0.7):
            metrics.observe("decide", "computed", elapsed_seconds=elapsed)
        text = render_prometheus(metrics.snapshot(), gauges={"pending": 2})
        assert 'repro_requests_total{op="decide",outcome="computed"} 3' in text
        assert 'repro_request_duration_ms_bucket{op="decide",le="+Inf"} 3' in text
        assert "repro_request_duration_ms_sum" in text
        assert "repro_pending 2" in text
        # Buckets are cumulative and monotone.
        buckets = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith('repro_request_duration_ms_bucket{op="decide"')
        ]
        assert buckets == sorted(buckets)


# ---------------------------------------------------------------------------
# Wire-protocol invariants
# ---------------------------------------------------------------------------
class TestFingerprintInvariance:
    def test_trace_field_never_enters_request_key(self):
        bare = {"op": "decide", "schema": SCHEMA, "secret": SECRET, "views": VIEWS}
        traced = dict(bare, trace={"id": "abc123", "return": True})
        assert request_key(parse_request(bare)) == request_key(parse_request(traced))
        assert session_key(parse_request(bare)) == session_key(parse_request(traced))

    def test_trace_field_is_validated(self):
        document = {"op": "ping", "trace": "not-an-object"}
        with pytest.raises(Exception):
            parse_request(document)


# ---------------------------------------------------------------------------
# Single-server service behaviour
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def server():
    with ServerThread(workers=2) as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    with AuditServiceClient(*server.address) as connected:
        yield connected


class TestServerTracing:
    def test_untraced_envelope_has_no_observability_fields(self, client):
        response = client.request(
            "decide", schema=SCHEMA, secret="Splain(n) :- Emp(n, HR, p)", views=VIEWS
        )
        assert response["ok"] is True
        # The pre-tracing envelope shape, exactly: tracing off must not
        # add or rename a single field.
        assert set(response) == {"id", "ok", "op", "result", "server"}
        assert set(response["server"]) <= {"coalesced", "cached", "elapsed_ms"}
        assert "trace" not in response["server"]
        assert "trace_id" not in response

    def test_traced_request_returns_span_tree(self, client):
        response = client.request(
            "decide",
            schema=SCHEMA,
            secret="Straced(n, p) :- Emp(n, d, p)",
            views=VIEWS,
            trace={"return": True},
        )
        assert response["ok"] is True
        document = response["server"]["trace"]
        names = span_names(document)
        assert names[0] == "server.handle"
        assert "server.queue_wait" in names
        assert "server.execute" in names
        assert "session.decide" in names
        # Child durations sum to at most the root's duration.
        children = document["root"].get("children", [])
        assert sum(c["duration_ms"] for c in children) <= document["duration_ms"] + 0.001

    def test_traces_op_returns_buffer_snapshot(self, client):
        result = client.call("traces")
        assert result["recorded"] >= 1
        assert {"head", "tail", "slow", "limits"} <= set(result)

    def test_traced_failure_returns_its_span_tree(self, client):
        faults.install(FaultPlan(
            [FaultRule(point="server.execute", action="error", op="quick", count=1)]
        ))
        try:
            response = client.request(
                "quick", schema=SCHEMA, secret="Sfails(n) :- Emp(n, d, p)", views=VIEWS,
                trace={"return": True},
            )
        finally:
            faults.uninstall()
        assert response["ok"] is False
        names = span_names(response["server"]["trace"])
        assert names[0] == "server.handle"
        assert "server.execute" in names

    def test_metrics_op_returns_prometheus_text(self, client):
        result = client.call("metrics")
        assert result["content_type"].startswith("text/plain")
        assert "repro_requests_total" in result["text"]
        assert "repro_request_duration_ms_bucket" in result["text"]

    def test_coalesced_followers_link_to_leader(self, server):
        fields = dict(
            schema=_schema_doc(names=3),
            secret="Sburst(p) :- Emp(n0, d, p)",
            views=VIEWS,
            trace={"return": True},
        )
        responses = []

        def one():
            with AuditServiceClient(*server.address) as connection:
                responses.append(connection.request("leakage", **fields))

        threads = [threading.Thread(target=one) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(responses) == 6 and all(r["ok"] for r in responses)

        leaders = [
            r for r in responses
            if not r["server"].get("coalesced") and not r["server"].get("cached")
        ]
        followers = [r for r in responses if r not in leaders]
        assert len(leaders) == 1, "the burst must cost one computation"
        leader_trace = leaders[0]["server"]["trace"]["trace_id"]
        assert followers, "the burst must produce coalesced/cached followers"
        for follower in followers:
            links = follower["server"]["trace"].get("links", [])
            assert any(
                link["trace_id"] == leader_trace
                and link["rel"] in ("coalesced-leader", "result-cache")
                for link in links
            ), f"follower trace lacks a leader link: {links}"


# ---------------------------------------------------------------------------
# Fleet: distributed traces, merged telemetry, restart survival
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet():
    with FleetThread(workers=2, worker_threads=2) as running:
        yield running


@pytest.fixture(scope="module")
def fleet_client(fleet):
    with AuditServiceClient(*fleet.address) as connected:
        yield connected


def _traced_decide(client: AuditServiceClient, secret: str) -> dict:
    return client.request(
        "decide", schema=SCHEMA, secret=secret, views=VIEWS, trace={"return": True}
    )


class TestFleetTracing:
    def test_distributed_waterfall_covers_all_layers(self, fleet_client):
        response = _traced_decide(fleet_client, "Sfleet(n, p) :- Emp(n, d, p)")
        assert response["ok"] is True
        document = response["server"]["trace"]
        names = span_names(document)
        assert names[0] == "router.route"
        for required in (
            "router.forward",
            "server.handle",
            "server.queue_wait",
            "server.execute",
            "session.decide",
        ):
            assert required in names, f"missing span {required} in {names}"
        children = document["root"].get("children", [])
        assert sum(c["duration_ms"] for c in children) <= document["duration_ms"] + 0.001

    def test_fleet_traces_hold_one_document_per_request(self):
        # Forked workers inherit the plan: the first quick on a worker fails.
        faults.install(FaultPlan(
            [FaultRule(point="server.execute", action="error", op="quick", count=1)]
        ))
        try:
            with FleetThread(workers=2, worker_threads=2) as fleet:
                with AuditServiceClient(*fleet.address) as client:
                    TRACES.reset()
                    responses = [
                        _traced_decide(client, f"Sonce{index}(n) :- Emp(n, d, p)")
                        for index in range(3)
                    ]
                    responses.append(client.request(
                        "quick", schema=SCHEMA, secret=SECRET, views=VIEWS,
                        trace={"return": True},
                    ))
                    result = client.call("traces")
        finally:
            faults.uninstall()
        assert [response["ok"] for response in responses] == [True, True, True, False]
        assert result["recorded"] == 4
        documents = {
            document["trace_id"]: document
            for section in ("head", "tail", "slow")
            for document in result[section]
        }
        assert set(documents) == {r["server"]["trace"]["trace_id"] for r in responses}
        assert all(d["root"]["name"] == "router.route" for d in documents.values())
        failed = documents[responses[-1]["server"]["trace"]["trace_id"]]
        assert "server.handle" in span_names(failed)

    def test_fleet_slow_log_has_one_line_per_request(self, tmp_path, monkeypatch):
        log = tmp_path / "slow.jsonl"
        monkeypatch.setenv(SLOW_LOG_ENV, str(log))
        with FleetThread(workers=2, worker_threads=2, slow_ms=0) as fleet:
            with AuditServiceClient(*fleet.address) as client:
                responses = [
                    _traced_decide(client, f"Sslow{index}(n) :- Emp(n, d, p)")
                    for index in range(3)
                ]
        trace_ids = sorted(r["server"]["trace"]["trace_id"] for r in responses)
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert sorted(line["trace_id"] for line in lines) == trace_ids

    def test_fleet_metrics_op_aggregates_shards(self, fleet_client):
        result = fleet_client.call("metrics")
        assert "repro_requests_total" in result["text"]
        assert "repro_fleet_workers 2" in result["text"]

    def test_span_trees_survive_worker_restart(self, fleet, fleet_client):
        first = _traced_decide(fleet_client, "Srestart(n) :- Emp(n, HR, p)")
        assert first["ok"] is True
        shard = first["server"]["shard"]
        old_pid = fleet.fleet.worker_pids[shard]
        os.kill(old_pid, signal.SIGKILL)
        deadline = time.time() + 30.0
        while time.time() < deadline:
            pids = fleet.fleet.worker_pids
            if pids[shard] not in (old_pid, -1):
                break
            time.sleep(0.05)
        else:
            raise AssertionError(f"worker {shard} did not restart within 30s")

        # A fresh traced request (new fingerprint, so it must compute)
        # still yields the full distributed span tree.
        for attempt in range(8):
            response = _traced_decide(
                fleet_client, f"Safter{attempt}(n, p) :- Emp(n, d, p)"
            )
            assert response["ok"] is True
            names = span_names(response["server"]["trace"])
            assert "router.forward" in names
            assert "server.handle" in names
            if response["server"]["shard"] == shard:
                return  # the restarted worker itself answered with spans
        raise AssertionError("no request routed to the restarted shard")


#: Every gauge a fleet's ``metrics`` text carries: the router's own two,
#: then the sums over the workers' ``stats`` payloads, except the result
#: cache, which is the router's table (workers cache nothing).
FLEET_GAUGES = (
    "fleet_workers",
    "active_requests",
    "pending_analyses",
    "connections",
    "sessions",
    "result_cache_entries",
    "workers",
    "queue_limit",
    "live_sessions",
    "live_subscribers",
)


def _prometheus_samples(text: str) -> dict:
    """``{metric{labels}: value}`` for every sample line of an exposition."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)
    return samples


class TestFleetMetricsGather:
    def test_metrics_renders_the_stats_gather(self):
        with FleetThread(workers=2, worker_threads=2) as fleet:
            with AuditServiceClient(*fleet.address) as client:
                for index in range(4):
                    assert client.request(
                        "decide", schema=SCHEMA, secret=f"Sgather{index}(n) :- Emp(n, d, p)",
                        views=VIEWS,
                    )["ok"]
                assert client.request(
                    "decide", schema=SCHEMA, secret="Sgather0(n) :- Emp(n, d, p)", views=VIEWS
                )["server"]["cached"]
                assert client.request("quick", schema=SCHEMA, secret=SECRET, views=VIEWS)["ok"]
                assert not client.request("decide", schema=SCHEMA, secret="not a query")["ok"]
                client.call(
                    "live-create", live="gather", schema=SCHEMA, secrets={"s": SECRET},
                    views=VIEWS, facts=[["Emp", ["n0", "d0", "p0"]]],
                )
                client.call("live-audit", live="gather")
                client.call("apply-delta", live="gather", add=[["Emp", ["n1", "d1", "p1"]]])
                text = client.call("metrics")["text"]
                stats = client.stats()

        samples = _prometheus_samples(text)
        for gauge in FLEET_GAUGES:
            assert f"repro_{gauge}" in samples, f"missing gauge repro_{gauge}"
        shards = stats["fleet"]["shards"]
        assert samples["repro_fleet_workers"] == 2
        assert samples["repro_workers"] == sum(s["worker"]["workers"] for s in shards)
        assert samples["repro_sessions"] == sum(len(s["sessions"]) for s in shards)
        assert samples["repro_live_sessions"] == sum(len(s["worker"]["live"]) for s in shards) == 1
        # Four distinct decides and one quick; the repeat, the failure
        # and the live operations add no entry.
        assert samples["repro_result_cache_entries"] == stats["result_cache_entries"] == 5

        counters = {
            tuple(re.findall(r'"([^"]*)"', name)): value
            for name, value in samples.items()
            if name.startswith("repro_requests_total{")
        }
        expected = {
            (op, outcome): doc[outcome]
            for op, doc in stats["operations"].items()
            for outcome in ("computed", "coalesced", "cached", "error", "shed", "deadline")
        }
        assert set(counters) == {key for key in expected if key[0] != "stats"}
        for (op, outcome), count in expected.items():
            if op != "stats":
                assert counters[op, outcome] == count, (op, outcome)
        # One count per client request, kept by the router that answered
        # it: the scrape came before the client's stats call, and the
        # router's own stats calls to the workers count nowhere.
        assert not any(op == "stats" for op, _ in counters)
        assert stats["operations"]["stats"]["computed"] == 1
        assert stats["totals"]["requests"] == 12
        assert counters["metrics", "computed"] == expected["metrics", "computed"] == 1
        assert counters["decide", "cached"] == 1
        assert counters["decide", "error"] == 1
