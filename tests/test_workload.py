"""Tests for the workload generator and its replay harness."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.exceptions import ReproError
from repro.service import ServerThread, parse_request
from repro.workload import (
    DeltaStreamSpec,
    InstanceSpec,
    WorkloadSpec,
    delta_stream_state,
    generate_delta_stream,
    generate_workload,
    load_workload,
    replay_workload,
    save_workload,
    table1_templates,
)


class TestTemplates:
    def test_every_template_is_a_valid_request(self):
        templates = table1_templates()
        assert len(templates) == 4 * 7 + 1  # 7 ops per Table 1 row + one plan
        for template in templates:
            request = parse_request(template)
            assert request.op in {
                "decide", "quick", "audit", "collusion", "leakage",
                "verify", "with_knowledge", "plan",
            }

    def test_templates_target_three_variable_employee_schema(self):
        for template in table1_templates():
            relations = template["schema"]["relations"]
            assert [r["name"] for r in relations] == ["Emp"]
            assert relations[0]["attributes"] == ["name", "department", "phone"]


class TestGeneration:
    def test_deterministic_given_seed(self):
        spec = WorkloadSpec(seed=11, requests=50)
        assert generate_workload(spec) == generate_workload(spec)

    def test_different_seeds_differ(self):
        one = generate_workload(WorkloadSpec(seed=1, requests=50))
        two = generate_workload(WorkloadSpec(seed=2, requests=50))
        assert one != two

    def test_every_request_is_valid(self):
        for request in generate_workload(WorkloadSpec(seed=5, requests=80)):
            parse_request(request)

    def test_duplicates_present_at_high_fraction(self):
        requests = generate_workload(
            WorkloadSpec(seed=3, requests=60, duplicate_fraction=0.8)
        )
        rendered = [repr(sorted(r.items(), key=lambda kv: kv[0])) for r in requests]
        assert len(set(rendered)) < len(rendered)

    def test_zero_duplicate_fraction_table1_only(self):
        requests = generate_workload(
            WorkloadSpec(seed=3, requests=30, duplicate_fraction=0.0, random_fraction=0.0)
        )
        assert all(
            r["schema"]["relations"][0]["name"] == "Emp" for r in requests
        )

    def test_mix_restricts_operations(self):
        requests = generate_workload(
            WorkloadSpec(
                seed=4,
                requests=40,
                mix={"decide": 1.0},
                duplicate_fraction=0.0,
                random_fraction=0.0,
            )
        )
        assert {r["op"] for r in requests} == {"decide"}

    def test_rejects_empty_workload(self):
        with pytest.raises(ReproError):
            generate_workload(WorkloadSpec(requests=0))

    def test_rejects_unknown_mix(self):
        with pytest.raises(ReproError):
            generate_workload(WorkloadSpec(mix={"teleport": 1.0}))


class TestDeltaStreams:
    def test_deterministic_given_seed(self):
        spec = DeltaStreamSpec(seed=7, deltas=32)
        assert generate_delta_stream(spec) == generate_delta_stream(spec)

    def test_different_seeds_differ(self):
        one = generate_delta_stream(DeltaStreamSpec(seed=1, deltas=32))
        two = generate_delta_stream(DeltaStreamSpec(seed=2, deltas=32))
        assert one != two

    def test_every_request_is_valid_and_ordered(self):
        requests = generate_delta_stream(DeltaStreamSpec(seed=5, deltas=24))
        assert len(requests) == 25  # one live-create + 24 deltas
        first = parse_request(requests[0])
        assert first.op == "live-create"
        for document in requests[1:]:
            request = parse_request(document)
            assert request.op == "apply-delta"
            assert request.live == first.live

    def test_deletes_only_touch_live_facts(self):
        requests = generate_delta_stream(DeltaStreamSpec(seed=9, deltas=40))
        state = {tuple([f[0], tuple(f[1])]) for f in requests[0]["facts"]}
        for document in requests[1:]:
            removed = {tuple([f[0], tuple(f[1])]) for f in document.get("remove") or ()}
            added = {tuple([f[0], tuple(f[1])]) for f in document.get("add") or ()}
            assert removed <= state
            assert not (added & removed)
            state = (state - removed) | added

    def test_mirror_tracks_the_stream(self):
        requests = generate_delta_stream(DeltaStreamSpec(seed=3, deltas=20))
        facts, views = delta_stream_state(requests)
        # Replaying the documents by hand lands on the same state.
        state = {tuple([f[0], tuple(f[1])]) for f in requests[0]["facts"]}
        published = dict(requests[0].get("views") or {})
        for document in requests[1:]:
            for name in document.get("retract") or ():
                published.pop(name)
            published.update(document.get("publish") or {})
            state -= {tuple([f[0], tuple(f[1])]) for f in document.get("remove") or ()}
            state |= {tuple([f[0], tuple(f[1])]) for f in document.get("add") or ()}
        assert {tuple([f[0], tuple(f[1])]) for f in facts} == state
        assert views == published

    def test_rejects_degenerate_specs(self):
        with pytest.raises(ReproError):
            generate_delta_stream(DeltaStreamSpec(deltas=0))
        with pytest.raises(ReproError):
            generate_delta_stream(DeltaStreamSpec(secrets={}))
        with pytest.raises(ReproError):
            generate_delta_stream(DeltaStreamSpec(mix={"teleport": 1.0}))

    @pytest.mark.parametrize(
        "spec, digest",
        [
            (
                DeltaStreamSpec(seed=0),
                "1ce923126baa016c62e3cb3945badd5c4f6d44128d79a16ed58b8f2fd321de35",
            ),
            (
                # The shape of perfbench's live-delta streams.
                DeltaStreamSpec(
                    seed=3, deltas=128, live="live-3",
                    instance=InstanceSpec(
                        seed=3, facts=2000, domain_size=100_000, relation_weights={"T": 0.1}
                    ),
                    publish_pool=("{name}(x) :- T(x)",),
                ),
                "a7fc3837e306a3af0e2bdd638a19dc0adfd91b5dc8cd9d392f9573481f60ebc4",
            ),
            (
                # Deletes outrun the facts: some fall back to inserts.
                DeltaStreamSpec(
                    seed=11, deltas=48, churn=8, mix={"insert": 1.0, "delete": 6.0},
                    instance=InstanceSpec(seed=11, facts=6, domain_size=4),
                ),
                "a216abd2171251edc519f9926d4c8b86ecebdbded7b7a36db5f3921b6aa9cba3",
            ),
            (
                # A full domain: inserts re-add live facts, which a delete
                # of the same delta must skip.
                DeltaStreamSpec(
                    seed=2, deltas=64, churn=6, mix={"insert": 6.0, "delete": 2.0},
                    instance=InstanceSpec(seed=2, facts=8, domain_size=2),
                ),
                "5d3c3bf0dcc6b009b521bbe60ad35da99c1b7d9b4554c293f3ffd849682e3648",
            ),
            (
                DeltaStreamSpec(
                    seed=5, deltas=40, churn=6,
                    mix={"insert": 1.0, "delete": 1.0, "publish": 2.0, "retract": 2.0},
                    instance=InstanceSpec(seed=5, facts=30, domain_size=6),
                ),
                "a567c98691a3d003d912018ada937ca11e88188e045b6b59bcdf7bb51cbbf315",
            ),
        ],
    )
    def test_streams_are_pinned(self, spec, digest):
        # Digests of streams generated before delete picking used a
        # sorted mirror of the live facts: the streams must not change.
        stream = generate_delta_stream(spec)
        encoded = json.dumps(stream, sort_keys=True).encode("utf8")
        assert hashlib.sha256(encoded).hexdigest() == digest


class TestWorkloadFiles:
    def test_save_load_round_trip(self, tmp_path):
        requests = generate_workload(WorkloadSpec(seed=9, requests=25))
        path = tmp_path / "workload.json"
        save_workload(requests, path)
        assert load_workload(path) == requests

    def test_load_rejects_non_workload(self, tmp_path):
        path = tmp_path / "not_workload.json"
        path.write_text('{"something": "else"}')
        with pytest.raises(ReproError):
            load_workload(path)

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text('{"version": 99, "requests": []}')
        with pytest.raises(ReproError):
            load_workload(path)


class TestReplay:
    def test_replay_against_live_server(self):
        requests = generate_workload(
            WorkloadSpec(seed=21, requests=40, duplicate_fraction=0.5)
        )
        with ServerThread(workers=4) as server:
            summary = replay_workload(requests, *server.address, concurrency=6)
        assert summary["requests"] == 40
        assert summary["ok"] == 40
        assert summary["errors"] == 0
        assert summary["coalesced"] + summary["cached"] > 0
        assert summary["latency_ms"]["p50"] >= 0

    def test_replay_needs_a_connection(self):
        with pytest.raises(ReproError):
            replay_workload([], "127.0.0.1", 1, concurrency=0)

    def test_replay_subscribe_collects_every_notification(self):
        spec = DeltaStreamSpec(seed=13, deltas=16, live="replay-live")
        requests = generate_delta_stream(spec)
        with ServerThread(workers=2) as server:
            summary = replay_workload(
                requests, *server.address, concurrency=2, subscribe="replay-live"
            )
        assert summary["requests"] == len(requests)
        assert summary["ok"] == len(requests)
        assert summary["errors"] == 0
        assert summary["live_requests"] == len(requests)
        assert summary["notifications_expected"] > 0
        notes = summary["notifications"]
        assert len(notes) == summary["notifications_expected"]
        revisions = [note["revision"] for note in notes]
        assert revisions == sorted(revisions)
        # The stream's final state agrees with the generator's mirror.
        facts, views = delta_stream_state(requests)
        assert notes[-1]["fact_count"] == len(facts)
        assert sorted(notes[-1]["views"]) == sorted(views)

    def test_replay_accounts_every_request_despite_transport_errors(self):
        # An oversized line overruns the server's stream buffer, which
        # closes that connection; the replay worker must count exactly one
        # error for it, reconnect, and drain the rest of the queue.
        requests = [
            {"op": "ping", "padding": "y" * 50000},
            {"op": "ping"},
            {"op": "ping"},
            {"op": "ping"},
        ]
        with ServerThread(workers=1, max_payload=2048) as server:
            summary = replay_workload(requests, *server.address, concurrency=1)
        assert summary["requests"] == 4
        accounted = summary["ok"] + summary["errors"] + summary["overloaded"]
        assert accounted == 4, summary
        assert summary["ok"] >= 2
        assert summary["errors"] >= 1
