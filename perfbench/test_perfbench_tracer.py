"""Self-time accounting of the benchmark's tracer, wrapper hygiene and host correction.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time

import pytest

from perfbench import run
from perfbench.layers import LAYERS, install, per_layer_metrics, wrapped_targets
from perfbench.tracer import Tracer, merge_records, unattributed_share
from perfbench.workloads import Measurement, Workload


class FakeClock:
    """A clock that only moves when the test says so (exact arithmetic)."""

    def __init__(self, now: float = 10.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _tree(tracer: Tracer, clock: FakeClock):
    """``root`` (group a) → ``middle`` → ``leaf`` and ``root`` → ``leaf`` (group b)."""

    def leaf():
        clock.advance(2)

    leaf = tracer.wrap(leaf, "leaf", "b")

    def middle():
        clock.advance(1)
        leaf()
        clock.advance(3)

    middle = tracer.wrap(middle, "middle", "b")

    def root():
        clock.advance(4)
        middle()
        leaf()
        clock.advance(1)

    return tracer.wrap(root, "root", "a"), leaf


def test_self_times_of_a_nested_call_tree_are_exact():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    root, leaf = _tree(tracer, clock)
    tracer.start()
    root()  # [10, 23]
    clock.advance(5)  # nothing wrapped runs
    leaf()  # [28, 30]
    tracer.stop()
    leaf()  # outside the window: not recorded

    record = tracer.record()
    assert record["layers"] == {
        "root": [1, 13.0, 5.0],  # 13 minus middle (6) and the nested leaf (2)
        "middle": [1, 6.0, 4.0],  # 6 minus its leaf (2)
        "leaf": [3, 6.0, 6.0],
    }
    # Group time counts only spans with no ancestor of the same group:
    # the leaf inside middle is already inside group b.
    assert record["groups"] == {"a": 13.0, "b": 10.0}
    assert record["intervals"] == [[10.0, 23.0], [28.0, 30.0]]
    assert unattributed_share(record["intervals"], 10.0, 30.0) == 0.25


def test_a_raising_call_is_recorded_and_unwinds_the_stack():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def fail():
        clock.advance(1)
        raise ValueError("boom")

    fail = tracer.wrap(fail, "fail", "a")

    def outer():
        with pytest.raises(ValueError):
            fail()
        clock.advance(2)

    outer = tracer.wrap(outer, "outer", "a")
    tracer.start()
    outer()
    outer()
    record = tracer.record()
    assert record["layers"] == {"fail": [2, 2.0, 2.0], "outer": [2, 6.0, 4.0]}
    assert record["groups"] == {"a": 6.0}


def test_a_call_nested_in_a_forked_child_is_its_own_record():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.follow_forks()

    def leaf():
        clock.advance(2)

    leaf = tracer.wrap(leaf, "leaf", "b")
    with tempfile.TemporaryDirectory() as directory:
        child_path = os.path.join(directory, "child.json")

        def root():
            clock.advance(4)
            pid = os.fork()
            if pid == 0:  # the child: one wrapped call, then its record
                try:
                    tracer.start()
                    leaf()
                    tracer.dump(child_path)
                finally:
                    os._exit(0)
            os.waitpid(pid, 0)
            clock.advance(7)  # the parent's wait

        root = tracer.wrap(root, "root", "a")
        tracer.start()
        root()  # [10, 21]; the child's leaf runs at [14, 16]
        with open(child_path, encoding="utf8") as handle:
            child = json.load(handle)

    parent = tracer.record()
    # The child's call is on another process, not nested on the parent's
    # thread: the parent keeps all 11 seconds as self time, and the
    # child's record holds nothing it inherited from the parent.
    assert parent["layers"] == {"root": [1, 11.0, 11.0]}
    assert child["layers"] == {"leaf": [1, 2.0, 2.0]}
    assert child["intervals"] == [[14.0, 16.0]]
    merged = merge_records([parent, child])
    assert merged["layers"] == {"root": [1, 11.0, 11.0], "leaf": [1, 2.0, 2.0]}
    assert merged["groups"] == {"a": 11.0, "b": 2.0}
    assert unattributed_share(merged["intervals"], 10.0, 21.0) == 0.0
    assert unattributed_share(merged["intervals"], 10.0, 26.0) == 5.0 / 16.0
    # The benchmark's own work is taken out of the window, not counted as covered.
    assert unattributed_share(
        merged["intervals"], 10.0, 26.0, excluded=[[21.0, 25.0]]
    ) == pytest.approx(1.0 / 12.0)


def test_end_to_end_metrics_use_corrected_latencies_when_there_are_some():
    measurement = Measurement(start=0.0, end=10.0, latencies=[1.0, 3.0], attempted=2,
                              failed=0, corrected=[0.5, 1.5])
    metrics = run.end_to_end(measurement, [1.0])
    assert metrics["throughput_ops_s"] == 1.0
    assert metrics["latency_p50_ms"] == 1000.0
    plain = Measurement(start=0.0, end=10.0, latencies=[1.0, 3.0], attempted=2, failed=0)
    assert run.end_to_end(plain, [1.0])["throughput_ops_s"] == 0.2


def test_per_layer_metrics_normalise_by_ops():
    record = {
        "layers": {"session.decide": [4, 0.4, 0.3], "instance.index": [10, 0.2, 0.2]},
        "groups": {"session": 0.4},
        "intervals": [[0.0, 0.5]],
        "counters": {"crit_hits": 3, "crit_misses": 1},
    }
    metrics = per_layer_metrics(
        record, ops=2, latency_sum_s=1.0, window=(0.0, 1.0), server_cpu_s=0.1,
        cached=1, coalesced=0, errors=0, attempted=2,
        traced_throughput=9.0, untraced_throughput=10.0,
    )
    assert metrics["session.decide.calls"] == 2.0
    assert metrics["session.decide.self_ms"] == pytest.approx(150.0)
    assert metrics["instance.index.calls_per_op"] == 5.0
    assert metrics["service.outside_session_ms"] == pytest.approx(300.0)
    assert metrics["session.crit_cache.hit_ratio"] == 0.75
    assert metrics["service.cached_share"] == 0.5
    assert metrics["unattributed_share"] == 0.5
    assert metrics["tracing_overhead"] == 0.9


def test_install_wraps_every_target_and_uninstall_restores_the_originals():
    from perfbench.layers import _owners

    slots = {
        target: [(owner, name, original) for owner, name, original in _owners(target)]
        for _, _, targets in LAYERS
        for target in targets
    }
    assert wrapped_targets() == []
    uninstall = install(Tracer())
    try:
        assert len(wrapped_targets()) == sum(len(targets) for _, _, targets in LAYERS)
    finally:
        uninstall()
    assert wrapped_targets() == []
    for target, owned in slots.items():
        for owner, name, original in owned:
            assert getattr(owner, name) is original, target


def test_benchmark_json_names_what_the_runs_report():
    from perfbench.layers import PER_LAYER_UNITS
    from perfbench.workloads import WORKLOADS

    document = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in document["workloads"]:
        assert WORKLOADS[workload["name"]].why == workload["why"]
    assert {m["name"]: m["unit"] for m in document["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in document["per_layer"]} == PER_LAYER_UNITS


def _probe_workload(seen: list) -> Workload:
    """An in-process workload whose op records which targets are wrapped."""

    def measure(state, inputs, seconds):
        seen.append(wrapped_targets())
        start = time.perf_counter()
        return Measurement(start=start, end=start + 1.0, latencies=[0.5, 0.5],
                           attempted=2, failed=0)

    return Workload(
        "probe", "test", prepare=lambda seed: None,
        setup=lambda inputs, scratch, trace_dir: {},
        measure=measure, check=lambda inputs, measurement: [],
        guard=lambda inputs, state, measurement: None,
        teardown=lambda state: None, window=None,
    )


def test_end_to_end_runs_call_the_unwrapped_originals(tmp_path):
    seen: list = []
    workload = _probe_workload(seen)
    run.run_untraced(workload, None, 1.0, tmp_path)
    assert seen == [[]]

    seen.clear()
    run.run_traced(workload, None, 1.0, tmp_path)
    untraced, traced = seen
    assert untraced == []
    assert len(traced) == sum(len(targets) for _, _, targets in LAYERS)
    assert wrapped_targets() == []


def test_host_corrected_set_ups_are_scaled_by_the_reference(tmp_path, monkeypatch):
    from perfbench import workloads

    # The host runs the reference loop at half the nominal speed.
    monkeypatch.setattr(
        workloads, "host_reference_seconds", lambda repeats: 2 * workloads.REFERENCE_NOMINAL_S
    )
    workload = dataclasses.replace(_probe_workload([]), host_corrected=True)
    measurement, setups, _ = run.run_untraced(workload, None, 1.0, tmp_path)
    walls = measurement.details["setup_s_uncorrected_each"]
    assert len(walls) == run.SETUP_REPEATS
    assert setups == [wall / 2 for wall in walls]
