"""A concurrency oracle for the request pipeline of both front doors.

A hypothesis state machine sends concurrent ``live-create``,
``apply-delta``, ``live-audit`` and ``subscribe`` requests, plus bursts
of identical analysis requests, to a single-process daemon
(:class:`ServerThread`) and to a 2-worker fleet (:class:`FleetThread`),
both running under a seeded plan of random ``server.respond`` delays on
``live-audit``.  Each step's requests run at once and are joined before
the checks, which compare against a sequential reference
:class:`~repro.session.LiveAuditSession`:

* every ``live-audit`` answer equals the reference at some revision
  between the last delta acknowledged before the step and the last one
  acknowledged at its end (linearizability);
* every ``subscribe`` stream holds exactly the revisions after its
  acknowledgement, in order, each equal to the reference;
* of two racing ``live-create`` requests for one name exactly one wins,
  and the session then holds the winner's facts;
* each burst of identical analysis requests adds exactly one
  ``computed`` to ``stats``.
"""

from __future__ import annotations

import itertools
import json
import socket
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule, run_state_machine_as_test

from repro import faults
from repro.bench import employee_schema
from repro.io import schema_from_dict, schema_to_dict
from repro.service import AuditServiceClient, FaultPlan, FleetThread, ServerThread
from repro.service.protocol import encode_message
from repro.session import LiveAuditSession, fact_from_document

SCHEMA = dict(schema_to_dict(employee_schema()), tuple_probability="1/4")
SECRETS = {"s": "S(n, p) :- Emp(n, d, p)", "d0": "T(n) :- Emp(n, d0, p)"}
VIEWS = {"bob": "V(n, d) :- Emp(n, d, p)"}
FACTS = [
    ["Emp", [name, department, phone]]
    for name in ("n0", "n1")
    for department in ("d0", "d1")
    for phone in ("p0", "p1")
]
PLAN = {"seed": 5, "faults": [
    {"point": "server.respond", "action": "delay", "op": "live-audit",
     "probability": 0.5, "delay": 0.03, "count": None},
]}

_names = itertools.count()

FACT_SETS = st.lists(st.sampled_from(range(len(FACTS))), max_size=3, unique=True)
DELTAS = st.tuples(FACT_SETS, FACT_SETS).filter(lambda delta: delta[0] or delta[1])


def _verdicts(document: dict) -> dict:
    """The state-describing part of a notification or snapshot document."""
    return {
        "revision": document["revision"],
        "fact_count": document["fact_count"],
        "views": {name: entry["size"] for name, entry in document["views"].items()},
        "secrets": {
            name: {key: value for key, value in entry.items() if key != "changed"}
            for name, entry in document["secrets"].items()
        },
    }


def _facts(indexes):
    return [FACTS[index] for index in indexes]


class _Subscription:
    """A raw subscribed connection (its acknowledgement revision is kept)."""

    def __init__(self, address, live: str):
        self.socket = socket.create_connection(address, timeout=30)
        self.socket.sendall(encode_message({"id": "sub", "op": "subscribe", "live": live}))
        self.lines = self.socket.makefile("rb")
        acknowledgement = json.loads(self.lines.readline())
        assert acknowledgement["ok"], acknowledgement
        self.after = acknowledgement["result"]["revision"]

    def read_until(self, revision: int) -> list:
        received = []
        last = self.after
        while last < revision:
            line = self.lines.readline()
            assert line, f"stream ended at revision {last}, expected {revision}"
            received.append(json.loads(line))
            last = received[-1]["revision"]
        return received

    def close(self) -> None:
        self.lines.close()
        self.socket.close()


class LiveOracle(RuleBasedStateMachine):
    """One live session, driven concurrently; checked against a reference."""

    address = ("127.0.0.1", 0)

    def __init__(self):
        super().__init__()
        self.name = f"oracle-{next(_names)}"
        self.reference = self._reference([0])
        self.states = {0: _verdicts(self.reference.verdicts())}
        self.acked = 0
        self.subscriptions = []
        created = self._call("live-create", live=self.name, **self._create_fields([0]))
        assert created["ok"], created

    @staticmethod
    def _create_fields(indexes):
        return {"schema": SCHEMA, "secrets": SECRETS, "views": VIEWS, "facts": _facts(indexes)}

    @staticmethod
    def _reference(indexes) -> LiveAuditSession:
        return LiveAuditSession(
            schema_from_dict(SCHEMA),
            secrets=SECRETS,
            views=VIEWS,
            facts=[fact_from_document(document) for document in _facts(indexes)],
        )

    def _call(self, op: str, **fields) -> dict:
        with AuditServiceClient(*self.address, timeout=60) as client:
            return client.request(op, **fields)

    def _at_once(self, jobs) -> list:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [pool.submit(job) for job in jobs]
            return [future.result(timeout=60) for future in futures]

    @rule(deltas=st.lists(DELTAS, max_size=2), audits=st.integers(0, 3), subscribe=st.booleans())
    def live_ops_race(self, deltas, audits, subscribe):
        before = self.acked
        jobs = [
            lambda delta=delta: self._call(
                "apply-delta", live=self.name, add=_facts(delta[0]), remove=_facts(delta[1])
            )
            for delta in deltas
        ]
        jobs += [lambda: self._call("live-audit", live=self.name)] * audits
        if subscribe:
            jobs.append(lambda: _Subscription(self.address, self.name))
        if not jobs:
            return
        results = self._at_once(jobs)
        if subscribe:
            self.subscriptions.append(results.pop())
        applied = sorted(zip(deltas, results[: len(deltas)]), key=lambda pair: pair[1]["result"]["revision"])
        for delta, response in applied:
            assert response["ok"], response
            self.reference.apply_delta(
                added=[fact_from_document(d) for d in _facts(delta[0])],
                removed=[fact_from_document(d) for d in _facts(delta[1])],
            )
            state = _verdicts(self.reference.verdicts())
            assert _verdicts(response["result"]) == state
            self.states[state["revision"]] = state
            self.acked = state["revision"]
        for response in results[len(deltas):]:
            assert response["ok"], response
            answer = _verdicts(response["result"])
            assert before <= answer["revision"] <= self.acked, (before, answer, self.acked)
            assert answer == self.states[answer["revision"]]

    @rule(first=FACT_SETS, second=FACT_SETS)
    def live_creates_race(self, first, second):
        name = f"{self.name}-{next(_names)}"
        results = self._at_once([
            lambda: self._call("live-create", live=name, **self._create_fields(first)),
            lambda: self._call("live-create", live=name, **self._create_fields(second)),
        ])
        winners = [index for index, response in enumerate(results) if response["ok"]]
        assert len(winners) == 1, results
        loser = results[1 - winners[0]]
        assert "already exists" in loser["error"]["message"]
        audit = self._call("live-audit", live=name)
        expected = self._reference(second if winners[0] else first).verdicts()
        assert _verdicts(audit["result"]) == _verdicts(expected)

    @rule(copies=st.integers(2, 6))
    def identical_burst(self, copies):
        fields = {
            "schema": SCHEMA,
            "secret": f"B{next(_names)}(n) :- Emp(n, d, p)",
            "views": VIEWS,
        }
        before = self._call("stats")["result"]["operations"].get("decide", {})
        results = self._at_once([lambda: self._call("decide", **fields)] * copies)
        assert all(response["ok"] for response in results), results
        assert len({json.dumps(r["result"], sort_keys=True) for r in results}) == 1
        after = self._call("stats")["result"]["operations"]["decide"]
        assert after["computed"] == before.get("computed", 0) + 1

    def teardown(self):
        try:
            for subscription in self.subscriptions:
                received = subscription.read_until(self.acked)
                revisions = [notification["revision"] for notification in received]
                assert revisions == list(range(subscription.after + 1, self.acked + 1))
                for notification in received:
                    assert _verdicts(notification) == self.states[notification["revision"]]
        finally:
            for subscription in self.subscriptions:
                subscription.close()


@pytest.fixture(scope="module", params=["server", "fleet"])
def service(request):
    faults.install(FaultPlan.from_spec(PLAN))
    try:
        runner = (
            ServerThread(workers=2)
            if request.param == "server"
            else FleetThread(workers=2, worker_threads=2)
        )
        with runner as running:
            yield running
    finally:
        faults.uninstall()


def test_pipeline_is_linearizable_under_concurrency(service):
    LiveOracle.address = service.address
    run_state_machine_as_test(
        LiveOracle,
        settings=settings(
            max_examples=20,
            stateful_step_count=5,
            deadline=None,
            derandomize=True,
            database=None,
            suppress_health_check=list(HealthCheck),
        ),
    )
