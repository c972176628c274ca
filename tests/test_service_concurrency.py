"""A concurrency oracle for the request pipeline of both front doors.

A hypothesis state machine sends concurrent ``live-create``,
``apply-delta`` (fact deltas, and view publishes, replacements and
retracts), ``live-audit`` and ``subscribe`` requests, plus bursts
of identical and of distinct analysis requests, to a single-process
daemon (:class:`ServerThread`) and to a 2-worker fleet
(:class:`FleetThread`), both running under a seeded plan of random
``server.respond`` delays on ``live-audit`` and ``router.forward``
delays on ``decide`` (only the fleet's router reaches that point, so
its requests sit admitted but not yet forwarded while others are
routed).  Each step's requests run at once and are joined before the
checks, which compare against a sequential reference
:class:`~repro.session.LiveAuditSession` or
:class:`~repro.session.AnalysisSession`:

* every ``live-audit`` answer equals the reference at some revision
  between the last delta acknowledged before the step and the last one
  acknowledged at its end (linearizability);
* every ``subscribe`` stream holds exactly the revisions after its
  acknowledgement, in order, each equal to the reference;
* a retract that fails names a view that some state of its step did
  not publish;
* of two racing ``live-create`` requests for one name exactly one wins,
  and the session then holds the winner's facts;
* analysis requests carry per-request deadlines (or none), and a
  ``server.execute`` delay makes some of them run out: every answer is
  the reference decision, or ``deadline-exceeded`` for a request whose
  own budget ran out;
* each burst of identical analysis requests executes exactly once: it
  adds one ``computed``, or one abandoned execution when the request
  that ran it ran out of budget first;
* each of a burst of distinct ``decide`` requests executes once.
"""

from __future__ import annotations

import itertools
import json
import socket
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule, run_state_machine_as_test

from repro import faults
from repro.bench import employee_schema
from repro.io import schema_from_dict, schema_to_dict
from repro.service import AuditServiceClient, FaultPlan, FleetThread, ServerThread
from repro.service.protocol import ERROR_DEADLINE_EXCEEDED, encode_message
from repro.session import AnalysisSession, LiveAuditSession, fact_from_document

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
    {"point": "router.forward", "action": "delay", "op": "decide",
     "probability": 0.5, "delay": 0.03, "count": None},
    {"point": "server.execute", "action": "delay", "op": "decide",
     "probability": 0.5, "delay": 0.05, "count": None},
]}
#: Per-request ``deadline_ms`` budgets: none, some that the delays above
#: outlast, and ample ones.
DEADLINES = st.lists(st.sampled_from((None, 20, 60, 30_000)), min_size=2, max_size=6)
#: ``(secret head and body, views)`` of the distinct-request bursts: the
#: first pair is secure, the others are not.
DISTINCT_SHAPES = (
    ("(n) :- Emp(n, HR, p)", {"bob": "V(n) :- Emp(n, Mgmt, p)"}),
    ("(n, p) :- Emp(n, d, p)", VIEWS),
    ("(d) :- Emp(n, d, p)", VIEWS),
)

_names = itertools.count()

FACT_SETS = st.lists(st.sampled_from(range(len(FACTS))), max_size=3, unique=True)
DELTAS = st.tuples(FACT_SETS, FACT_SETS).filter(lambda delta: delta[0] or delta[1])
#: One view change per request: a publish of a body from a small pool
#: under one of two names (so replacements occur), or a retract.
VIEW_NAMES = ("w0", "w1")
VIEW_BODIES = (
    "W(n) :- Emp(n, 'd1', p)",
    "W(n, p) :- Emp(n, d, p)",
    "W(d) :- Emp(n, d, p)",
)
VIEW_CHANGES = st.one_of(
    st.tuples(st.sampled_from(VIEW_NAMES), st.sampled_from(VIEW_BODIES)),
    st.tuples(st.sampled_from(VIEW_NAMES), st.none()),
)


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

    def _decide(self, deadline, **fields) -> tuple:
        """A ``decide`` within ``deadline`` ms (or none): ``(response, elapsed ms)``."""
        if deadline is not None:
            fields["deadline_ms"] = deadline
        started = time.perf_counter()
        response = self._call("decide", **fields)
        return response, (time.perf_counter() - started) * 1000.0

    def _executions(self) -> int:
        """Analyses this tier executed: answered in budget, or abandoned past it."""
        stats = self._call("stats")["result"]
        return stats["operations"].get("decide", {}).get("computed", 0) + stats["abandoned"]["total"]

    @staticmethod
    def _check_decision(answer, deadline, expected) -> None:
        """The reference verdict, or an expiry of the request's own budget."""
        response, elapsed = answer
        if response["ok"]:
            assert response["result"]["verdict"] == expected.verdict, response
            assert response["result"]["common_critical_count"] == len(
                expected.decision.common_critical
            )
            return
        assert response["error"]["code"] == ERROR_DEADLINE_EXCEEDED, response
        assert deadline is not None and elapsed >= deadline, (deadline, elapsed, response)

    def _at_once(self, jobs) -> list:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [pool.submit(job) for job in jobs]
            return [future.result(timeout=60) for future in futures]

    def _race(self, changes, audits, subscribe):
        """Send ``apply-delta`` requests and reads at once, then check them.

        ``changes`` are ``(fields, apply)`` pairs: the request's fields and
        the same change applied to the reference, which takes the
        acknowledged changes in revision order.
        """
        before = self.acked
        jobs = [
            lambda fields=fields: self._call("apply-delta", live=self.name, **fields)
            for fields, _ in changes
        ]
        jobs += [lambda: self._call("live-audit", live=self.name)] * audits
        if subscribe:
            jobs.append(lambda: _Subscription(self.address, self.name))
        if not jobs:
            return
        results = self._at_once(jobs)
        if subscribe:
            self.subscriptions.append(results.pop())
        answered = list(zip(changes, results[: len(changes)]))
        applied = sorted(
            (pair for pair in answered if pair[1]["ok"]),
            key=lambda pair: pair[1]["result"]["revision"],
        )
        for (_, apply), response in applied:
            apply(self.reference)
            state = _verdicts(self.reference.verdicts())
            assert _verdicts(response["result"]) == state
            self.states[state["revision"]] = state
            self.acked = state["revision"]
        for (fields, _), response in answered:
            if response["ok"]:
                continue
            assert "no published view" in response["error"]["message"], response
            (name,) = fields["retract"]
            assert any(
                name not in state["views"]
                for revision, state in self.states.items()
                if before <= revision <= self.acked
            ), (name, response)
        for response in results[len(changes):]:
            assert response["ok"], response
            answer = _verdicts(response["result"])
            assert before <= answer["revision"] <= self.acked, (before, answer, self.acked)
            assert answer == self.states[answer["revision"]]

    @rule(deltas=st.lists(DELTAS, max_size=2), audits=st.integers(0, 3), subscribe=st.booleans())
    def live_ops_race(self, deltas, audits, subscribe):
        changes = [
            (
                {"add": _facts(added), "remove": _facts(removed)},
                lambda reference, added=added, removed=removed: reference.apply_delta(
                    added=[fact_from_document(d) for d in _facts(added)],
                    removed=[fact_from_document(d) for d in _facts(removed)],
                ),
            )
            for added, removed in deltas
        ]
        self._race(changes, audits, subscribe)

    @rule(views=st.lists(VIEW_CHANGES, min_size=1, max_size=2), audits=st.integers(0, 3))
    def view_churn_race(self, views, audits):
        # A subscriber acknowledged before the race sees every revision
        # the churn makes, so a change that skips one cannot go unseen.
        self.subscriptions.append(_Subscription(self.address, self.name))
        changes = []
        for name, body in views:
            if body is None:
                fields = {"retract": [name]}
                apply = lambda reference, name=name: reference.retract(name)
            else:
                fields = {"publish": {name: body}}
                apply = lambda reference, name=name, body=body: reference.publish(name, body)
            changes.append((fields, apply))
        self._race(changes, audits, subscribe=False)

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

    @rule(deadlines=DEADLINES)
    def identical_burst(self, deadlines):
        fields = {
            "schema": SCHEMA,
            "secret": f"B{next(_names)}(n) :- Emp(n, d, p)",
            "views": VIEWS,
        }
        before = self._executions()
        answers = self._at_once([
            lambda deadline=deadline: self._decide(deadline, **fields) for deadline in deadlines
        ])
        expected = AnalysisSession(schema_from_dict(SCHEMA)).decide(fields["secret"], VIEWS)
        for answer, deadline in zip(answers, deadlines):
            self._check_decision(answer, deadline, expected)
        answered = [response["result"] for response, _ in answers if response["ok"]]
        assert len({json.dumps(result, sort_keys=True) for result in answered}) <= 1
        assert self._executions() == before + 1

    @rule(
        shapes=st.lists(st.sampled_from(DISTINCT_SHAPES), min_size=2, max_size=4),
        deadlines=DEADLINES,
    )
    def distinct_burst(self, shapes, deadlines):
        requests = [
            (f"D{next(_names)}{secret}", views, deadline)
            for (secret, views), deadline in zip(shapes, itertools.cycle(deadlines))
        ]
        before = self._executions()
        answers = self._at_once([
            lambda secret=secret, views=views, deadline=deadline: self._decide(
                deadline, schema=SCHEMA, secret=secret, views=views
            )
            for secret, views, deadline in requests
        ])
        reference = AnalysisSession(schema_from_dict(SCHEMA))
        for (secret, views, deadline), answer in zip(requests, answers):
            self._check_decision(answer, deadline, reference.decide(secret, views))
        assert self._executions() == before + len(requests)

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
