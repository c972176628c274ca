#!/usr/bin/env python
"""Demo: the disclosure-audit service end to end, in one process.

A hospital-style data owner runs the audit daemon once and lets many
clients ask disclosure questions over the wire.  The walkthrough

1. boots the daemon on an ephemeral port (in a background thread — in
   production you would run ``repro-audit serve --port 8765``),
2. sends every kind of analysis request through the blocking client,
3. fires a burst of identical requests from concurrent connections to
   show request coalescing (the burst costs *one* computation),
4. generates a seeded, replayable workload file and load-tests the
   daemon with it,
5. reads back the server's metrics: per-operation latencies, coalescing
   hit rate, per-session cache and probability-kernel counters.

Run with::

    python examples/service_demo.py
"""

from __future__ import annotations

import asyncio
import json
import tempfile
from pathlib import Path

from repro.bench import employee_schema
from repro.io import schema_to_dict
from repro.service import AsyncAuditServiceClient, AuditServiceClient, ServerThread
from repro.workload import WorkloadSpec, generate_workload, load_workload, replay_workload, save_workload


def schema_document() -> dict:
    """The 3-variable ``Emp(name, department, phone)`` schema as JSON."""
    document = schema_to_dict(employee_schema())
    document["tuple_probability"] = "1/4"
    return document


def single_requests(address, schema: dict) -> None:
    print("== one client, every operation " + "=" * 30)
    with AuditServiceClient(*address) as client:
        decide = client.call(
            "decide",
            schema=schema,
            secret="S(n, p) :- Emp(n, d, p)",
            views={"bob": "V(n, d) :- Emp(n, d, p)"},
        )
        print(f"decide:   verdict={decide['verdict']}  ({decide['explanation'][:60]}...)")

        leakage = client.call(
            "leakage",
            schema=schema,
            secret="S(n, p) :- Emp(n, d, p)",
            views=["V(n, d) :- Emp(n, d, p)"],
        )
        print(f"leakage:  leak(S, V̄) = {leakage['leakage']['exact']}")

        knowledge = client.call(
            "with_knowledge",
            schema=schema,
            secret="S(n, p) :- Emp(n, d, p)",
            views=["V(n, d) :- Emp(n, d, p)"],
            knowledge={"kind": "keys", "keys": {"Emp": [0]}},
        )
        print(f"w/ keys:  verdict={knowledge['verdict']}")

        plan = client.call(
            "plan",
            schema=schema,
            secrets={"hr": "S(n) :- Emp(n, HR, p)", "pairs": "S(n, p) :- Emp(n, d, p)"},
            views={"bob": "V(n) :- Emp(n, Mgmt, p)", "carol": "W(n, d) :- Emp(n, d, p)"},
        )
        print(
            f"plan:     verdict={plan['verdict']}  "
            f"violations={[(v['secret'], v['recipient']) for v in plan['violations']]}"
        )

        audit = client.call(
            "audit",
            schema=schema,
            secret="S(n, p) :- Emp(n, d, p)",
            views={"bob": "V(n, d) :- Emp(n, d, p)"},
        )
        cache = audit["observability"]["critical_tuple_cache"]
        print(
            f"audit:    all_secure={audit['all_secure']}  "
            f"cache hits/misses={cache['hits']}/{cache['misses']}"
        )


def coalescing_burst(address, schema: dict, count: int = 16) -> None:
    print(f"\n== {count} identical requests, concurrently " + "=" * 20)
    document = dict(
        op="collusion",
        schema=schema,
        secret="S(n, p) :- Emp(n, d, p)",
        views={"bob": "V(n, d) :- Emp(n, d, p)", "carol": "W(d, p) :- Emp(n, d, p)"},
    )

    async def _burst():
        clients = [AsyncAuditServiceClient(*address) for _ in range(count)]
        try:
            return await asyncio.gather(*(c.request(**document) for c in clients))
        finally:
            for c in clients:
                await c.close()

    responses = asyncio.run(_burst())
    computed = sum(
        1
        for r in responses
        if not (r["server"]["coalesced"] or r["server"]["cached"])
    )
    coalesced = sum(1 for r in responses if r["server"]["coalesced"])
    cached = sum(1 for r in responses if r["server"]["cached"])
    print(f"computed={computed}  coalesced={coalesced}  result-cache hits={cached}")
    print("every response identical:",
          len({json.dumps(r["result"], sort_keys=True) for r in responses}) == 1)


def workload_replay(address) -> None:
    print("\n== seeded workload file, replayed over 8 connections " + "=" * 7)
    requests = generate_workload(WorkloadSpec(seed=7, requests=150, duplicate_fraction=0.4))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "workload.json"
        save_workload(requests, path)
        replayed = load_workload(path)  # files round-trip and re-validate
    summary = replay_workload(replayed, *address, concurrency=8)
    print(
        f"{summary['requests']} requests in {summary['seconds']}s  "
        f"-> {summary['requests_per_second']} req/s, "
        f"p50={summary['latency_ms']['p50']}ms p95={summary['latency_ms']['p95']}ms"
    )
    print(f"duplicate hits: coalesced={summary['coalesced']} cached={summary['cached']}")


def show_metrics(address) -> None:
    print("\n== server metrics " + "=" * 42)
    with AuditServiceClient(*address) as client:
        stats = client.stats()
    totals = stats["totals"]
    print(
        f"requests={totals['requests']}  computed={totals['computed']}  "
        f"duplicate_hit_rate={totals['duplicate_hit_rate']:.1%}"
    )
    cache = stats["crit_cache"]
    print(
        "crit_D cache (shared by every session): "
        f"{cache['hits']}h/{cache['misses']}m (hit rate {cache['hit_rate']:.1%})"
    )
    for session in stats["sessions"]:
        line = f"session {session['fingerprint']}"
        if "kernels" in session:
            kernel = session["kernels"].get("exact", {})
            line += (
                f"; kernel distributions={kernel.get('distributions', 0)} "
                f"(+{kernel.get('distribution_hits', 0)} memo hits)"
            )
        print(line)


def main() -> None:
    schema = schema_document()
    with ServerThread(workers=4) as server:
        print(f"daemon listening on {server.address[0]}:{server.address[1]}")
        single_requests(server.address, schema)
        coalescing_burst(server.address, schema)
        workload_replay(server.address)
        show_metrics(server.address)
    print("\ndaemon stopped cleanly")


if __name__ == "__main__":
    main()
