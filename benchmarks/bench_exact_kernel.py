"""Exact-kernel ablation: seed enumeration vs. compiled kernel.

The compiled :class:`~repro.probability.kernel.ProbabilityKernel` must
return *Fraction-identical* joint answer distributions to the seed
:class:`~repro.reference.NaiveExactEngine` while being at
least 5x faster on the Definition 4.1 exact-verification workloads —
joint answer distributions (plus the Eq. (4) verdict derived from them)
on supports of at least 12 facts.  This is the acceptance gate wired
into CI.

Two workload shapes are timed:

* ``emp-12-connected`` — Table 1 row 2 over ``Emp(name, department,
  phone)`` with three phone values: one 12-fact *connected* support, the
  regime where the win comes purely from compile-once + bitset
  evaluation + meet-in-the-middle mass tables.
* ``three-relations-12-disconnected`` — a manufacturing-style schema
  whose secret and views touch three disjoint relations (4 facts each):
  the kernel factorizes the 12-fact support into three 4-fact components
  (``3 · 2^4`` sub-instances instead of ``2^12``) on top of the compiled
  evaluation.

Besides the pytest gate, the run writes ``BENCH_exact_kernel.json``
(workload, seed-path time, kernel time, speedup) so the perf trajectory
is machine-readable across PRs.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from pathlib import Path

from repro.bench import employee_schema
from repro.cq.parser import parse_query
from repro.probability import Dictionary, ProbabilityKernel
from repro.reference import NaiveExactEngine
from repro.relational import Domain, RelationSchema, Schema

#: Required speedup of the kernel over the seed path (acceptance criterion).
MIN_SPEEDUP = 5.0

#: Where the machine-readable results land (repo root under CI).
JSON_PATH = Path("BENCH_exact_kernel.json")


def _verdict_from_joint(joint):
    """The Eq. (4) verdict computed from a joint answer distribution."""
    secret_marginal, views_marginal = {}, {}
    for key, probability in joint.items():
        secret_marginal[key[0]] = secret_marginal.get(key[0], Fraction(0)) + probability
        views_marginal[key[1:]] = views_marginal.get(key[1:], Fraction(0)) + probability
    for secret_answer, p_secret in secret_marginal.items():
        for view_answers, p_views in views_marginal.items():
            p_joint = joint.get((secret_answer, *view_answers), Fraction(0))
            if p_joint != p_secret * p_views:
                return False
    return True


def _connected_workload():
    """Table 1 row 2 with 3 phone values: a 12-fact connected support."""
    schema = employee_schema(names=2, departments=2, phones=3)
    dictionary = Dictionary.uniform(schema, Fraction(1, 3))
    secret = parse_query("S2(n, p) :- Emp(n, d, p)")
    views = [
        parse_query("V2(n, d) :- Emp(n, d, p)"),
        parse_query("V2p(d, p) :- Emp(n, d, p)"),
    ]
    return "emp-12-connected", dictionary, secret, views, 12


def _disconnected_workload():
    """Secret and views over three disjoint relations of 4 facts each."""
    products = Domain(["widget", "gadget"], name="products")
    money = Domain([10, 20], name="money")
    schema = Schema(
        [
            RelationSchema("Cost", ("product", "cost"), {"product": products, "cost": money}),
            RelationSchema("Labor", ("product", "lc"), {"product": products, "lc": money}),
            RelationSchema("Part", ("product", "pc"), {"product": products, "pc": money}),
        ]
    )
    dictionary = Dictionary.uniform(schema, Fraction(1, 4))
    secret = parse_query("S(p, c) :- Cost(p, c)")
    views = [
        parse_query("V1(p, l) :- Labor(p, l)"),
        parse_query("V2(p) :- Part(p, pc)"),
    ]
    return "three-relations-12-disconnected", dictionary, secret, views, 12


def _time_seed_path(dictionary, secret, views):
    engine = NaiveExactEngine(dictionary)
    started = time.perf_counter()
    joint = engine.joint_answer_distribution([secret, *views])
    verdict = _verdict_from_joint(joint)
    return time.perf_counter() - started, joint, verdict


def _time_kernel_path(dictionary, secret, views):
    # Each workload builds a fresh dictionary, whose memo table starts
    # empty, so the timed region includes compilation — the honest
    # end-to-end cost.
    kernel = ProbabilityKernel(dictionary)
    started = time.perf_counter()
    joint = kernel.joint_answer_distribution([secret, *views])
    verdict = _verdict_from_joint(joint)
    return time.perf_counter() - started, joint, verdict


def test_kernel_speedup_on_definition_4_1_workloads(experiment_report):
    report = experiment_report(
        "Exact kernel — seed enumeration vs. compiled kernel (Definition 4.1)",
        ("workload", "support", "seed (s)", "kernel (s)", "speedup", "identical"),
    )
    results = []
    seed_total = 0.0
    kernel_total = 0.0
    for workload in (_connected_workload, _disconnected_workload):
        name, dictionary, secret, views, support = workload()
        seed_elapsed, seed_joint, seed_verdict = _time_seed_path(
            dictionary, secret, views
        )
        kernel_elapsed, kernel_joint, kernel_verdict = _time_kernel_path(
            dictionary, secret, views
        )
        assert kernel_joint == seed_joint, (
            f"{name}: kernel joint distribution differs from the seed enumeration"
        )
        assert kernel_verdict == seed_verdict
        speedup = seed_elapsed / kernel_elapsed
        seed_total += seed_elapsed
        kernel_total += kernel_elapsed
        results.append(
            {
                "workload": name,
                "support_facts": support,
                "seed_seconds": round(seed_elapsed, 6),
                "kernel_seconds": round(kernel_elapsed, 6),
                "speedup": round(speedup, 2),
                "verdict": seed_verdict,
            }
        )
        report.add_row(
            name,
            support,
            f"{seed_elapsed:.3f}",
            f"{kernel_elapsed:.3f}",
            f"{speedup:.1f}x",
            "yes",
        )

    overall = seed_total / kernel_total
    report.add_note(f"overall speedup: {overall:.1f}x (required ≥ {MIN_SPEEDUP}x)")
    JSON_PATH.write_text(
        json.dumps(
            {
                "benchmark": "exact_kernel",
                "required_speedup": MIN_SPEEDUP,
                "overall_speedup": round(overall, 2),
                "workloads": results,
            },
            indent=2,
        )
        + "\n"
    )
    assert overall >= MIN_SPEEDUP, (
        f"the compiled kernel was only {overall:.2f}x faster than the seed "
        f"enumeration on the Definition 4.1 workloads (required ≥ {MIN_SPEEDUP}x)"
    )


def test_shared_kernel_amortises_repeat_verification(experiment_report):
    """Second verification of the same (queries, dictionary) is a cache hit."""
    report = experiment_report(
        "Exact kernel — shared joint distributions",
        ("call", "enumerations", "time (s)"),
    )
    from repro.core.security import (
        independence_gap,
        verify_security_probabilistically,
    )

    name, dictionary, secret, views, _ = _connected_workload()
    kernel = ProbabilityKernel(dictionary)  # reads the fresh dictionary's table
    started = time.perf_counter()
    verify_security_probabilistically(secret, views, dictionary)
    first = time.perf_counter() - started
    enumerations = kernel.stats["distributions"]
    started = time.perf_counter()
    independence_gap(secret, views, dictionary)
    second = time.perf_counter() - started
    assert kernel.stats["distributions"] == enumerations, (
        "independence_gap re-enumerated a joint distribution the dictionary's "
        "memo table already held"
    )
    report.add_row("verify (cold)", enumerations, f"{first:.3f}")
    report.add_row("gap (shared)", 0, f"{second:.3f}")
