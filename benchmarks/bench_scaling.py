"""Scaling and ablation benchmark (no counterpart table in the paper).

The paper proves the decision problem Π₂ᵖ-complete and offers a cheap
practical algorithm; this benchmark quantifies that trade-off on a
random conjunctive-query workload:

* wall-clock cost of the exact minimal-instance decision vs. the naive
  instance-enumeration decision vs. the practical unification check, as
  the domain grows;
* the agreement rate of the practical algorithm with the exact decision
  (it must never claim security for an insecure pair; its false alarms
  are the "rare false positives" the paper mentions).
"""

from __future__ import annotations

import time
from typing import List, Tuple

import pytest

from repro.bench import WorkloadConfig, scaling_workload
from repro.core import (
    critical_tuples,
    practical_security_check,
)
from repro.reference import critical_tuples_naive

CONFIG = WorkloadConfig(
    relations=1,
    max_arity=2,
    domain_size=2,  # overridden per sweep point
    max_subgoals=2,
    max_variables=2,
    constant_probability=0.4,
)

TITLE = "Scaling ablation — exact vs. naive vs. practical decision procedures"
HEADER = (
    "domain size",
    "pairs",
    "exact (minimal-instance) s",
    "naive (enumeration) s",
    "practical (unification) s",
    "practical agrees",
    "practical false alarms",
)


def _decide_exact(secret, view, schema) -> bool:
    return not (critical_tuples(secret, schema) & critical_tuples(view, schema))


def _decide_naive(secret, view, schema) -> bool:
    return not (
        critical_tuples_naive(secret, schema) & critical_tuples_naive(view, schema)
    )


def _sweep_point(domain_size: int, pairs_per_size: int) -> Tuple[float, float, float, int, int, int]:
    workload = scaling_workload([domain_size], pairs_per_size=pairs_per_size, config=CONFIG)
    exact_time = naive_time = practical_time = 0.0
    agreements = false_alarms = 0
    include_naive = domain_size <= 3  # 2^(d^2) instances: cap the naive run
    for _, schema, secret, view in workload:
        start = time.perf_counter()
        exact = _decide_exact(secret, view, schema)
        exact_time += time.perf_counter() - start

        if include_naive:
            start = time.perf_counter()
            naive = _decide_naive(secret, view, schema)
            naive_time += time.perf_counter() - start
            assert naive == exact

        start = time.perf_counter()
        quick = practical_security_check(secret, view)
        practical_time += time.perf_counter() - start

        if quick.certainly_secure:
            assert exact  # soundness: never certify an insecure pair
        if quick.certainly_secure == exact:
            agreements += 1
        elif not quick.certainly_secure and exact:
            false_alarms += 1
    return exact_time, naive_time, practical_time, agreements, false_alarms, len(workload)


def test_exact_vs_sampled_probability(benchmark, experiment_report):
    """Ablation: exact enumeration vs Monte-Carlo estimation of P[V̄ = v̄]."""
    from fractions import Fraction

    from repro import Dictionary, q
    from repro.bench import binary_schema
    from repro.probability import ExactEngine, MonteCarloSampler, QueryTrue

    report = experiment_report(
        "Ablation — exact enumeration vs Monte-Carlo estimation",
        ("query", "exact P", "sampled P (10k draws)", "abs. error", "exact s", "sampled s"),
    )
    schema = binary_schema(("a", "b", "c"))
    dictionary = Dictionary.uniform(schema, Fraction(1, 3))
    query = q("Q() :- R(x, y), R(y, z), x != z")
    event = QueryTrue(query)

    start = time.perf_counter()
    exact = ExactEngine(dictionary).probability(event)
    exact_seconds = time.perf_counter() - start

    sampler = MonteCarloSampler(dictionary, seed=3)

    def sampled():
        return sampler.estimate_probability(event, samples=10_000)

    sampling_start = time.perf_counter()
    estimate = benchmark.pedantic(sampled, rounds=1, iterations=1)
    sampled_seconds = time.perf_counter() - sampling_start

    error = abs(float(exact) - estimate.value)
    report.add_row(
        repr(query),
        f"{float(exact):.4f}",
        f"{estimate.value:.4f}",
        f"{error:.4f}",
        f"{exact_seconds:.3f}",
        f"{sampled_seconds:.3f}",
    )
    assert error <= 4 * estimate.standard_error + 1e-6


@pytest.mark.parametrize("domain_size", [2, 3, 4, 5])
def test_scaling_with_domain_size(benchmark, experiment_report, domain_size):
    report = experiment_report(TITLE, HEADER)
    pairs_per_size = 6
    exact_t, naive_t, practical_t, agreements, false_alarms, total = benchmark.pedantic(
        _sweep_point, args=(domain_size, pairs_per_size), rounds=1, iterations=1
    )
    report.add_row(
        domain_size,
        total,
        f"{exact_t:.4f}",
        f"{naive_t:.4f}" if naive_t else "skipped",
        f"{practical_t:.6f}",
        f"{agreements}/{total}",
        false_alarms,
    )
    # The practical check is orders of magnitude cheaper than the exact one.
    assert practical_t < exact_t
    # And it never mis-certifies (checked inside the sweep); the remaining
    # disagreements are false alarms only.
    assert agreements + false_alarms == total
