"""Reproduction of **Examples 4.6 / 4.7** and the Theorem 4.10 example.

Regenerates the critical-tuple sets the paper lists, the resulting
security verdicts, and the subtle example after Theorem 4.10 of a tuple
that is a homomorphic image of a subgoal yet not critical.  Also times
the two critical-tuple procedures (minimal-instance search vs. naive
instance enumeration) on the same inputs — the ablation DESIGN.md calls
out.
"""

from __future__ import annotations

import pytest

from repro import q
from repro.bench import binary_schema
from repro.core import (
    candidate_critical_facts,
    critical_tuples,
    is_critical,
)
from repro.reference import critical_tuples_naive
from repro.relational import Domain, Fact, RelationSchema, Schema

SCHEMA = binary_schema(("a", "b"))


def test_example_4_6_critical_tuples(benchmark, experiment_report):
    report = experiment_report(
        "Examples 4.6 / 4.7 — critical tuples and security",
        ("example", "query", "crit (measured)", "verdict"),
    )
    view = q("V(x) :- R(x, y)")
    secret = q("S(y) :- R(x, y)")
    view_crit = benchmark(critical_tuples, view, SCHEMA)
    secret_crit = critical_tuples(secret, SCHEMA)

    report.add_row("4.6", "V(x):-R(x,y)", sorted(map(repr, view_crit)), "")
    report.add_row("4.6", "S(y):-R(x,y)", sorted(map(repr, secret_crit)), "¬(S | V)")

    all_facts = {Fact("R", (x, y)) for x in ("a", "b") for y in ("a", "b")}
    assert view_crit == all_facts
    assert secret_crit == all_facts
    assert view_crit & secret_crit


def test_example_4_7_critical_tuples(benchmark, experiment_report):
    report = experiment_report(
        "Examples 4.6 / 4.7 — critical tuples and security",
        ("example", "query", "crit (measured)", "verdict"),
    )
    view = q("V(x) :- R(x, 'b')")
    secret = q("S(y) :- R(y, 'a')")
    view_crit = benchmark(critical_tuples, view, SCHEMA)
    secret_crit = critical_tuples(secret, SCHEMA)

    report.add_row("4.7", "V(x):-R(x,b)", sorted(map(repr, view_crit)), "")
    report.add_row("4.7", "S(y):-R(y,a)", sorted(map(repr, secret_crit)), "S | V")

    assert view_crit == {Fact("R", ("a", "b")), Fact("R", ("b", "b"))}
    assert secret_crit == {Fact("R", ("a", "a")), Fact("R", ("b", "a"))}
    assert not view_crit & secret_crit


def test_theorem_4_10_non_critical_image(benchmark, experiment_report):
    report = experiment_report(
        "Theorem 4.10 example — subgoal image that is not critical",
        ("tuple", "homomorphic image of a subgoal?", "critical?"),
    )
    schema = Schema(
        [RelationSchema("R", tuple(f"a{i}" for i in range(5)))],
        domain=Domain.of("a", "b", "c"),
    )
    query = q("Q() :- R(x, y, z, z, u), R(x, x, x, y, y)")
    image = Fact("R", ("a", "a", "b", "b", "c"))
    collapsed = Fact("R", ("a", "a", "a", "a", "a"))

    image_critical = benchmark(is_critical, image, query, schema)
    collapsed_critical = is_critical(collapsed, query, schema)
    candidates = candidate_critical_facts(query, schema)

    report.add_row(repr(image), image in candidates, image_critical)
    report.add_row(repr(collapsed), collapsed in candidates, collapsed_critical)

    assert image in candidates and not image_critical
    assert collapsed_critical


@pytest.mark.parametrize("strategy", ["minimal-instance", "naive-enumeration"])
def test_critical_tuple_strategy_ablation(benchmark, experiment_report, strategy):
    report = experiment_report(
        "Ablation — critical-tuple search strategies (same result, different cost)",
        ("strategy", "query", "crit size"),
    )
    query = q("Q() :- R('a', x), R(x, y)")
    if strategy == "minimal-instance":
        result = benchmark(critical_tuples, query, SCHEMA)
    else:
        result = benchmark(critical_tuples_naive, query, SCHEMA)
    report.add_row(strategy, repr(query), len(result))
    assert result == critical_tuples_naive(query, SCHEMA)
