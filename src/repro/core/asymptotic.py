"""Practical (asymptotic) query-view security — Section 6.2.

The perfect-secrecy standard classifies many practically harmless pairs
as insecure.  Following the paper's Section 6.2 (and Dalvi, Miklau &
Suciu, ICDT 2005), this module analyses the *asymptotic* model: the
domain size ``n`` grows to infinity while the expected size of every
relation stays a constant ``S_R`` (each potential fact of an arity-``a``
relation has probability ``S_R / n^a``), and the quantity of interest is

    lim_{n→∞} μ_n[Q | V]

for boolean conjunctive queries ``Q`` (the secret) and ``V`` (the view).
The key fact is that ``μ_n[Q] = c·n^{-d} + O(n^{-d-1})`` for computable
``c`` and ``d``.  We compute ``d`` exactly and ``c`` at leading order by
enumerating the *minimal witness patterns* of the query (collapses of
its variables), and classify a pair as

* ``PERFECT``              — secure under the paper's exact criterion
  (critical tuples disjoint; Theorem 4.5),
* ``PRACTICAL_SECURITY``   — ``lim μ_n[Q | V] = 0`` although not
  perfectly secure,
* ``PRACTICAL_DISCLOSURE`` — ``lim μ_n[Q | V] > 0``.

:func:`empirical_mu` estimates ``μ_n[Q]`` by Monte-Carlo simulation at a
concrete ``n`` so benchmarks can check the analytic exponents.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..cq.canonical import QueryLike, as_query
from ..cq.compose import conjoin
from ..cq.evaluation import evaluate_boolean
from ..cq.query import ConjunctiveQuery
from ..cq.terms import Variable, is_variable
from ..exceptions import SecurityAnalysisError
from ..relational.domain import Domain
from ..relational.instance import Instance
from ..relational.schema import RelationSchema, Schema
from ..relational.tuples import Fact
from .security import decide_security

__all__ = [
    "AsymptoticOrder",
    "WitnessPattern",
    "PracticalSecurityLevel",
    "PracticalSecurityReport",
    "asymptotic_order",
    "classify_practical_security",
    "empirical_mu",
]


class PracticalSecurityLevel(enum.Enum):
    """The three regimes of Section 6.2."""

    PERFECT = "perfect query-view security"
    PRACTICAL_SECURITY = "practical query-view security"
    PRACTICAL_DISCLOSURE = "practical disclosure"


@dataclass(frozen=True)
class WitnessPattern:
    """A minimal witness set of a boolean query, up to renaming of fresh values.

    Attributes
    ----------
    facts:
        The abstract facts of the witness (fresh values are integers
        ``0, 1, ...``; query constants appear verbatim).
    fresh_values:
        Number of distinct fresh values — the pattern contributes
        ``~ n^fresh_values`` concrete witness sets.
    weight:
        Total arity weight of the facts — a concrete witness set has
        probability ``(Π S_R) / n^weight``.
    exponent:
        ``weight − fresh_values`` — the pattern's contribution decays as
        ``n^{-exponent}``.
    automorphisms:
        Number of fresh-value permutations preserving the fact set; the
        number of concrete sets is ``n^fresh_values / automorphisms`` at
        leading order.
    coefficient:
        ``(Π_facts S_R) / automorphisms`` — the pattern's contribution to
        the leading coefficient.
    """

    facts: FrozenSet[Fact]
    fresh_values: int
    weight: int
    exponent: int
    automorphisms: int
    coefficient: float


@dataclass(frozen=True)
class AsymptoticOrder:
    """``μ_n[Q] ≈ coefficient · n^{-exponent}`` (leading order).

    ``exponent == 0`` means the probability tends to a positive constant
    (``1 − e^{-coefficient}`` at first order in the Poisson regime);
    ``exponent > 0`` means it vanishes polynomially.
    """

    query: ConjunctiveQuery
    exponent: int
    coefficient: float
    patterns: Tuple[WitnessPattern, ...]

    def estimate(self, n: int) -> float:
        """The leading-order estimate of ``μ_n[Q]`` at a concrete domain size."""
        value = self.coefficient * float(n) ** (-self.exponent)
        return min(1.0, value)


@dataclass(frozen=True)
class PracticalSecurityReport:
    """Classification of a (secret, view) pair in the asymptotic model."""

    level: PracticalSecurityLevel
    limit: float
    secret_order: Optional[AsymptoticOrder]
    view_order: Optional[AsymptoticOrder]
    joint_order: Optional[AsymptoticOrder]
    explanation: str


# ---------------------------------------------------------------------------
# Pattern enumeration
# ---------------------------------------------------------------------------
def _set_partitions(items: Sequence[Variable]) -> Iterator[List[List[Variable]]]:
    """All set partitions of ``items`` (order of blocks is irrelevant)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [first]] + partition[i + 1 :]
        yield partition + [[first]]


class _Fresh:
    """A fresh symbolic value (one per fresh block of a collapse)."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"?{self.index}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Fresh) and other.index == self.index

    def __hash__(self) -> int:
        return hash(("_Fresh", self.index))

    def __lt__(self, other: object) -> bool:
        if isinstance(other, _Fresh):
            return self.index < other.index
        return NotImplemented


def _check_no_order_predicates(query: ConjunctiveQuery) -> None:
    if query.has_order_predicates:
        raise SecurityAnalysisError(
            "the asymptotic analysis supports only =/!= comparisons "
            "(order predicates have no meaning for symbolic fresh values)"
        )


def _comparisons_hold_symbolically(
    query: ConjunctiveQuery, assignment: Mapping[Variable, object]
) -> bool:
    """Evaluate =/!= comparisons under a symbolic assignment.

    Fresh symbols are pairwise distinct and distinct from every constant,
    so equality is decidable symbolically.
    """
    for comparison in query.comparisons:
        left = assignment.get(comparison.left, comparison.left) if is_variable(
            comparison.left
        ) else comparison.left.value
        right = assignment.get(comparison.right, comparison.right) if is_variable(
            comparison.right
        ) else comparison.right.value
        equal = left == right
        if comparison.op == "=" and not equal:
            return False
        if comparison.op == "!=" and equal:
            return False
    return True


def _pattern_automorphisms(facts: FrozenSet[Fact], fresh_count: int) -> int:
    """Number of permutations of the fresh values mapping the fact set onto itself."""
    if fresh_count <= 1:
        return 1
    count = 0
    for permutation in itertools.permutations(range(fresh_count)):
        mapping = {i: permutation[i] for i in range(fresh_count)}
        remapped = set()
        for fact in facts:
            values = tuple(
                _Fresh(mapping[v.index]) if isinstance(v, _Fresh) else v
                for v in fact.values
            )
            remapped.add(Fact(fact.relation, values))
        if remapped == set(facts):
            count += 1
    return max(count, 1)


def _canonical_pattern_key(facts: FrozenSet[Fact], fresh_count: int) -> Tuple:
    """A canonical key of the fact set up to renaming of fresh values."""
    best: Optional[Tuple] = None
    indices = list(range(fresh_count))
    for permutation in itertools.permutations(indices):
        mapping = {i: permutation[i] for i in range(fresh_count)}
        rendered = tuple(
            sorted(
                (
                    fact.relation,
                    tuple(
                        ("fresh", mapping[v.index]) if isinstance(v, _Fresh) else ("const", repr(v))
                        for v in fact.values
                    ),
                )
                for fact in facts
            )
        )
        if best is None or rendered < best:
            best = rendered
    return best if best is not None else ()


def _is_minimal_witness(query: ConjunctiveQuery, facts: FrozenSet[Fact]) -> bool:
    """Is the fact set a *minimal* witness of the boolean query?"""
    instance = Instance(facts)
    if not evaluate_boolean(query, instance):
        return False
    return all(
        not evaluate_boolean(query, instance.remove(fact)) for fact in facts
    )


def asymptotic_order(
    query: ConjunctiveQuery,
    expected_sizes: Mapping[str, float] | float = 1.0,
    max_variables: int = 10,
) -> AsymptoticOrder:
    """Leading-order asymptotics of ``μ_n[Q]`` for a boolean conjunctive query.

    Parameters
    ----------
    query:
        A boolean conjunctive query (only ``=``/``!=`` comparisons).
    expected_sizes:
        Expected relation sizes ``S_R`` — either one number for all
        relations or a mapping per relation name.
    """
    if not query.is_boolean:
        raise SecurityAnalysisError("asymptotic_order expects a boolean query")
    _check_no_order_predicates(query)
    variables = sorted(query.variables)
    if len(variables) > max_variables:
        raise SecurityAnalysisError(
            f"query has {len(variables)} variables; pattern enumeration over set "
            f"partitions is limited to {max_variables}"
        )
    constants = sorted(query.constants, key=repr)
    if isinstance(expected_sizes, (int, float)):
        sizes: Dict[str, float] = {name: float(expected_sizes) for name in query.relation_names}
    else:
        sizes = {name: float(expected_sizes.get(name, 1.0)) for name in query.relation_names}

    best_exponent: Optional[int] = None
    patterns_by_key: Dict[Tuple, WitnessPattern] = {}
    all_patterns: List[WitnessPattern] = []

    for partition in _set_partitions(variables):
        block_targets: List[List[object]] = []
        for _ in partition:
            block_targets.append(["fresh"] + list(constants))
        for targets in itertools.product(*block_targets) if partition else [()]:
            chosen_constants = [t for t in targets if t != "fresh"]
            if len(chosen_constants) != len(set(map(repr, chosen_constants))):
                continue  # two blocks on the same constant = a coarser partition
            assignment: Dict[Variable, object] = {}
            fresh_index = 0
            for block, target in zip(partition, targets):
                value: object
                if target == "fresh":
                    value = _Fresh(fresh_index)
                    fresh_index += 1
                else:
                    value = target
                for variable in block:
                    assignment[variable] = value
            if not _comparisons_hold_symbolically(query, assignment):
                continue
            facts = frozenset(atom.ground(assignment) for atom in query.body)
            weight = sum(fact.arity for fact in facts)
            exponent = weight - fresh_index
            coefficient_product = 1.0
            for fact in facts:
                coefficient_product *= sizes.get(fact.relation, 1.0)
            automorphisms = _pattern_automorphisms(facts, fresh_index)
            pattern = WitnessPattern(
                facts=facts,
                fresh_values=fresh_index,
                weight=weight,
                exponent=exponent,
                automorphisms=automorphisms,
                coefficient=coefficient_product / automorphisms,
            )
            all_patterns.append(pattern)
            if best_exponent is None or exponent < best_exponent:
                best_exponent = exponent

    if best_exponent is None:
        raise SecurityAnalysisError("the query admits no witness pattern")

    # Leading coefficient: sum over *distinct minimal* witness patterns at the
    # minimal exponent (the union of their presence events is μ_n[Q] at
    # leading order; non-minimal witnesses are dominated).
    for pattern in all_patterns:
        if pattern.exponent != best_exponent:
            continue
        if not _is_minimal_witness(query, pattern.facts):
            continue
        key = _canonical_pattern_key(pattern.facts, pattern.fresh_values)
        patterns_by_key.setdefault(key, pattern)

    minimal_patterns = tuple(patterns_by_key.values())
    coefficient = sum(p.coefficient for p in minimal_patterns)
    if not minimal_patterns:
        # Fall back (should not happen): use all patterns at the best exponent.
        fallback = [p for p in all_patterns if p.exponent == best_exponent]
        coefficient = sum(p.coefficient for p in fallback)
        minimal_patterns = tuple(fallback)
    return AsymptoticOrder(
        query=query,
        exponent=best_exponent,
        coefficient=coefficient,
        patterns=minimal_patterns,
    )


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------
def classify_practical_security(
    secret: QueryLike,
    view: QueryLike,
    schema: Schema,
    expected_sizes: Mapping[str, float] | float = 1.0,
    zero_threshold: float = 1e-12,
    *,
    critical_fn=None,
) -> PracticalSecurityReport:
    """Classify a boolean (secret, view) pair per Section 6.2.

    Checks perfect security first (Theorem 4.5); otherwise compares the
    asymptotic orders of ``μ_n[V]`` and ``μ_n[Q ∧ V]``:

    * ``exponent(QV) > exponent(V)``  →  practical security (limit 0),
    * ``exponent(QV) = exponent(V)``  →  practical disclosure with limit
      ``coefficient(QV)/coefficient(V)``.

    Without an explicit ``critical_fn`` the process-wide
    :func:`~repro.core.criticality.default_cache` caches the underlying
    Theorem 4.5 critical-tuple computation.
    """
    secret = as_query(secret, "secret")
    view = as_query(view, "view")
    if not secret.is_boolean or not view.is_boolean:
        raise SecurityAnalysisError(
            "classify_practical_security expects boolean secret and view queries"
        )
    decision = decide_security(secret, view, schema, critical_fn=critical_fn)
    if decision.secure:
        return PracticalSecurityReport(
            level=PracticalSecurityLevel.PERFECT,
            limit=0.0,
            secret_order=None,
            view_order=None,
            joint_order=None,
            explanation="critical tuples are disjoint: the view provides no information "
            "about the secret for any distribution (Theorem 4.5)",
        )

    secret_order = asymptotic_order(secret, expected_sizes)
    view_order = asymptotic_order(view, expected_sizes)
    joint = conjoin(secret, view, name=f"{secret.name}_and_{view.name}")
    joint_order = asymptotic_order(joint, expected_sizes)

    if joint_order.exponent < view_order.exponent:
        raise SecurityAnalysisError(
            "inconsistent asymptotic orders (joint decays slower than the view); "
            "this indicates a pattern-enumeration bound was hit"
        )
    if joint_order.exponent > view_order.exponent:
        return PracticalSecurityReport(
            level=PracticalSecurityLevel.PRACTICAL_SECURITY,
            limit=0.0,
            secret_order=secret_order,
            view_order=view_order,
            joint_order=joint_order,
            explanation=(
                f"μ_n[QV] = Θ(n^-{joint_order.exponent}) vanishes faster than "
                f"μ_n[V] = Θ(n^-{view_order.exponent}); the conditional probability "
                "tends to 0 — the disclosure is negligible for large domains"
            ),
        )

    def limiting_value(order: AsymptoticOrder) -> float:
        # At exponent 0 the number of witnesses is Poisson with the given
        # mean, so the limiting probability is 1 − e^{−coefficient}.
        import math

        if order.exponent == 0:
            return 1.0 - math.exp(-order.coefficient)
        return order.coefficient

    denominator = limiting_value(view_order)
    limit = limiting_value(joint_order) / denominator if denominator else 1.0
    level = (
        PracticalSecurityLevel.PRACTICAL_SECURITY
        if limit <= zero_threshold
        else PracticalSecurityLevel.PRACTICAL_DISCLOSURE
    )
    return PracticalSecurityReport(
        level=level,
        limit=limit,
        secret_order=secret_order,
        view_order=view_order,
        joint_order=joint_order,
        explanation=(
            f"μ_n[QV] and μ_n[V] decay at the same rate n^-{view_order.exponent}; "
            f"the conditional probability tends to ≈{limit:.4g} — a non-negligible disclosure"
            if level is PracticalSecurityLevel.PRACTICAL_DISCLOSURE
            else "the leading coefficients cancel; the disclosure is negligible"
        ),
    )


# ---------------------------------------------------------------------------
# Empirical validation
# ---------------------------------------------------------------------------
def empirical_mu(
    query: ConjunctiveQuery,
    domain_size: int,
    expected_sizes: Mapping[str, float] | float = 1.0,
    samples: int = 5_000,
    seed: int = 0,
    arities: Optional[Mapping[str, int]] = None,
) -> float:
    """Monte-Carlo estimate of ``μ_n[Q]`` at one concrete domain size ``n``.

    Builds the asymptotic model's dictionary (each fact of relation ``R``
    with arity ``a`` has probability ``S_R / n^a``) over a fresh integer
    domain and samples instances.

    ``arities`` supplies the arity of each relation; when omitted the
    arities are inferred from the query's atoms.
    """
    if not query.is_boolean:
        raise SecurityAnalysisError("empirical_mu expects a boolean query")
    inferred: Dict[str, int] = {}
    for atom in query.body:
        inferred.setdefault(atom.relation, atom.arity)
    if arities:
        inferred.update(arities)
    # The domain must contain the query's constants, padded with fresh
    # integers up to the requested size.
    constants = sorted(query.constants, key=repr)
    if len(constants) > domain_size:
        raise SecurityAnalysisError(
            f"domain_size={domain_size} is smaller than the number of constants "
            f"({len(constants)}) mentioned by the query"
        )
    padding = [i for i in range(domain_size) if i not in constants]
    domain = Domain(
        list(constants) + padding[: domain_size - len(constants)],
        name=f"D{domain_size}",
    )
    relations = [
        RelationSchema(name, tuple(f"a{i}" for i in range(arity)))
        for name, arity in sorted(inferred.items())
    ]
    schema = Schema(relations, domain=domain)
    if isinstance(expected_sizes, (int, float)):
        sizes = {name: float(expected_sizes) for name in inferred}
    else:
        sizes = {name: float(expected_sizes.get(name, 1.0)) for name in inferred}
    del schema  # the relation-wise sampler below scales to huge tuple spaces
    # Per-relation fact probabilities in the asymptotic model.
    fact_probabilities: Dict[str, float] = {
        name: min(1.0, sizes[name] / float(domain_size) ** arity)
        for name, arity in inferred.items()
    }

    import random

    rng = random.Random(seed)
    hits = 0
    values = list(domain.values)
    for _ in range(samples):
        facts: List[Fact] = []
        for name, arity in inferred.items():
            p = fact_probabilities[name]
            expected = sizes[name]
            # Sampling every cell is infeasible (n^arity cells), so draw the
            # number of present facts (binomial ≈ Poisson for sparse spaces)
            # and place them uniformly at random; collisions are de-duplicated
            # and vanishingly rare in the sparse regime.
            total_cells = float(domain_size) ** arity
            count = _sample_binomial(rng, total_cells, p, expected)
            chosen = set()
            for _ in range(count):
                chosen.add(tuple(rng.choice(values) for _ in range(arity)))
            facts.extend(Fact(name, row) for row in chosen)
        if evaluate_boolean(query, Instance(facts)):
            hits += 1
    return hits / samples


def _sample_binomial(rng, total_cells: float, p: float, expected: float) -> int:
    """Sample the number of present facts.

    For the huge, sparse spaces of the asymptotic model a Poisson
    approximation with mean ``expected`` is used; for small spaces an
    exact binomial is drawn.
    """
    if total_cells <= 64:
        n = int(total_cells)
        return sum(1 for _ in range(n) if rng.random() < p)
    # Poisson sampling via inversion (mean = expected).
    import math

    mean = expected
    l = math.exp(-mean)
    k = 0
    prob = 1.0
    while True:
        prob *= rng.random()
        if prob <= l:
            return k
        k += 1
        if k > 1000:
            return k
