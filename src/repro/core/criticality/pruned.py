"""The production criticality engine: pruned and symmetry-reduced.

Two optimisations over the Appendix A minimal-instance search (kept
as the oracle :func:`repro.reference.critical_tuples`), both
verdict-preserving:

1. **Early comparison/constant propagation.**  Instead of materialising
   every total valuation (``|D|^{#remaining}``) and checking the
   comparison predicates at the leaves, the valuation space is explored
   by backtracking: a comparison (or a subgoal's tuple-space membership,
   on typed schemas) is checked as soon as its last variable is bound,
   cutting the whole subtree on failure.  Duplicate witness checks —
   distinct valuations grounding the body to the same instance and
   answer — are memoized.

2. **Symmetry reduction over interchangeable domain values.**  Over the
   untyped analysis schemas built by Proposition 4.9's domain
   construction, ``crit_D(Q)`` is invariant under every permutation of
   the domain that fixes the query's constants: query evaluation
   commutes with such renamings as long as no *order* predicate can
   tell two values apart.  Candidate facts are therefore grouped into
   orbits (canonical renaming of the non-constant values) and only one
   representative per orbit is checked.  The reduction is applied only
   when it is sound: untyped schema (no per-attribute domains), no
   order predicates, no instance constraint; otherwise every candidate
   is checked individually (still with pruning 1).

The representatives are checked serially in the calling process;
:class:`PrunedParallelEngine` keeps its name for API compatibility.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ...cq.evaluation import answer_contains, answer_tuple
from ...cq.unification import match_atom_to_fact
from ...exceptions import IntractableAnalysisError
from ...relational.domain import Domain
from ...relational.instance import Instance
from ...relational.schema import Schema
from ...relational.tuples import Fact
from .base import (
    DEFAULT_MAX_VALUATIONS,
    CriticalityEngine,
    InstanceConstraint,
    _tuple_space_set,
    candidate_critical_facts,
)

__all__ = ["PrunedParallelEngine", "critical_tuples", "is_critical"]

#: Bound on the per-search witness memo: duplicate witnesses are worth
#: caching (repeated subgoals, symmetric joins), but a search near the
#: max_valuations bound with mostly-distinct groundings must stay at
#: bounded memory like the reference minimal search's streaming enumeration.
_WITNESS_CACHE_LIMIT = 4096


def _disjuncts(query) -> Tuple:
    return getattr(query, "disjuncts", None) or (query,)


def _space_is_full(query, schema: Schema, domain: Domain) -> bool:
    """Whether grounded body facts are guaranteed inside ``tup(D)``.

    When true the search can skip the per-fact tuple-space membership
    checks entirely.  Requires an untyped schema (no per-attribute
    domains restricting positions) *and* every query constant to lie in
    the domain — a body atom's constant is the only way a grounding can
    produce a value outside it (variables are bound to candidate-fact or
    domain values only).
    """
    if any(relation.attribute_domains for relation in schema):
        return False
    return all(value in domain for value in query.constants)


def _pruned_witness_search(
    query,
    disjunct,
    seed: Dict,
    fact: Fact,
    domain: Domain,
    allowed: FrozenSet[Fact],
    full_space: bool,
    constraint: Optional[InstanceConstraint],
    max_valuations: int,
) -> bool:
    """Backtracking search for a witnessing valuation extending ``seed``.

    Explores the same valuation space as the reference minimal search
    (raising the same :class:`IntractableAnalysisError` on the same
    pre-enumeration bound), but checks each comparison — and, on typed
    schemas, each
    subgoal's tuple-space membership — at the earliest point where all
    of its variables are bound, so failing branches are cut before the
    remaining variables are enumerated.
    """
    remaining = sorted(v for v in disjunct.variables if v not in seed)
    total = len(domain) ** len(remaining) if remaining else 1
    if total > max_valuations:
        raise IntractableAnalysisError(
            f"critical-tuple search would enumerate {total} valuations for one subgoal; "
            f"exceeds the configured bound ({max_valuations}); shrink the domain",
            size_estimate=total,
        )

    witness_cache: Dict[Tuple[FrozenSet[Fact], Tuple], bool] = {}

    def check_leaf(valuation: Dict) -> bool:
        body_facts = [atom.ground(valuation) for atom in disjunct.body]
        if not full_space and any(f not in allowed for f in body_facts):
            return False
        witness_facts = frozenset(body_facts)
        if fact not in witness_facts:
            return False
        produced = answer_tuple(disjunct, valuation)
        key = (witness_facts, produced)
        cached = witness_cache.get(key)
        if cached is not None:
            return cached
        result = False
        witness = Instance(body_facts)
        if constraint is None or constraint(witness):
            without = witness.remove(fact)
            # A subset-closed constraint can never rule the smaller
            # instance out, but guard anyway for caller-supplied
            # predicates that are not actually subset-closed.
            if constraint is None or constraint(without):
                # Delta check: re-derive only the produced row on the
                # shrunken witness instead of the full answer set.
                result = not answer_contains(query, without, produced)
        if len(witness_cache) < _WITNESS_CACHE_LIMIT:
            witness_cache[key] = result
        return result

    # Comparisons fully bound by the seed are decided once, up front;
    # the rest ("pending") are scheduled into the backtracking search.
    pending: List = []
    for comparison in disjunct.comparisons:
        if not comparison.variables:
            continue  # constant-only comparisons were checked by the caller
        if all(v in seed for v in comparison.variables):
            if not comparison.evaluate(seed):
                return False
        else:
            pending.append(comparison)

    valuation = dict(seed)
    if not remaining:
        return check_leaf(valuation)

    if not pending and full_space:
        # No pruning opportunity: plain enumeration (with the witness
        # memoization still amortising duplicate groundings).
        for combo in itertools.product(domain.values, repeat=len(remaining)):
            valuation.update(zip(remaining, combo))
            if check_leaf(valuation):
                return True
        return False

    # Bind comparison variables first: the earlier a comparison's last
    # variable is bound, the larger the subtree a failure cuts.
    compare_vars = {v for c in pending for v in c.variables}
    remaining.sort(key=lambda v: (v not in compare_vars, v))
    positions = {v: i for i, v in enumerate(remaining)}

    # Schedule each check at the step binding its last free variable.
    comp_at: List[List] = [[] for _ in remaining]
    for comparison in pending:
        free = [v for v in comparison.variables if v not in seed]
        comp_at[max(positions[v] for v in free)].append(comparison)
    atom_at: List[List] = [[] for _ in remaining]
    if not full_space:
        for atom in disjunct.body:
            free = [v for v in atom.variables if v not in seed]
            if free:
                atom_at[max(positions[v] for v in free)].append(atom)
            elif atom.ground(seed) not in allowed:
                return False

    def extend(index: int) -> bool:
        if index == len(remaining):
            return check_leaf(valuation)
        variable = remaining[index]
        for value in domain.values:
            valuation[variable] = value
            if all(c.evaluate(valuation) for c in comp_at[index]) and all(
                a.ground(valuation) in allowed for a in atom_at[index]
            ):
                if extend(index + 1):
                    return True
        del valuation[variable]
        return False

    return extend(0)


def _pruned_is_critical(
    fact: Fact,
    query,
    schema: Schema,
    domain: Domain,
    constraint: Optional[InstanceConstraint],
    max_valuations: int,
    full_space: Optional[bool] = None,
) -> bool:
    """Decide ``fact ∈ crit_D(Q)`` with the pruned backtracking search."""
    allowed = _tuple_space_set(schema, domain)
    if fact not in allowed:
        return False
    if full_space is None:
        full_space = _space_is_full(query, schema, domain)
    for disjunct in _disjuncts(query):
        if not all(
            c.evaluate({}) for c in disjunct.comparisons if not c.variables
        ):
            continue  # a false constant comparison makes the disjunct unsatisfiable
        for atom in disjunct.body:
            seed = match_atom_to_fact(atom, fact)
            if seed is None:
                continue
            if _pruned_witness_search(
                query,
                disjunct,
                seed,
                fact,
                domain,
                allowed,
                full_space,
                constraint,
                max_valuations,
            ):
                return True
    return False


# -- symmetry reduction ----------------------------------------------------------
def _symmetry_applies(
    query, schema: Schema, constraint: Optional[InstanceConstraint]
) -> bool:
    """Whether orbit reduction is sound for this call.

    Criticality is invariant under domain permutations fixing the
    query's constants exactly when (a) nothing distinguishes the
    remaining values — no order predicate, no per-attribute domain
    restricting the tuple space — and (b) no opaque instance constraint
    (which need not be permutation-invariant) is involved.
    """
    if constraint is not None:
        return False
    if query.has_order_predicates:
        return False
    return not any(relation.attribute_domains for relation in schema)


def _orbit_groups(
    candidates: Sequence[Fact], fixed: FrozenSet[object], domain: Domain
) -> Dict[Fact, List[Fact]]:
    """Group candidate facts by their canonical orbit representative.

    Values in ``fixed`` (the query's constants) are left untouched;
    every other value is renamed, in order of first occurrence, to the
    first interchangeable values of the domain.  Two facts share a
    representative iff one is the image of the other under a domain
    permutation fixing ``fixed`` pointwise.
    """
    interchangeable = [v for v in domain.values if v not in fixed]
    groups: Dict[Fact, List[Fact]] = {}
    for fact in candidates:
        renaming: Dict[object, object] = {}
        values = []
        for value in fact.values:
            if value in fixed or value not in domain:
                values.append(value)
            else:
                if value not in renaming:
                    renaming[value] = interchangeable[len(renaming)]
                values.append(renaming[value])
        groups.setdefault(Fact(fact.relation, values), []).append(fact)
    return groups


class PrunedParallelEngine(CriticalityEngine):
    """Pruned, symmetry-reduced minimal-instance search."""

    def is_critical(
        self,
        fact,
        query,
        schema,
        domain=None,
        constraint=None,
        max_valuations=DEFAULT_MAX_VALUATIONS,
    ):
        domain = domain or schema.domain
        return _pruned_is_critical(fact, query, schema, domain, constraint, max_valuations)

    def critical_tuples(
        self,
        query,
        schema,
        domain=None,
        constraint=None,
        max_valuations=DEFAULT_MAX_VALUATIONS,
    ):
        domain = domain or schema.domain
        # key=repr: Fact's native ordering compares raw values, which
        # raises TypeError on mixed-type analysis domains (e.g. a numeric
        # query constant padded with string fresh constants).
        candidates = sorted(candidate_critical_facts(query, schema, domain), key=repr)
        if _symmetry_applies(query, schema, constraint):
            groups = _orbit_groups(candidates, frozenset(query.constants), domain)
        else:
            groups = {fact: [fact] for fact in candidates}
        full_space = _space_is_full(query, schema, domain)
        result = set()
        for representative, members in groups.items():
            if _pruned_is_critical(
                representative, query, schema, domain, constraint, max_valuations, full_space
            ):
                result.update(members)
        return frozenset(result)


def critical_tuples(
    query,
    schema: Schema,
    domain: Optional[Domain] = None,
    constraint: Optional[InstanceConstraint] = None,
    max_valuations: int = DEFAULT_MAX_VALUATIONS,
) -> FrozenSet[Fact]:
    """``crit_D(Q)`` (or ``crit_D(Q, K)`` when a constraint is given)."""
    return PrunedParallelEngine().critical_tuples(
        query, schema, domain, constraint, max_valuations
    )


def is_critical(
    fact: Fact,
    query,
    schema: Schema,
    domain: Optional[Domain] = None,
    constraint: Optional[InstanceConstraint] = None,
    max_valuations: int = DEFAULT_MAX_VALUATIONS,
) -> bool:
    """Decide ``fact ∈ crit_D(Q)`` (or ``crit_D(Q, K)``)."""
    return PrunedParallelEngine().is_critical(
        fact, query, schema, domain, constraint, max_valuations
    )
