"""Composition helpers for conjunctive queries and their unions.

Security analyses frequently need the *conjunction* of two boolean
queries (``S ∧ V``, e.g. in Eq. (6) ``f_{S∧V} = f_S · f_V``, when
computing ``μ_n[QV]`` in Section 6.2, or for Theorem 6.1's statements
``s ⊆ S(I)``).  :func:`conjoin` builds it by renaming the operands apart
and concatenating their bodies, disjunct by disjunct for a union.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..exceptions import QueryError
from .query import ConjunctiveQuery
from .union import UnionQuery

__all__ = ["conjoin", "conjoin_all"]


def conjoin(
    left: ConjunctiveQuery | UnionQuery,
    right: ConjunctiveQuery | UnionQuery,
    name: str | None = None,
) -> ConjunctiveQuery | UnionQuery:
    """The boolean conjunction ``left ∧ right`` of two boolean queries.

    The right operand is renamed apart so that accidental variable
    sharing does not correlate the two bodies.  Conjunction distributes
    over a union: ``(A ∨ B) ∧ C`` is the union ``(A ∧ C) ∨ (B ∧ C)``.
    """
    if not left.is_boolean or not right.is_boolean:
        raise QueryError("conjoin requires boolean (arity-0) queries")
    name = name or f"{left.name}_and_{right.name}"
    if isinstance(left, UnionQuery) or isinstance(right, UnionQuery):
        return UnionQuery(
            [
                conjoin(left_disjunct, right_disjunct)
                for left_disjunct in getattr(left, "disjuncts", (left,))
                for right_disjunct in getattr(right, "disjuncts", (right,))
            ],
            name=name,
        )
    renamed = right.rename_apart(left.variables)
    return ConjunctiveQuery(
        (),
        tuple(left.body) + tuple(renamed.body),
        tuple(left.comparisons) + tuple(renamed.comparisons),
        name=name,
    )


def conjoin_all(
    queries: Sequence[ConjunctiveQuery | UnionQuery], name: str = "Q_and"
) -> ConjunctiveQuery | UnionQuery:
    """Conjunction of several boolean queries or unions (left-associated)."""
    if not queries:
        raise QueryError("conjoin_all requires at least one query")
    result = queries[0]
    for query in queries[1:]:
        result = conjoin(result, query)
    return result.with_name(name)
