"""Unification of atoms, and matching atoms against ground facts.

Unification is the workhorse of the paper's *practical algorithm*
(Section 4.2): two queries can only share a critical tuple if some pair
of their subgoals unifies, so comparing all pairs of subgoals gives a
fast, conservative security check.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..relational.tuples import Fact
from .atoms import Atom
from .query import ConjunctiveQuery
from .terms import Term, Variable, is_constant, is_variable

__all__ = [
    "unify_atoms",
    "atoms_unifiable",
    "match_atom_to_fact",
    "unifiable_subgoal_pairs",
    "queries_share_unifiable_subgoals",
]

Substitution = Dict[Variable, Term]


def _walk(term: Term, substitution: Substitution) -> Term:
    """Follow variable bindings until a constant or an unbound variable."""
    while is_variable(term) and term in substitution:
        term = substitution[term]
    return term


def unify_atoms(
    left: Atom, right: Atom, substitution: Optional[Substitution] = None
) -> Optional[Substitution]:
    """Most general unifier of two atoms, or ``None`` when they do not unify.

    The two atoms are assumed to use disjoint variable namespaces when a
    genuine most-general unifier is needed (callers rename apart first);
    when they share variables the shared variables are treated as the
    same logical variable, which is what the practical algorithm needs
    when comparing subgoals *within* one query.
    """
    if left.relation != right.relation or left.arity != right.arity:
        return None
    substitution = dict(substitution or {})
    for left_term, right_term in zip(left.terms, right.terms):
        lt = _walk(left_term, substitution)
        rt = _walk(right_term, substitution)
        if lt == rt:
            continue
        if is_variable(lt):
            substitution[lt] = rt
        elif is_variable(rt):
            substitution[rt] = lt
        else:  # two distinct constants
            return None
    return substitution


def atoms_unifiable(left: Atom, right: Atom) -> bool:
    """True when the two atoms unify (after implicit renaming apart)."""
    renamed_right = Atom(
        right.relation,
        tuple(
            Variable(f"__r_{t.name}") if is_variable(t) else t for t in right.terms
        ),
    )
    return unify_atoms(left, renamed_right) is not None


def match_atom_to_fact(atom: Atom, fact: Fact) -> Optional[Dict[Variable, object]]:
    """The valuation mapping ``atom`` onto the ground ``fact`` (None on mismatch).

    One-way matching: relation, arity and every constant must agree, and
    a repeated variable must meet equal values.  The result maps each of
    the atom's variables to its raw value in the fact.  It is the one
    subgoal-to-fact matcher: crit_D's engines, both delta engines and
    the live delta classifier share it, so none of them can diverge on
    what counts as a homomorphic image.
    """
    if atom.relation != fact.relation or atom.arity != fact.arity:
        return None
    valuation: Dict[Variable, object] = {}
    for term, value in zip(atom.terms, fact.values):
        if is_constant(term):
            if term.value != value:
                return None
        else:
            # setdefault hashes the variable once; a value it has just
            # bound is not compared with itself.
            bound = valuation.setdefault(term, value)
            if bound is not value and bound != value:
                return None
    return valuation


def unifiable_subgoal_pairs(
    secret: ConjunctiveQuery, view: ConjunctiveQuery
) -> Tuple[Tuple[Atom, Atom], ...]:
    """All pairs (secret subgoal, view subgoal) that unify.

    This is the evidence returned by the practical algorithm: an empty
    result certifies security (no shared critical tuple is possible); a
    non-empty result flags *potential* insecurity.
    """
    view = view.rename_apart(secret.variables)
    pairs = []
    for secret_atom in secret.body:
        for view_atom in view.body:
            if unify_atoms(secret_atom, view_atom) is not None:
                pairs.append((secret_atom, view_atom))
    return tuple(pairs)


def queries_share_unifiable_subgoals(
    secret: ConjunctiveQuery, views: Iterable[ConjunctiveQuery]
) -> bool:
    """True when any view has a subgoal unifying with a secret subgoal."""
    return any(unifiable_subgoal_pairs(secret, view) for view in views)
