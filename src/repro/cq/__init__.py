"""Conjunctive-query substrate: terms, atoms, queries, parsing, evaluation.

Implements the query language of Section 3.1 of the paper: conjunctive
queries with inequalities in datalog notation, plus homomorphisms,
unification and containment machinery used by the security analysis.
"""

from .atoms import Atom, Comparison
from .compiled import CompiledPlan, evaluation_stats, plan_for, reset_evaluation_stats
from .compose import conjoin, conjoin_all
from .containment import are_equivalent, determines, is_answerable_from, is_contained_in
from .evaluation import (
    answer_contains,
    delta_apply,
    delta_apply_many,
    delta_changes,
    evaluate,
    evaluate_boolean,
    possible_answers,
    satisfying_assignments,
)
from .plan import plan_atom_order
from .homomorphism import (
    canonical_instance,
    find_query_homomorphism,
    has_homomorphism_into_instance,
    has_query_homomorphism,
)
from .parser import parse_atom, parse_query, parse_term, q
from .query import ConjunctiveQuery
from .terms import Constant, Term, Variable
from .union import UnionQuery, union_of
from .unification import (
    atoms_unifiable,
    match_atom_to_fact,
    queries_share_unifiable_subgoals,
    unifiable_subgoal_pairs,
    unify_atoms,
)

__all__ = [
    "Atom",
    "Comparison",
    "ConjunctiveQuery",
    "Constant",
    "Term",
    "Variable",
    "parse_query",
    "parse_atom",
    "parse_term",
    "q",
    "evaluate",
    "evaluate_boolean",
    "possible_answers",
    "satisfying_assignments",
    "answer_contains",
    "delta_changes",
    "delta_apply",
    "delta_apply_many",
    "CompiledPlan",
    "plan_for",
    "plan_atom_order",
    "evaluation_stats",
    "reset_evaluation_stats",
    "find_query_homomorphism",
    "has_query_homomorphism",
    "has_homomorphism_into_instance",
    "canonical_instance",
    "unify_atoms",
    "atoms_unifiable",
    "match_atom_to_fact",
    "unifiable_subgoal_pairs",
    "queries_share_unifiable_subgoals",
    "is_contained_in",
    "are_equivalent",
    "determines",
    "is_answerable_from",
    "conjoin",
    "conjoin_all",
    "UnionQuery",
    "union_of",
]
