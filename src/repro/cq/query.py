"""Conjunctive queries with inequalities (datalog notation).

A :class:`ConjunctiveQuery` has a head (an ordered tuple of terms), a
body of relational atoms and a set of comparison predicates.  Boolean
queries are queries of arity 0.  Conjunctive queries are monotone, which
is the property required by Theorem 4.8 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

from ..exceptions import QueryError
from ..relational.tuples import Fact
from .atoms import Atom, Comparison
from .terms import Constant, Term, Variable, is_constant, is_variable

__all__ = ["ConjunctiveQuery"]


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query ``name(head) :- body, comparisons``.

    Parameters
    ----------
    head:
        Tuple of head terms.  Empty for boolean queries.  Head variables
        must appear in the body (safety).
    body:
        Relational subgoals.
    comparisons:
        Comparison predicates over the query's variables/constants.
    name:
        Cosmetic name used when printing the query.
    """

    head: Tuple[Term, ...]
    body: Tuple[Atom, ...]
    comparisons: Tuple[Comparison, ...] = field(default_factory=tuple)
    name: str = "Q"

    def __init__(
        self,
        head: Sequence[Term],
        body: Sequence[Atom],
        comparisons: Sequence[Comparison] = (),
        name: str = "Q",
    ):
        head = tuple(head)
        body = tuple(body)
        comparisons = tuple(comparisons)
        if not body:
            raise QueryError("a conjunctive query must have at least one subgoal")
        body_vars = {v for atom in body for v in atom.variables}
        for term in head:
            if is_variable(term) and term not in body_vars:
                raise QueryError(
                    f"unsafe query: head variable {term!r} does not appear in the body"
                )
        for comparison in comparisons:
            for var in comparison.variables:
                if var not in body_vars:
                    raise QueryError(
                        f"unsafe query: comparison variable {var!r} does not appear in the body"
                    )
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "comparisons", comparisons)
        object.__setattr__(self, "name", name)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def boolean(
        cls,
        body: Sequence[Atom],
        comparisons: Sequence[Comparison] = (),
        name: str = "Q",
    ) -> "ConjunctiveQuery":
        """A boolean (arity-0) conjunctive query."""
        return cls((), body, comparisons, name=name)

    @classmethod
    def fact_query(cls, fact: Fact, name: str = "Q") -> "ConjunctiveQuery":
        """The boolean query ``Q() :- t`` asserting the presence of one fact.

        This is the construction used in the reduction preceding
        Theorem 4.11: ``S() :- t`` so that ``t ∉ crit(Q)`` iff
        ``crit(S) ∩ crit(Q) = ∅``.
        """
        atom = Atom(fact.relation, tuple(Constant(v) for v in fact.values))
        return cls.boolean((atom,), name=name)

    # -- basic properties -----------------------------------------------------
    @property
    def arity(self) -> int:
        """Arity of the query (0 for boolean queries)."""
        return len(self.head)

    @property
    def is_boolean(self) -> bool:
        """True when the query has arity 0."""
        return not self.head

    @property
    def head_variables(self) -> Tuple[Variable, ...]:
        """Head variables in head order (without duplicates)."""
        seen: list[Variable] = []
        for term in self.head:
            if is_variable(term) and term not in seen:
                seen.append(term)
        return tuple(seen)

    @property
    def variables(self) -> FrozenSet[Variable]:
        """All variables of the query (body, head and comparisons)."""
        result = {v for atom in self.body for v in atom.variables}
        for comparison in self.comparisons:
            result |= comparison.variables
        for term in self.head:
            if is_variable(term):
                result.add(term)
        return frozenset(result)

    @property
    def existential_variables(self) -> FrozenSet[Variable]:
        """Variables that occur in the body but not in the head."""
        return self.variables - set(self.head_variables)

    @property
    def constants(self) -> FrozenSet[object]:
        """All constant values mentioned anywhere in the query."""
        result = {c for atom in self.body for c in atom.constants}
        for term in self.head:
            if is_constant(term):
                result.add(term.value)
        for comparison in self.comparisons:
            for term in (comparison.left, comparison.right):
                if is_constant(term):
                    result.add(term.value)
        return frozenset(result)

    @property
    def relation_names(self) -> FrozenSet[str]:
        """Names of the relations mentioned in the body."""
        return frozenset(atom.relation for atom in self.body)

    @property
    def has_order_predicates(self) -> bool:
        """True when any comparison is an order predicate (<, <=, >, >=)."""
        return any(c.is_order_predicate for c in self.comparisons)

    @property
    def is_monotone(self) -> bool:
        """Conjunctive queries (with comparisons) are always monotone."""
        return True

    def symbol_count(self) -> int:
        """Number of distinct variables plus constants (the ``n`` of Prop. 4.9)."""
        return len(self.variables) + len(self.constants)

    # -- transformations ------------------------------------------------------
    def substitute(self, mapping: Mapping[Variable, Term]) -> "ConjunctiveQuery":
        """Apply a substitution to head, body and comparisons."""
        head = tuple(
            mapping.get(t, t) if is_variable(t) else t for t in self.head
        )
        body = tuple(atom.substitute(mapping) for atom in self.body)
        comparisons = tuple(c.substitute(mapping) for c in self.comparisons)
        return ConjunctiveQuery(head, body, comparisons, name=self.name)

    def rename_apart(self, taken: Iterable[Variable]) -> "ConjunctiveQuery":
        """Rename variables so that none clashes with the ``taken`` set.

        A clashing variable ``v`` becomes ``v_r<k>`` with the least ``k``
        whose name is free both in ``taken`` and in this query, so the
        result depends only on the inputs.
        """
        taken_set = set(taken)
        used = taken_set | self.variables
        mapping: Dict[Variable, Term] = {}
        for var in sorted(self.variables):
            if var in taken_set:
                k = 1
                while Variable(f"{var.name}_r{k}") in used:
                    k += 1
                mapping[var] = Variable(f"{var.name}_r{k}")
                used.add(mapping[var])
        if not mapping:
            return self
        return self.substitute(mapping)

    def with_name(self, name: str) -> "ConjunctiveQuery":
        """A copy of this query with a different display name."""
        return ConjunctiveQuery(self.head, self.body, self.comparisons, name=name)

    def boolean_specialisation(
        self, answer: Sequence[object], name: Optional[str] = None
    ) -> "ConjunctiveQuery":
        """The boolean query ``Q^b_t(I) = (t ∈ Q(I))`` for one answer tuple ``t``.

        This is the construction used in Section 4.3 ("the non-boolean
        case"): head variables are bound to the answer's constants and the
        query becomes boolean.  Repeated head variables must be bound
        consistently, otherwise the specialisation is unsatisfiable and a
        :class:`QueryError` is raised.
        """
        answer = tuple(answer)
        if len(answer) != self.arity:
            raise QueryError(
                f"answer {answer!r} has arity {len(answer)}, query has arity {self.arity}"
            )
        mapping: Dict[Variable, Term] = {}
        extra_comparisons: list[Comparison] = []
        for term, value in zip(self.head, answer):
            if is_constant(term):
                if term.value != value:
                    raise QueryError(
                        f"answer {answer!r} conflicts with head constant {term.value!r}"
                    )
                continue
            bound = mapping.get(term)
            if bound is None:
                mapping[term] = Constant(value)
            elif bound != Constant(value):
                raise QueryError(
                    f"answer {answer!r} binds head variable {term!r} inconsistently"
                )
        substituted = self.substitute(mapping)
        return ConjunctiveQuery(
            (),
            substituted.body,
            tuple(substituted.comparisons) + tuple(extra_comparisons),
            name=name or f"{self.name}[{answer!r}]",
        )

    # -- rendering ------------------------------------------------------------
    def __repr__(self) -> str:
        head = ", ".join(repr(t) for t in self.head)
        parts = [repr(a) for a in self.body] + [repr(c) for c in self.comparisons]
        return f"{self.name}({head}) :- {', '.join(parts)}"
