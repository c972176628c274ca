"""Containment, equivalence and answerability of conjunctive queries.

Containment (``Q1 ⊆ Q2``) is decided by the classical homomorphism
criterion (Chandra–Merlin): freeze ``Q1`` into its canonical instance
and check whether ``Q2`` produces the frozen head.  For queries *with*
comparison predicates the homomorphism criterion is only sound in one
direction, so the functions below refuse to certify containment when
comparisons are present unless an explicit domain is supplied for an
exhaustive check.

*Answerability* (Section 2.1 and the "Query answering" discussion in
Section 4.1.1) asks whether the secret ``S`` is a function of the views
``V̄``: ``∀I, I'.  V̄(I) = V̄(I') ⇒ S(I) = S(I')``.  Over a fixed finite
domain it is decided exactly from mask tables
(:mod:`~repro.cq.witness`): the queries depend only on the facts of the
relations they mention, so the sub-instances of that support stand for
every instance; they are split into classes on which every view
answers alike, and the secret must answer alike on each class.
Answerability implies *total* disclosure and is used by the audit layer
to recognise Table 1's first row.  The per-instance loop it replaced is
kept as the oracle :func:`repro.reference.determines_naive`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..exceptions import IntractableAnalysisError, QueryError
from ..relational.domain import Domain
from ..relational.schema import Schema
from ..relational.tuples import relation_slice
from .evaluation import answer_contains
from .homomorphism import canonical_instance
from .query import ConjunctiveQuery
from .terms import is_constant
from .witness import answer_classes, compile_query_table, universe_mask

__all__ = [
    "is_contained_in",
    "are_equivalent",
    "is_answerable_from",
    "determines",
]


def is_contained_in(
    inner: ConjunctiveQuery, outer: ConjunctiveQuery
) -> bool:
    """Decide ``inner ⊆ outer`` for comparison-free conjunctive queries.

    Uses the canonical-database criterion: ``inner ⊆ outer`` iff ``outer``
    returns the frozen head of ``inner`` on ``inner``'s canonical
    instance, equivalently iff there is a head-preserving homomorphism
    ``outer → inner``.  The canonical-instance check runs through the
    compiled evaluation path (:func:`repro.cq.evaluation.answer_contains`
    with the frozen head seeded), so containment tests over wide bodies
    are index-driven rather than a backtracking atom-to-atom search.
    """
    if inner.comparisons or outer.comparisons:
        raise QueryError(
            "containment via the homomorphism criterion requires comparison-free queries; "
            "use determines()/is_answerable_from() with an explicit domain instead"
        )
    if inner.arity != outer.arity:
        return False
    canonical, frozen = canonical_instance(inner)
    frozen_head = tuple(
        term.value if is_constant(term) else frozen[term] for term in inner.head
    )
    return answer_contains(outer, canonical, frozen_head)


def are_equivalent(left: ConjunctiveQuery, right: ConjunctiveQuery) -> bool:
    """Decide equivalence of two comparison-free conjunctive queries."""
    return is_contained_in(left, right) and is_contained_in(right, left)


def determines(
    views: Sequence[ConjunctiveQuery],
    secret: ConjunctiveQuery,
    schema: Schema,
    domain: Optional[Domain] = None,
    max_tuples: int = 20,
) -> bool:
    """Exact answerability test over a finite domain.

    ``True`` iff for every pair of instances over the domain,
    ``V̄(I) = V̄(I')`` implies ``S(I) = S(I')`` — i.e. the views functionally
    determine the secret, which is a *total* disclosure.

    Only the facts of the relations the secret and the views mention
    (their slices of ``tup(D)``) bear on the answers, so the test runs
    over the sub-instances of that support: the views' mask tables split
    them into :func:`~repro.cq.witness.answer_classes`, and the answer is
    ``False`` as soon as one of the secret's rows is in its answer on
    part of a class only.  ``max_tuples`` bounds that support (not all of
    ``tup(D)``); :class:`IntractableAnalysisError` is raised above it.
    """
    views = list(views)
    domain = domain or schema.domain
    mentioned = secret.relation_names.union(*(view.relation_names for view in views))
    support = frozenset().union(
        *(relation_slice(schema, name, domain) for name in mentioned if name in schema)
    )
    if len(support) > max_tuples:
        raise IntractableAnalysisError(
            f"cannot check 2^{len(support)} sub-instances for answerability "
            f"(bound {max_tuples} facts); restrict the domain",
            size_estimate=2 ** len(support),
        )
    # key=repr: analysis domains may mix numeric and string constants,
    # which Python refuses to order directly.
    facts = tuple(sorted(support, key=repr))
    secret_table = compile_query_table(secret, facts)
    view_classes = answer_classes(
        [compile_query_table(view, facts) for view in views], universe_mask(len(facts))
    )
    for row in secret_table.answers:
        row_bits = secret_table.row_tables[row]
        for bits, _ in view_classes:
            if bits & row_bits not in (0, bits):
                return False
    return True


def is_answerable_from(
    secret: ConjunctiveQuery,
    views: Sequence[ConjunctiveQuery],
    schema: Schema,
    domain: Optional[Domain] = None,
    max_tuples: int = 20,
) -> bool:
    """Alias of :func:`determines` with the (secret, views) argument order
    used throughout the audit layer."""
    return determines(views, secret, schema, domain=domain, max_tuples=max_tuples)
