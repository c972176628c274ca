"""The paper's *practical algorithm* for query-view security (Section 4.2).

    "For practical purposes, one can check crit(S) ∩ crit(V̄) = ∅ and
    hence S | V̄ quite efficiently.  Simply compare all pairs of subgoals
    from S and from V̄.  If any pair of subgoals unify, then ¬(S | V̄).
    While false positives are possible, they are rare."

The check is *sound for security*: if no pair of subgoals unifies, no
tuple can be a common homomorphic image of subgoals of both queries, so
the critical-tuple sets are disjoint and the pair is secure.  When some
pair unifies the answer is "possibly insecure" — a false positive is
possible (insecurity is not implied), which the exact procedure in
:mod:`repro.core.security` resolves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

from ..cq.atoms import Atom
from ..cq.canonical import QueryLike, as_queries, as_query
from ..cq.query import ConjunctiveQuery
from ..cq.unification import unifiable_subgoal_pairs

__all__ = ["PracticalVerdict", "practical_security_check"]


@dataclass(frozen=True)
class PracticalVerdict:
    """Outcome of the practical (unification-based) security check.

    Attributes
    ----------
    certainly_secure:
        ``True`` when no subgoal of the secret unifies with any subgoal of
        any view — a *sound* certificate of security.
    unifiable_pairs:
        The (secret subgoal, view subgoal, view) triples that unify;
        empty iff ``certainly_secure``.
    """

    certainly_secure: bool
    secret: ConjunctiveQuery
    views: Tuple[ConjunctiveQuery, ...]
    unifiable_pairs: Tuple[Tuple[Atom, Atom, ConjunctiveQuery], ...]

    @property
    def possibly_insecure(self) -> bool:
        """True when the quick check could not certify security."""
        return not self.certainly_secure

    def explain(self) -> str:
        """A short human-readable explanation of the verdict."""
        if self.certainly_secure:
            return (
                f"No subgoal of {self.secret.name} unifies with a subgoal of "
                f"{', '.join(v.name for v in self.views)}; the pair is secure "
                f"(sound certificate, Theorem 4.5)."
            )
        sample = self.unifiable_pairs[0]
        return (
            f"Subgoal {sample[0]!r} of {self.secret.name} unifies with "
            f"{sample[1]!r} of {sample[2].name}; the pair is flagged as possibly "
            f"insecure (run decide_security for the exact verdict)."
        )


def practical_security_check(
    secret: QueryLike,
    views: Sequence[QueryLike] | Mapping[str, QueryLike] | QueryLike,
) -> PracticalVerdict:
    """Run the pairwise subgoal-unification check of Section 4.2."""
    secret = as_query(secret, "secret")
    views = as_queries(views)
    triples = []
    for view in views:
        for secret_atom, view_atom in unifiable_subgoal_pairs(secret, view):
            triples.append((secret_atom, view_atom, view))
    return PracticalVerdict(
        certainly_secure=not triples,
        secret=secret,
        views=tuple(views),
        unifiable_pairs=tuple(triples),
    )
