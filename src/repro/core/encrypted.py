"""Encrypted views (Section 5.4).

An *encrypted view* of a relation publishes the relation with every
attribute value passed through a perfect one-way, collision-free
function ``f``.  Under these idealised assumptions the view is an
isomorphic copy of the original relation: the adversary learns the full
join/equality structure (and in particular the cardinality) but not the
constants themselves.

Consequences reproduced here:

* the paper observes that *no* non-trivial secret query is perfectly
  secure with respect to an encrypted view, because the view reveals the
  cardinality of the relation (:func:`encrypted_view_security`);
* queries whose answer depends only on the equality structure (e.g.
  ``Q1():-R(x,y),R(y,z),x!=z``) are answerable from the encrypted view,
  while constant-mentioning queries (``Q2():-R('a',x)``) are not
  (:func:`answerable_from_encrypted_view`);
* the leakage measure of Section 6.1 still distinguishes minute from
  substantial disclosure; :class:`EncryptedViewAnswerIs` exposes the
  event "the encrypted view equals this published ciphertext" so the
  exact engine and the leakage machinery apply unchanged.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..cq.evaluation import evaluate
from ..cq.query import ConjunctiveQuery
from ..cq.witness import query_support
from ..exceptions import SecurityAnalysisError
from ..probability.dictionary import Dictionary
from ..probability.events import Event
from ..relational.instance import Instance
from ..relational.schema import RelationSchema, Schema
from ..relational.tuples import Fact, relation_slice
from .criticality import resolve_critical_fn

__all__ = [
    "EncryptedView",
    "EncryptedViewAnswerIs",
    "encrypted_view_security",
    "answerable_from_encrypted_view",
]


@dataclass(frozen=True)
class EncryptedView:
    """An attribute-wise encrypted publication of one relation.

    Two renderings are provided:

    * :meth:`answer` — the *semantic* answer: the canonical isomorphism
      class of the relation's contents (values replaced by
      first-occurrence indices).  Two instances produce the same answer
      iff they differ only by a value renaming, which is exactly the
      information an idealised encryption reveals.
    * :meth:`ciphertext` — a concrete keyed encryption using a salted
      hash, for the example applications that want to show realistic
      published data.
    """

    relation: str
    salt: str = "repro-one-way"

    #: Above this many distinct values the exact canonicalisation (which tries
    #: every renaming) falls back to a first-occurrence heuristic.
    MAX_EXACT_CANONICAL_VALUES = 8

    def answer(self, instance: Instance) -> FrozenSet[Tuple[int, ...]]:
        """Canonical form of the relation contents up to value renaming.

        Two instances whose relation contents differ only by an injective
        renaming of values produce the same answer — exactly the
        information an idealised per-value encryption reveals.  Because
        the paper's encryption is applied per *value*, codes are shared
        across rows and across attribute positions.
        """
        facts = sorted(instance.relation(self.relation))
        values: List[object] = []
        for fact in facts:
            for value in fact.values:
                if value not in values:
                    values.append(value)
        rows = [fact.values for fact in facts]
        if len(values) <= self.MAX_EXACT_CANONICAL_VALUES:
            return self._exact_canonical(rows, values)
        return self._heuristic_canonical(rows, values)

    @staticmethod
    def _exact_canonical(
        rows: List[Tuple[object, ...]], values: List[object]
    ) -> FrozenSet[Tuple[int, ...]]:
        """Minimum encoding over every injective renaming of the values."""
        best: Optional[Tuple[Tuple[int, ...], ...]] = None
        indices = list(range(len(values)))
        for permutation in itertools.permutations(indices):
            codes = {value: permutation[i] for i, value in enumerate(values)}
            encoded = tuple(
                sorted(tuple(codes[v] for v in row) for row in rows)
            )
            if best is None or encoded < best:
                best = encoded
        return frozenset(best or ())

    @staticmethod
    def _heuristic_canonical(
        rows: List[Tuple[object, ...]], values: List[object]
    ) -> FrozenSet[Tuple[int, ...]]:
        """First-occurrence encoding (used only for very large instances)."""
        codes = {value: i for i, value in enumerate(values)}
        return frozenset(tuple(codes[v] for v in row) for row in rows)

    def ciphertext(self, instance: Instance) -> FrozenSet[Tuple[str, ...]]:
        """A concrete encrypted rendering (salted hash per value)."""
        rows = []
        for fact in instance.relation(self.relation):
            rows.append(tuple(self._encrypt_value(v) for v in fact.values))
        return frozenset(rows)

    def _encrypt_value(self, value: object) -> str:
        digest = hashlib.sha256(f"{self.salt}|{value!r}".encode("utf8")).hexdigest()
        return digest[:12]

    def cardinality(self, instance: Instance) -> int:
        """The relation cardinality — always revealed by the encrypted view."""
        return len(instance.relation(self.relation))


class EncryptedViewAnswerIs(Event):
    """The event "the encrypted view of the relation equals this answer"."""

    def __init__(self, view: EncryptedView, answer: FrozenSet[Tuple[int, ...]]):
        self.view = view
        self.answer = answer

    def occurs(self, instance: Instance) -> bool:
        return self.view.answer(instance) == self.answer

    def support(self, schema: Schema) -> FrozenSet[Fact]:
        return relation_slice(schema, self.view.relation)

    def describe(self) -> str:
        return f"Enc({self.view.relation})(I) = {sorted(self.answer)}"


@dataclass(frozen=True)
class EncryptedSecurityReport:
    """Verdict for a secret query against an encrypted view."""

    secure: bool
    reason: str
    secret: ConjunctiveQuery
    view: EncryptedView


def encrypted_view_security(
    secret: ConjunctiveQuery,
    view: EncryptedView,
    schema: Schema,
) -> EncryptedSecurityReport:
    """Perfect security of a secret w.r.t. an encrypted view.

    The encrypted view reveals the cardinality of its relation, hence any
    secret with a critical tuple in that relation is insecure; secrets
    that do not depend on the encrypted relation at all remain secure.
    The secret's critical tuples come from the process-wide
    :func:`~repro.core.criticality.default_cache`.
    """
    crit = resolve_critical_fn()(secret, schema)
    touches_relation = any(fact.relation == view.relation for fact in crit)
    if not crit:
        return EncryptedSecurityReport(
            secure=True,
            reason="the secret is trivial (no critical tuples)",
            secret=secret,
            view=view,
        )
    if not touches_relation:
        return EncryptedSecurityReport(
            secure=True,
            reason=(
                f"the secret does not depend on relation {view.relation!r}, "
                "so the encrypted view carries no information about it"
            ),
            secret=secret,
            view=view,
        )
    return EncryptedSecurityReport(
        secure=False,
        reason=(
            f"the encrypted view reveals the cardinality (and equality structure) of "
            f"{view.relation!r}, on which the secret depends — no such secret is "
            "perfectly secure (Section 5.4); use the leakage measure to grade the risk"
        ),
        secret=secret,
        view=view,
    )


def answerable_from_encrypted_view(
    query: ConjunctiveQuery,
    view: EncryptedView,
    dictionary: Dictionary,
    max_support_size: int = 20,
) -> bool:
    """Is the query's answer a function of the encrypted view's answer?

    Decided exactly over the dictionary's domain by grouping instances by
    their encrypted-view answer and checking the query answer is constant
    within every group.  Structure-only queries (equality patterns,
    inequalities) are answerable; queries mentioning constants are not.
    """
    schema = dictionary.schema
    # key=repr: analysis domains may mix numeric and string constants,
    # which Python refuses to order directly.
    support = sorted(
        relation_slice(schema, view.relation) | query_support(query, schema),
        key=repr,
    )
    if len(support) > max_support_size:
        raise SecurityAnalysisError(
            f"support of {len(support)} facts is too large for the exact answerability check"
        )
    groups: Dict[FrozenSet[Tuple[int, ...]], FrozenSet] = {}
    for r in range(len(support) + 1):
        for combo in itertools.combinations(support, r):
            instance = Instance(combo)
            key = view.answer(instance)
            value = evaluate(query, instance)
            if key in groups and groups[key] != value:
                return False
            groups.setdefault(key, value)
    return True
