"""Query-view security under prior knowledge (Section 5).

The adversary may know something about the database beyond the
dictionary: integrity constraints, previously published views, the
status of specific tuples, or cardinality information.  Definition 5.1
relativises query-view security to such knowledge ``K``; Theorem 5.2
characterises it, and Corollaries 5.3–5.5 specialise the
characterisation into decision procedures for the knowledge classes the
paper analyses.  This module provides:

* a :class:`PriorKnowledge` hierarchy turning each knowledge class into
  an event over instances (for the exact numeric check of Definition
  5.1) and, when applicable, into an instance constraint (for the
  relativised critical tuples ``crit_D(Q, K)``);
* syntactic decision procedures:
    - :func:`decide_with_key_constraints`   (Corollary 5.3),
    - :func:`decide_with_cardinality_constraint` (Application 3),
    - :func:`decide_with_tuple_status`      (Corollary 5.4),
    - :func:`decide_with_prior_view`        (Corollary 5.5);
* :func:`verify_with_knowledge` — the literal Definition 5.1 / Eq. (7)
  check for one concrete dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..cq.canonical import QueryLike, as_queries, as_query
from ..cq.homomorphism import find_query_homomorphism
from ..cq.query import ConjunctiveQuery
from ..exceptions import KnowledgeError, SecurityAnalysisError
from ..probability.dictionary import Dictionary
from ..probability.events import (
    And,
    Event,
    FactAbsent,
    FactPresent,
    PredicateEvent,
    QueryAnswerIs,
)
from ..relational.domain import Domain
from ..relational.instance import Instance
from ..relational.schema import Schema
from ..relational.tuples import Fact, relation_slice
from .criticality import InstanceConstraint, common_critical_tuples, resolve_critical_fn
from .domain_bounds import analysis_schema
from .security import _independence_terms

__all__ = [
    "PriorKnowledge",
    "KeyConstraint",
    "KeyConstraintKnowledge",
    "CardinalityConstraintKnowledge",
    "TupleStatusKnowledge",
    "PriorViewKnowledge",
    "ConjunctionKnowledge",
    "KnowledgeDecision",
    "decide_with_key_constraints",
    "decide_with_cardinality_constraint",
    "decide_with_tuple_status",
    "decide_with_prior_view",
    "decide_with_knowledge",
    "verify_with_knowledge",
]


# ---------------------------------------------------------------------------
# Knowledge classes
# ---------------------------------------------------------------------------
class PriorKnowledge:
    """Base class for prior knowledge ``K`` (a boolean property of instances)."""

    def event(self, schema: Schema) -> Event:
        """The knowledge as an event over instances (for numeric checks)."""
        raise NotImplementedError

    def instance_constraint(self) -> Optional[InstanceConstraint]:
        """A subset-closed instance predicate, when the knowledge is one.

        Key constraints are subset-closed (denial constraints) and can be
        pushed into the relativised critical-tuple computation; knowledge
        that is not subset-closed returns ``None``.
        """
        return None

    def describe(self) -> str:
        """Human-readable description used in reports."""
        return type(self).__name__


@dataclass(frozen=True)
class KeyConstraint:
    """The instance constraint of key knowledge: no two facts share a key value.

    A value rather than a closure: it holds the sorted ``(relation, key
    positions)`` pairs, so equal key declarations give equal, equally
    hashing constraints, and the critical-tuple cache keys
    ``crit_D(Q, K)`` by it.
    """

    keys: Tuple[Tuple[str, Tuple[int, ...]], ...]

    def __call__(self, instance: Instance) -> bool:
        for relation, positions in self.keys:
            seen: Dict[Tuple[object, ...], Fact] = {}
            for fact in instance.relation(relation):
                value = fact.project(positions)
                other = seen.get(value)
                if other is not None and other != fact:
                    return False
                seen[value] = fact
        return True


class KeyConstraintKnowledge(PriorKnowledge):
    """Knowledge that certain attribute positions form keys (Corollary 5.3).

    Parameters
    ----------
    keys:
        Mapping from relation name to the tuple of key attribute
        *positions*.  When omitted, the keys declared on the schema's
        relations are used.
    """

    def __init__(self, keys: Optional[Mapping[str, Sequence[int]]] = None):
        self._keys: Dict[str, Tuple[int, ...]] = {
            name: tuple(positions) for name, positions in (keys or {}).items()
        }

    @classmethod
    def from_schema(cls, schema: Schema) -> "KeyConstraintKnowledge":
        """Build the knowledge from the keys declared on the schema."""
        keys = {
            relation.name: relation.key_positions()
            for relation in schema
            if relation.key_positions()
        }
        if not keys:
            raise KnowledgeError("the schema declares no key constraints")
        return cls(keys)

    def key_positions(self, relation: str) -> Tuple[int, ...]:
        """Key positions of a relation (empty when it has no declared key)."""
        return self._keys.get(relation, ())

    def key_class(self, fact: Fact) -> Tuple[str, Tuple[object, ...]]:
        """The ``≡_K`` class of a fact: its relation and key value.

        A relation without a declared key has singleton classes, so its
        key value is the whole tuple.
        """
        positions = self.key_positions(fact.relation)
        return (fact.relation, fact.project(positions) if positions else fact.values)

    def equivalent(self, left: Fact, right: Fact) -> bool:
        """The relation ``t ≡_K t'``: same relation and same key value."""
        return self.key_class(left) == self.key_class(right)

    def instance_constraint(self) -> KeyConstraint:
        return KeyConstraint(tuple(sorted(self._keys.items())))

    def event(self, schema: Schema) -> Event:
        support = frozenset().union(*(relation_slice(schema, name) for name in self._keys))
        return PredicateEvent(
            self.instance_constraint(), description=self.describe(), support=support
        )

    def describe(self) -> str:
        parts = [f"{rel}[{','.join(map(str, pos))}]" for rel, pos in sorted(self._keys.items())]
        return f"key constraints on {', '.join(parts)}"


class CardinalityConstraintKnowledge(PriorKnowledge):
    """Knowledge about the number of tuples in the instance (Application 3).

    ``comparison`` is one of ``"exactly"``, ``"at_most"``, ``"at_least"``;
    ``relation`` restricts the count to one relation (``None`` counts the
    whole instance).
    """

    COMPARISONS = ("exactly", "at_most", "at_least")

    def __init__(self, comparison: str, count: int, relation: Optional[str] = None):
        if comparison not in self.COMPARISONS:
            raise KnowledgeError(
                f"comparison must be one of {self.COMPARISONS}, got {comparison!r}"
            )
        if count < 0:
            raise KnowledgeError("cardinality bound must be non-negative")
        self.comparison = comparison
        self.count = count
        self.relation = relation

    def _matches(self, size: int) -> bool:
        if self.comparison == "exactly":
            return size == self.count
        if self.comparison == "at_most":
            return size <= self.count
        return size >= self.count

    def event(self, schema: Schema) -> Event:
        relation = self.relation

        def predicate(instance: Instance) -> bool:
            size = len(instance.relation(relation)) if relation else len(instance)
            return self._matches(size)

        return PredicateEvent(predicate, description=self.describe(), support=None)

    def describe(self) -> str:
        target = f"|{self.relation}|" if self.relation else "|I|"
        symbol = {"exactly": "=", "at_most": "<=", "at_least": ">="}[self.comparison]
        return f"cardinality constraint {target} {symbol} {self.count}"


class TupleStatusKnowledge(PriorKnowledge):
    """Knowledge of the presence/absence of specific tuples (Corollary 5.4)."""

    def __init__(
        self,
        present: Iterable[Fact] = (),
        absent: Iterable[Fact] = (),
    ):
        self.present = frozenset(present)
        self.absent = frozenset(absent)
        overlap = self.present & self.absent
        if overlap:
            raise KnowledgeError(
                f"tuples declared both present and absent: {sorted(overlap)}"
            )

    def covers(self, fact: Fact) -> bool:
        """True when the status of ``fact`` is disclosed by this knowledge."""
        return fact in self.present or fact in self.absent

    def event(self, schema: Schema) -> Event:
        events: List[Event] = [FactPresent(f) for f in sorted(self.present)]
        events.extend(FactAbsent(f) for f in sorted(self.absent))
        if not events:
            return PredicateEvent(lambda _: True, description="trivial knowledge", support=[])
        return And(tuple(events))

    def describe(self) -> str:
        parts = []
        if self.present:
            parts.append("present: " + ", ".join(repr(f) for f in sorted(self.present)))
        if self.absent:
            parts.append("absent: " + ", ".join(repr(f) for f in sorted(self.absent)))
        return "tuple status (" + "; ".join(parts) + ")" if parts else "trivial tuple status"


class PriorViewKnowledge(PriorKnowledge):
    """Knowledge that a previously published view ``U`` has a known answer
    (Application 5 / the *relative security* scenario)."""

    def __init__(
        self,
        view: ConjunctiveQuery,
        answer: Optional[Iterable[Tuple[object, ...]]] = None,
        boolean_answer: Optional[bool] = None,
    ):
        self.view = view
        if view.is_boolean:
            if boolean_answer is None:
                boolean_answer = True
            self.answer = frozenset({()}) if boolean_answer else frozenset()
        else:
            if answer is None:
                raise KnowledgeError(
                    "a non-boolean prior view requires its published answer"
                )
            self.answer = frozenset(tuple(row) for row in answer)

    def event(self, schema: Schema) -> Event:
        return QueryAnswerIs(self.view, self.answer)

    def describe(self) -> str:
        return f"prior view {self.view.name} with answer {sorted(self.answer, key=repr)}"


class ConjunctionKnowledge(PriorKnowledge):
    """Conjunction of several pieces of prior knowledge."""

    def __init__(self, parts: Sequence[PriorKnowledge]):
        if not parts:
            raise KnowledgeError("conjunction knowledge requires at least one part")
        self.parts = tuple(parts)

    def event(self, schema: Schema) -> Event:
        return And(tuple(part.event(schema) for part in self.parts))

    def instance_constraint(self) -> Optional[InstanceConstraint]:
        constraints = [part.instance_constraint() for part in self.parts]
        if any(c is None for c in constraints):
            return None

        def satisfies(instance: Instance) -> bool:
            return all(constraint(instance) for constraint in constraints)  # type: ignore[misc]

        return satisfies

    def describe(self) -> str:
        return " AND ".join(part.describe() for part in self.parts)


# ---------------------------------------------------------------------------
# Decisions
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class KnowledgeDecision:
    """Outcome of a security analysis under prior knowledge.

    ``secure`` is ``True``/``False`` when the procedure reached a
    dictionary-independent verdict and ``None`` when the syntactic rule
    was inconclusive (callers can then fall back to
    :func:`verify_with_knowledge` for a per-dictionary answer).
    """

    secure: Optional[bool]
    method: str
    explanation: str
    evidence: Mapping[str, object] = field(default_factory=dict)

    @property
    def conclusive(self) -> bool:
        """True when the procedure produced a definite verdict."""
        return self.secure is not None


def decide_with_key_constraints(
    secret: ConjunctiveQuery,
    views: Sequence[ConjunctiveQuery] | ConjunctiveQuery,
    knowledge: KeyConstraintKnowledge,
    schema: Schema,
    domain: Optional[Domain] = None,
    *,
    critical_fn=None,
) -> KnowledgeDecision:
    """Corollary 5.3: security under key constraints.

    ``K : S | V̄`` holds for every distribution iff no tuple of
    ``crit_D(S, K)`` is key-equivalent (``≡_K``) to a tuple of
    ``crit_D(V̄, K)``.
    """
    critical_fn = resolve_critical_fn(critical_fn)
    secret = as_query(secret, "secret")
    views = as_queries(views)
    working_schema = analysis_schema(schema, [secret, *views], domain)
    domain = working_schema.domain
    constraint = knowledge.instance_constraint()

    secret_critical = critical_fn(secret, working_schema, domain, constraint)
    view_critical: set[Fact] = set()
    for view in views:
        view_critical |= critical_fn(view, working_schema, domain, constraint)

    # Each secret tuple meets only its own key class of view tuples.
    view_classes: Dict[Tuple[str, Tuple[object, ...]], List[Fact]] = {}
    for t2 in sorted(view_critical, key=repr):
        view_classes.setdefault(knowledge.key_class(t2), []).append(t2)
    violating = [
        (t, t2)
        for t in sorted(secret_critical, key=repr)
        for t2 in view_classes.get(knowledge.key_class(t), ())
    ]
    secure = not violating
    explanation = (
        "no key-equivalent pair of relativised critical tuples exists (Corollary 5.3)"
        if secure
        else (
            f"key-equivalent critical tuples exist, e.g. {violating[0][0]!r} ≡_K "
            f"{violating[0][1]!r} (Corollary 5.3)"
        )
    )
    return KnowledgeDecision(
        secure=secure,
        method="corollary-5.3-keys",
        explanation=explanation,
        evidence={
            "secret_critical": frozenset(secret_critical),
            "view_critical": frozenset(view_critical),
            "violating_pairs": tuple(violating),
            "domain": domain,
        },
    )


def decide_with_cardinality_constraint(
    secret: ConjunctiveQuery,
    views: Sequence[ConjunctiveQuery] | ConjunctiveQuery,
    knowledge: CardinalityConstraintKnowledge,
    schema: Schema,
    domain: Optional[Domain] = None,
    *,
    critical_fn=None,
) -> KnowledgeDecision:
    """Application 3: cardinality knowledge destroys all non-trivial security.

    With any cardinality constraint as prior knowledge, ``K : S | V̄``
    fails unless the secret or the views are trivial (constant over all
    instances, i.e. have no critical tuples).
    """
    critical_fn = resolve_critical_fn(critical_fn)
    secret = as_query(secret, "secret")
    views = as_queries(views)
    working_schema = analysis_schema(schema, [secret, *views], domain)
    domain = working_schema.domain
    secret_trivial = not critical_fn(secret, working_schema, domain)
    views_trivial = all(not critical_fn(v, working_schema, domain) for v in views)
    secure = secret_trivial or views_trivial
    explanation = (
        "the secret or the views are trivial (no critical tuples), so the cardinality "
        "knowledge cannot create a correlation"
        if secure
        else (
            f"{knowledge.describe()} couples every tuple of the instance; no non-trivial "
            "query is secure under cardinality knowledge (Application 3 of Theorem 5.2)"
        )
    )
    return KnowledgeDecision(
        secure=secure,
        method="application-3-cardinality",
        explanation=explanation,
        evidence={"secret_trivial": secret_trivial, "views_trivial": views_trivial},
    )


def decide_with_tuple_status(
    secret: ConjunctiveQuery,
    views: Sequence[ConjunctiveQuery] | ConjunctiveQuery,
    knowledge: TupleStatusKnowledge,
    schema: Schema,
    domain: Optional[Domain] = None,
    *,
    critical_fn=None,
) -> KnowledgeDecision:
    """Corollary 5.4: disclosing the status of common critical tuples protects.

    If the status (present or absent) of **every** tuple in
    ``crit_D(S) ∩ crit_D(V̄)`` is part of the knowledge, then
    ``K : S | V̄`` holds for every distribution.  When only some are
    covered the rule is inconclusive (``secure=None``).
    """
    secret = as_query(secret, "secret")
    views = as_queries(views)
    working_schema = analysis_schema(schema, [secret, *views], domain)
    domain = working_schema.domain
    common = common_critical_tuples(secret, views, working_schema, domain, critical_fn=critical_fn)
    uncovered = frozenset(t for t in common if not knowledge.covers(t))
    if not common:
        return KnowledgeDecision(
            secure=True,
            method="corollary-5.4-tuple-status",
            explanation="the pair is already secure without the knowledge (no common critical tuples)",
            evidence={"common_critical": common, "uncovered": uncovered},
        )
    if not uncovered:
        return KnowledgeDecision(
            secure=True,
            method="corollary-5.4-tuple-status",
            explanation=(
                "the status of every common critical tuple is disclosed by the knowledge, "
                "so the remaining uncertainty factorises (Corollary 5.4)"
            ),
            evidence={"common_critical": common, "uncovered": uncovered},
        )
    return KnowledgeDecision(
        secure=None,
        method="corollary-5.4-tuple-status",
        explanation=(
            f"{len(uncovered)} common critical tuple(s) remain undisclosed; Corollary 5.4 "
            "does not apply — use verify_with_knowledge for a per-dictionary check"
        ),
        evidence={"common_critical": common, "uncovered": uncovered},
    )


# -- Corollary 5.5 (prior views) ------------------------------------------------
def _connected_components(query: ConjunctiveQuery) -> List[Tuple[int, ...]]:
    """Indices of body atoms grouped into variable-connected components."""
    n = len(query.body)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    for i in range(n):
        for j in range(i + 1, n):
            if query.body[i].variables & query.body[j].variables:
                union(i, j)
    groups: Dict[int, List[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [tuple(v) for v in groups.values()]


def _subquery(query: ConjunctiveQuery, atom_indices: Sequence[int], name: str) -> Optional[ConjunctiveQuery]:
    """The boolean query on a subset of body atoms; ``None`` means 'true'."""
    if not atom_indices:
        return None
    body = tuple(query.body[i] for i in atom_indices)
    variables = {v for atom in body for v in atom.variables}
    comparisons = tuple(
        c for c in query.comparisons if c.variables and c.variables <= variables
    )
    return ConjunctiveQuery((), body, comparisons, name=name)


def _implies(antecedent: Optional[ConjunctiveQuery], consequent: Optional[ConjunctiveQuery]) -> bool:
    """Boolean-query implication ``antecedent ⇒ consequent`` (None = 'true')."""
    if consequent is None:
        return True
    if antecedent is None:
        return False
    return find_query_homomorphism(consequent, antecedent) is not None


def _crit_or_empty(
    query: Optional[ConjunctiveQuery], schema: Schema, domain: Domain, critical_fn
) -> FrozenSet[Fact]:
    if query is None:
        return frozenset()
    return critical_fn(query, schema, domain)


def decide_with_prior_view(
    secret: ConjunctiveQuery,
    view: ConjunctiveQuery,
    prior: ConjunctiveQuery,
    schema: Schema,
    domain: Optional[Domain] = None,
    *,
    critical_fn=None,
) -> KnowledgeDecision:
    """Corollary 5.5: does publishing ``view`` leak anything beyond ``prior``?

    All three queries must be boolean conjunctive queries (the paper's
    statement of the corollary).  The procedure searches for splits
    ``U = U1 ∧ U2``, ``S = S1 ∧ S2``, ``V = V1 ∧ V2`` along
    variable-connected components such that the part-1 critical tuples
    are disjoint from the part-2 critical tuples, ``U1 ⇒ S1`` and
    ``U2 ⇒ V2``.  Finding such splits certifies ``U : S | V`` for every
    distribution; exhausting them without success reports insecurity.
    """
    critical_fn = resolve_critical_fn(critical_fn)
    for query, label in ((secret, "secret"), (view, "view"), (prior, "prior view")):
        if not query.is_boolean:
            raise KnowledgeError(
                f"Corollary 5.5 is implemented for boolean queries; the {label} has arity "
                f"{query.arity} (use verify_with_knowledge for the general numeric check)"
            )
    all_queries = [secret, view, prior]
    working_schema = analysis_schema(schema, all_queries, domain)
    domain = working_schema.domain

    prior_components = _connected_components(prior)
    secret_components = _connected_components(secret)
    view_components = _connected_components(view)

    def splits(query: ConjunctiveQuery, components: List[Tuple[int, ...]], label: str):
        for mask in range(1 << len(components)):
            part1 = [i for c, comp in enumerate(components) if mask >> c & 1 for i in comp]
            part2 = [i for c, comp in enumerate(components) if not mask >> c & 1 for i in comp]
            yield (
                _subquery(query, part1, f"{label}1"),
                _subquery(query, part2, f"{label}2"),
            )

    crit_cache: Dict[Optional[Tuple[int, ...]], FrozenSet[Fact]] = {}

    def crit_of(query: Optional[ConjunctiveQuery]) -> FrozenSet[Fact]:
        key = None if query is None else tuple(sorted(repr(a) for a in query.body))
        if key not in crit_cache:
            crit_cache[key] = _crit_or_empty(query, working_schema, domain, critical_fn)
        return crit_cache[key]

    for prior1, prior2 in splits(prior, prior_components, "U"):
        for secret1, secret2 in splits(secret, secret_components, "S"):
            if not _implies(prior1, secret1):
                continue
            for view1, view2 in splits(view, view_components, "V"):
                if not _implies(prior2, view2):
                    continue
                part1 = crit_of(prior1) | crit_of(secret1) | crit_of(view1)
                part2 = crit_of(prior2) | crit_of(secret2) | crit_of(view2)
                if part1 & part2:
                    continue
                return KnowledgeDecision(
                    secure=True,
                    method="corollary-5.5-prior-view",
                    explanation=(
                        "a component split satisfying Corollary 5.5 exists: the prior view "
                        "already accounts for everything the new view says about the secret"
                    ),
                    evidence={
                        "prior_split": (prior1, prior2),
                        "secret_split": (secret1, secret2),
                        "view_split": (view1, view2),
                        "domain": domain,
                    },
                )
    return KnowledgeDecision(
        secure=False,
        method="corollary-5.5-prior-view",
        explanation=(
            "no split along variable-connected components satisfies Corollary 5.5; "
            "publishing the view discloses additional information about the secret"
        ),
        evidence={"domain": domain},
    )


def decide_with_knowledge(
    secret: QueryLike,
    views: Sequence[QueryLike] | Mapping[str, QueryLike] | QueryLike,
    knowledge: PriorKnowledge,
    schema: Schema,
    domain: Optional[Domain] = None,
    *,
    critical_fn=None,
) -> KnowledgeDecision:
    """Dispatch to the appropriate syntactic decision procedure.

    Falls back to an inconclusive decision (``secure=None``) for
    knowledge classes without a syntactic rule (use
    :func:`verify_with_knowledge` in that case).  ``critical_fn`` is
    forwarded to the rule; like every rule, omitted, it reads the
    process-wide :func:`~repro.core.criticality.default_cache`.
    """
    if not isinstance(knowledge, PriorKnowledge):
        raise SecurityAnalysisError(
            f"the knowledge must be a PriorKnowledge instance, "
            f"got {type(knowledge).__name__}"
        )
    secret = as_query(secret, "secret")
    views = as_queries(views)
    if isinstance(knowledge, KeyConstraintKnowledge):
        return decide_with_key_constraints(
            secret, views, knowledge, schema, domain, critical_fn=critical_fn
        )
    if isinstance(knowledge, CardinalityConstraintKnowledge):
        return decide_with_cardinality_constraint(
            secret, views, knowledge, schema, domain, critical_fn=critical_fn
        )
    if isinstance(knowledge, TupleStatusKnowledge):
        return decide_with_tuple_status(
            secret, views, knowledge, schema, domain, critical_fn=critical_fn
        )
    if isinstance(knowledge, PriorViewKnowledge):
        if (
            knowledge.view.is_boolean
            and len(views) == 1
            and views[0].is_boolean
            and secret.is_boolean
            and knowledge.answer == frozenset({()})
        ):
            return decide_with_prior_view(
                secret, views[0], knowledge.view, schema, domain, critical_fn=critical_fn
            )
    return KnowledgeDecision(
        secure=None,
        method="unsupported-knowledge",
        explanation=(
            f"no syntactic decision procedure for {knowledge.describe()}; "
            "use verify_with_knowledge for a per-dictionary check"
        ),
    )


def verify_with_knowledge(
    secret: ConjunctiveQuery,
    views: Sequence[ConjunctiveQuery] | ConjunctiveQuery,
    knowledge: PriorKnowledge | Event,
    dictionary: Dictionary,
    max_support_size: Optional[int] = None,
) -> bool:
    """Literal Definition 5.1 / Eq. (7) check for one concrete dictionary.

    For every answer ``s`` of the secret and ``v̄`` of the views, check

        P[S=s ∧ V̄=v̄ ∧ K]·P[K] = P[S=s ∧ K]·P[V̄=v̄ ∧ K].

    This is Eq. (4) with ``K``: the one joint distribution over the
    secret's answers, the views' answers and the truth of ``K`` gives
    every probability, compared on integer numerators
    (:func:`~repro.core.security._independence_terms`).  Raises
    :class:`KnowledgeError` when ``P[K] = 0``.
    """
    knowledge_event = (
        knowledge if isinstance(knowledge, Event) else knowledge.event(dictionary.schema)
    )
    _, terms = _independence_terms(
        secret, views, dictionary, max_support_size, knowledge_event
    )
    return all(joint == product for joint, product in terms)
