"""Qualitative disclosure classification (the right-hand columns of Table 1).

Table 1 of the paper grades query-view pairs on a spectrum:

========  ==========================================================
Total     the secret is answerable from the views
Partial   not answerable, but the views substantially shift the
          adversary's beliefs about secret answers
Minute    a disclosure exists but is negligible (e.g. only the
          database size is correlated)
None      the pair is secure (Theorem 4.5)
========  ==========================================================

:func:`classify_disclosure` reproduces this grading: perfect security ⇒
``NONE``; answerability over the analysis domain ⇒ ``TOTAL``; otherwise
the positive-leakage measure of Section 6.1 separates ``PARTIAL`` from
``MINUTE`` via a threshold.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ..cq.canonical import as_queries, as_query
from ..cq.containment import is_answerable_from
from ..cq.query import ConjunctiveQuery
from ..exceptions import IntractableAnalysisError
from ..probability.dictionary import Dictionary
from ..relational.domain import Domain
from ..relational.schema import Schema
from ..core.domain_bounds import analysis_schema
from ..core.leakage import LeakageResult, positive_leakage
from ..core.security import SecurityDecision, decide_security

__all__ = ["DisclosureLevel", "DisclosureAssessment", "classify_disclosure"]

#: Default relative-gain threshold separating "minute" from "partial".
DEFAULT_MINUTE_THRESHOLD = 0.5

#: Default per-tuple probability of the auditing dictionary when none is given.
#: Calibrated so that the Table 1 pairs separate cleanly around the default
#: minute/partial threshold (see benchmarks/bench_table1.py).
DEFAULT_AUDIT_PROBABILITY = Fraction(1, 4)


class DisclosureLevel(enum.Enum):
    """The qualitative spectrum of Table 1."""

    TOTAL = "total"
    PARTIAL = "partial"
    MINUTE = "minute"
    NONE = "none"


@dataclass(frozen=True)
class DisclosureAssessment:
    """The graded verdict for one (secret, views) pair.

    Attributes
    ----------
    level:
        The qualitative grade.
    secure:
        The dictionary-independent security verdict (Theorem 4.5).
    decision:
        The underlying :class:`SecurityDecision` (critical-tuple evidence).
    answerable:
        Whether the secret is answerable from the views over the analysis
        domain (``None`` when the check was skipped or intractable).
    leakage:
        The leakage measurement used to separate partial from minute
        (``None`` for secure or total disclosures).
    """

    level: DisclosureLevel
    secure: bool
    decision: SecurityDecision
    answerable: Optional[bool]
    leakage: Optional[LeakageResult]

    def summary(self) -> str:
        """One-line human-readable summary."""
        base = f"{self.decision.secret.name}: {self.level.value} disclosure"
        if self.level is DisclosureLevel.NONE:
            return base + " (query-view secure for every distribution)"
        if self.level is DisclosureLevel.TOTAL:
            return base + " (the secret is answerable from the views)"
        if self.leakage is not None:
            return base + f" (leakage {float(self.leakage.leakage):.3g})"
        return base


def _small_answerability_schema(
    schema: Schema,
    queries: Sequence[ConjunctiveQuery],
    max_tuples: int,
) -> Optional[Schema]:
    """A schema over the smallest domain usable for the answerability probe.

    The domain contains every constant the queries mention, padded with
    fresh symbols to at least two values; ``None`` is returned when even
    that domain yields a tuple space larger than ``max_tuples``.
    """
    from ..relational.schema import RelationSchema
    from ..relational.tuples import tuple_space_size

    constants: list[object] = []
    for query in queries:
        for value in sorted(query.constants, key=repr):
            if value not in constants:
                constants.append(value)
    values = list(constants)
    pad = 0
    while len(values) < 2:
        values.append(f"probe{pad}")
        pad += 1
    domain = Domain(values, name="D_answerability")
    stripped = [
        RelationSchema(relation.name, relation.attributes, {}, relation.key)
        for relation in schema
    ]
    candidate = Schema(stripped, domain=domain)
    if tuple_space_size(candidate) > max_tuples:
        return None
    return candidate


def classify_disclosure(
    secret: ConjunctiveQuery,
    views: Sequence[ConjunctiveQuery] | ConjunctiveQuery,
    schema: Schema,
    dictionary: Optional[Dictionary] = None,
    domain: Optional[Domain] = None,
    minute_threshold: float = DEFAULT_MINUTE_THRESHOLD,
    answerability_max_tuples: int = 16,
    critical_fn=None,
) -> DisclosureAssessment:
    """Grade a (secret, views) pair on the Total/Partial/Minute/None spectrum.

    Parameters
    ----------
    dictionary:
        Dictionary used for the leakage measurement.  When omitted, a
        uniform dictionary with per-tuple probability
        :data:`DEFAULT_AUDIT_PROBABILITY` (1/4) is used over the small
        domain of the answerability probe (the queries' constants,
        padded to two values), or over the analysis domain when that
        probe's tuple space exceeds ``answerability_max_tuples``; the
        small domain keeps the exact arithmetic cheap.
    minute_threshold:
        Relative-gain threshold below which a disclosure counts as
        minute.
    critical_fn:
        Optional cached critical-tuple provider (supplied by the
        session-backed auditor); the decision and the leakage search
        use it, and omitted, both use the process-wide
        :func:`~repro.core.criticality.default_cache`.
    """
    secret = as_query(secret, "secret")
    views = as_queries(views)

    decision = decide_security(
        secret, views, schema, domain=domain, critical_fn=critical_fn
    )
    if decision.secure:
        return DisclosureAssessment(
            level=DisclosureLevel.NONE,
            secure=True,
            decision=decision,
            answerable=False,
            leakage=None,
        )

    working_schema = analysis_schema(schema, [secret, *views], domain)

    # Answerability is checked over a deliberately small domain: if the
    # secret is a function of the views over every domain then it is one
    # over the small domain too, so a negative answer here is conclusive;
    # a positive answer is the strong evidence of total disclosure that
    # Table 1's first row illustrates.
    answerable: Optional[bool]
    answerability_schema = _small_answerability_schema(
        schema, [secret, *views], answerability_max_tuples
    )
    if answerability_schema is None:
        answerable = None
    else:
        try:
            answerable = is_answerable_from(
                secret, views, answerability_schema, max_tuples=answerability_max_tuples
            )
        except IntractableAnalysisError:
            answerable = None
    if answerable:
        return DisclosureAssessment(
            level=DisclosureLevel.TOTAL,
            secure=False,
            decision=decision,
            answerable=True,
            leakage=None,
        )

    if dictionary is None:
        # The default auditing dictionary lives on a small domain (the same
        # one used for the answerability probe) so that the exact leakage
        # computation stays cheap; callers with a concrete dictionary pass
        # it explicitly.
        leakage_schema = answerability_schema or working_schema
        dictionary = Dictionary.uniform(leakage_schema, DEFAULT_AUDIT_PROBABILITY)
    leakage: Optional[LeakageResult]
    try:
        leakage = positive_leakage(secret, views, dictionary, critical_fn=critical_fn)
    except IntractableAnalysisError:
        leakage = None

    if leakage is None:
        level = DisclosureLevel.PARTIAL
    elif float(leakage.leakage) <= minute_threshold:
        level = DisclosureLevel.MINUTE
    else:
        level = DisclosureLevel.PARTIAL
    return DisclosureAssessment(
        level=level,
        secure=False,
        decision=decision,
        answerable=answerable,
        leakage=leakage,
    )
