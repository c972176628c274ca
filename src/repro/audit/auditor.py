"""The high-level auditing API.

:class:`SecurityAuditor` is the entry point a data owner uses before
publishing views: it wraps the exact decision procedures, the practical
quick check, the leakage measurement, the qualitative classification and
the collusion analysis behind a small number of methods, and produces
:class:`~repro.audit.report.AuditReport` objects.

Since the session redesign the auditor is a thin veneer over an
:class:`~repro.session.AnalysisSession`: every critical-tuple set it
computes is memoized in the session's LRU cache, so a multi-view audit
(or repeated audits over the same schema) pays for each ``crit_D(Q)``
exactly once.  The backing session is exposed as :attr:`session` for
callers who want compiled queries, batch plan audits or cache
statistics.

Typical use::

    auditor = SecurityAuditor(schema)
    report = auditor.audit(secret, views={"supplier": v1, "retailer": v2})
    print(report.render())
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.collusion import CollusionReport, largest_safe_view_set
from ..core.criticality import schema_fingerprint
from ..core.leakage import LeakageResult
from ..core.practical import practical_security_check
from ..core.prior import KnowledgeDecision, PriorKnowledge
from ..core.security import SecurityDecision
from ..cq.canonical import QueryLike, as_queries, as_query
from ..cq.query import ConjunctiveQuery
from ..exceptions import SecurityAnalysisError
from ..obs import span
from ..probability.dictionary import Dictionary
from ..relational.domain import Domain
from ..relational.schema import Schema
from ..session.plan import PublishingPlan
from ..session.results import PlanAuditResult
from ..session.session import AnalysisSession
from .classification import DisclosureAssessment, classify_disclosure
from .report import AuditFinding, AuditReport

__all__ = ["SecurityAuditor"]


class SecurityAuditor:
    """Audits the information disclosure of publishing views.

    Parameters
    ----------
    schema:
        The database schema the secrets and views range over.
    dictionary:
        Optional dictionary used for quantitative (leakage) measurements;
        qualitative security verdicts are dictionary-independent and do
        not need it.
    domain:
        Optional analysis domain override (defaults to the
        Proposition 4.9 domain synthesised per analysis).
    session:
        Optional pre-built :class:`AnalysisSession` to audit through
        (shares its critical-tuple cache); one is created otherwise.
    engine:
        Verification-engine name forwarded to the session.
    """

    def __init__(
        self,
        schema: Schema,
        dictionary: Optional[Dictionary] = None,
        domain: Optional[Domain] = None,
        session: Optional[AnalysisSession] = None,
        engine: str = "exact",
    ):
        if session is None:
            session = AnalysisSession(
                schema,
                dictionary=dictionary,
                engine=engine,
                domain=domain,
            )
        elif schema_fingerprint(session.schema) != schema_fingerprint(schema):
            raise SecurityAnalysisError(
                "the supplied session analyses a different schema than the "
                "auditor; build the auditor and the session over the same schema"
            )
        self._session = session
        self._schema = schema
        self._dictionary = dictionary if dictionary is not None else session.dictionary
        self._domain = domain

    @property
    def schema(self) -> Schema:
        """The schema being audited."""
        return self._schema

    @property
    def session(self) -> AnalysisSession:
        """The analysis session (cache, compiled queries, batch audits)."""
        return self._session

    # -- observability ------------------------------------------------------------
    @staticmethod
    def kernel_stats_for(dictionary: Optional[Dictionary]):
        """Counters of the probability kernel's memo table for a dictionary.

        ``None`` when there is no dictionary or no kernel has been built
        for it yet (qualitative audits never touch the kernel).
        """
        if dictionary is None:
            return None
        from ..probability.kernel import ProbabilityKernel

        return ProbabilityKernel.shared_stats(dictionary)

    def observability(self) -> dict:
        """Cache and kernel counters as one JSON-serialisable document.

        Surfaces the session's :class:`~repro.core.criticality.CacheStats`
        and — when quantitative analyses ran — the counters of the
        dictionary's :class:`~repro.probability.kernel.ProbabilityKernel`
        memo table,
        so operators can check the hit rates they expect (the same
        document the audit service reports per session).
        """
        from ..cq.compiled import evaluation_stats

        document = {
            "critical_tuple_cache": self._session.cache_stats.to_dict(),
            "engines": {"verification": self._session.engine_name},
            "query_evaluation": evaluation_stats(),
        }
        kernels = self.kernel_stats_for(self._dictionary)
        if kernels is not None:
            document["probability_kernels"] = kernels
        return document

    # -- single-pair primitives -------------------------------------------------
    def decide(self, secret: QueryLike, views: Sequence[QueryLike] | QueryLike) -> SecurityDecision:
        """Dictionary-independent security decision (Theorem 4.5)."""
        return self._session.decide(secret, views, domain=self._domain).decision

    def quick_check(self, secret: QueryLike, views: Sequence[QueryLike] | QueryLike):
        """The practical subgoal-unification check (Section 4.2)."""
        return practical_security_check(secret, views)

    def classify(
        self, secret: QueryLike, views: Sequence[QueryLike] | QueryLike
    ) -> DisclosureAssessment:
        """Grade the pair on the Total/Partial/Minute/None spectrum."""
        return classify_disclosure(
            secret,
            views,
            self._schema,
            dictionary=self._dictionary,
            domain=self._domain,
            critical_fn=self._session.critical_fn,
        )

    def measure_leakage(
        self,
        secret: QueryLike,
        views: Sequence[QueryLike] | QueryLike,
        dictionary: Optional[Dictionary] = None,
        **kwargs,
    ) -> LeakageResult:
        """Quantify the positive disclosure (Section 6.1)."""
        dictionary = dictionary or self._dictionary
        if dictionary is None:
            raise SecurityAnalysisError(
                "measuring leakage requires a dictionary; pass one to the auditor "
                "or to measure_leakage"
            )
        return self._session.leakage(
            secret, views, dictionary=dictionary, **kwargs
        ).measurement

    def decide_with_knowledge(
        self,
        secret: QueryLike,
        views: Sequence[QueryLike] | QueryLike,
        knowledge: PriorKnowledge,
    ) -> KnowledgeDecision:
        """Security under prior knowledge (Section 5)."""
        return self._session.with_knowledge(
            secret, views, knowledge, domain=self._domain
        ).decision

    # -- multi-view audits --------------------------------------------------------
    def audit(
        self,
        secret: QueryLike,
        views: Union[Sequence[QueryLike], Mapping[str, QueryLike]],
        include_collusion: bool = True,
    ) -> AuditReport:
        """Full audit of one secret against a set of views.

        ``views`` may be a mapping ``recipient → view`` (enabling the
        collusion section of the report) or a plain sequence.
        """
        secret_query = as_query(secret, "secret")
        view_list = as_queries(views)
        named_views = dict(zip(views, view_list)) if isinstance(views, Mapping) else view_list

        timings: Dict[str, float] = {}
        started = time.perf_counter()
        with span("audit.classify"):
            assessment = classify_disclosure(
                secret_query,
                view_list,
                self._schema,
                dictionary=self._dictionary,
                domain=self._domain,
                critical_fn=self._session.critical_fn,
            )
        timings["classify"] = time.perf_counter() - started
        started = time.perf_counter()
        with span("audit.practical"):
            practical = practical_security_check(secret_query, view_list)
        timings["practical"] = time.perf_counter() - started
        finding = AuditFinding(
            secret_name=secret_query.name,
            view_names=tuple(v.name for v in view_list),
            assessment=assessment,
            practical=practical,
            leakage=assessment.leakage,
        )
        collusion: Optional[CollusionReport] = None
        if include_collusion and len(view_list) > 1:
            started = time.perf_counter()
            with span("audit.collusion"):
                collusion = self._session.collusion(
                    secret_query, named_views, domain=self._domain
                ).report
            timings["collusion"] = time.perf_counter() - started
        notes: List[str] = []
        if practical.possibly_insecure and assessment.secure:
            notes.append(
                "the practical algorithm flagged this pair although it is secure — "
                "one of the rare false positives the paper mentions"
            )
        return AuditReport(
            findings=(finding,),
            collusion=collusion,
            notes=tuple(notes),
            timings=timings,
        )

    def audit_many(
        self,
        secrets: Sequence[QueryLike],
        views: Union[Sequence[QueryLike], Mapping[str, QueryLike]],
    ) -> AuditReport:
        """Audit several secrets against the same set of views."""
        view_list = as_queries(views)
        findings: List[AuditFinding] = []
        for secret in secrets:
            secret_query = as_query(secret, "secret")
            assessment = classify_disclosure(
                secret_query,
                view_list,
                self._schema,
                dictionary=self._dictionary,
                domain=self._domain,
                critical_fn=self._session.critical_fn,
            )
            practical = practical_security_check(secret_query, view_list)
            findings.append(
                AuditFinding(
                    secret_name=secret_query.name,
                    view_names=tuple(v.name for v in view_list),
                    assessment=assessment,
                    practical=practical,
                    leakage=assessment.leakage,
                )
            )
        return AuditReport(findings=tuple(findings))

    def audit_plan(self, plan: PublishingPlan) -> PlanAuditResult:
        """Batch audit of a multi-secret / multi-view publishing plan.

        Delegates to :meth:`AnalysisSession.audit_plan`; every
        critical-tuple computation is shared across the batch.
        """
        return self._session.audit_plan(plan, domain=self._domain)

    def safe_publishing_plan(
        self,
        secret: QueryLike,
        candidate_views: Sequence[QueryLike],
    ) -> Tuple[ConjunctiveQuery, ...]:
        """The largest subset of candidate views publishable without any
        disclosure about the secret (Theorem 4.5 makes this per-view)."""
        return largest_safe_view_set(
            as_query(secret, "secret"),
            [as_query(view, "view") for view in candidate_views],
            self._schema,
            domain=self._domain,
            critical_fn=self._session.critical_fn,
        )
