"""Session-based analysis API: compile once, analyse many times.

The package separates query *compilation* (normal form, analysis-domain
fingerprint, memoized critical tuples) from *analysis* (cheap set
operations over the cached artifacts):

* :class:`AnalysisSession` — the front door; one per schema.
* :class:`CompiledQuery` — a prepared query with lazily-cached
  ``crit_D(Q)``.
* :class:`CriticalTupleCache` / :class:`CacheStats` — the bounded LRU
  sharing layer.
* :class:`PublishingPlan` / ``AnalysisSession.audit_plan`` — batch
  audits of secrets × views × coalitions.
* :class:`LiveAuditSession` — a pinned (schema, instance, views) state
  re-audited incrementally as facts and views change (delta classifier,
  targeted cache invalidation; see :mod:`repro.session.live`).
* :mod:`~repro.session.engines` — the two per-dictionary verification
  engines (``"exact"``, ``"sampling"``); every ``crit_D`` runs on the
  one production engine of :mod:`repro.core.criticality`.
* :mod:`~repro.session.results` — the unified :class:`AnalysisResult`
  hierarchy every session method returns.
"""

from .cache import CacheStats, CriticalTupleCache, schema_fingerprint
from .compile import CompiledQuery, as_query, canonical_query_key, query_fingerprint
from .default import default_cache, default_session, reset_default_sessions
from .live import LiveAuditSession, fact_from_document, fact_to_document, may_affect
from .engines import (
    ExactVerificationEngine,
    SamplingVerificationEngine,
    VerificationEngine,
    create_engine,
)
from .plan import PublishingPlan
from .results import (
    AnalysisResult,
    CollusionResult,
    DecisionResult,
    KnowledgeResult,
    LeakageAnalysis,
    PlanAuditResult,
    PlanEntry,
    PracticalResult,
    QuickCheckResult,
    VerificationResult,
)
from .session import AnalysisSession

__all__ = [
    "AnalysisSession",
    "LiveAuditSession",
    "may_affect",
    "fact_from_document",
    "fact_to_document",
    "CompiledQuery",
    "CriticalTupleCache",
    "CacheStats",
    "PublishingPlan",
    "canonical_query_key",
    "query_fingerprint",
    "schema_fingerprint",
    "as_query",
    "default_session",
    "default_cache",
    "reset_default_sessions",
    "VerificationEngine",
    "ExactVerificationEngine",
    "SamplingVerificationEngine",
    "create_engine",
    "AnalysisResult",
    "DecisionResult",
    "CollusionResult",
    "KnowledgeResult",
    "LeakageAnalysis",
    "PracticalResult",
    "QuickCheckResult",
    "VerificationResult",
    "PlanEntry",
    "PlanAuditResult",
]
