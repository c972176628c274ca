"""The session-based front door of the analyzer.

:class:`AnalysisSession` separates *compilation* (normalize a query, fix
an analysis domain, memoize its critical tuples) from *analysis* (cheap
set operations over the cached artifacts), in the compile-then-execute
style of practical DP-for-SQL systems.  A data owner auditing one
publishing plan — many views, many secrets, many recipient subsets over
the same schema — pays for each ``crit_D(Q)`` exactly once::

    session = AnalysisSession(schema, dictionary=None, engine="exact")
    cs = session.compile("S(n, p) :- Emp(n, d, p)")
    session.decide(cs, "V(n, d) :- Emp(n, d, p)").secure
    session.collusion(cs, {"bob": v1, "carol": v2}).report.summary()
    session.audit_plan(PublishingPlan(secrets={...}, views={...})).render()

The session sits on top of the analysis layers: each method calls the
free function of :mod:`repro.core` it is named after, passing this
session's cache as ``critical_fn``, and adds only timing, a span and
the result wrapping.  Called without ``critical_fn``, the free
functions share the process-wide
:func:`~repro.core.criticality.default_cache` instead.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core import domain_bounds
from ..core.asymptotic import PracticalSecurityLevel, classify_practical_security
from ..core.collusion import analyse_collusion
from ..core.criticality import CacheStats, CriticalTupleCache
from ..core.leakage import positive_leakage
from ..core.practical import practical_security_check
from ..core.prior import PriorKnowledge, decide_with_knowledge
from ..core.security import decide_security
from ..cq.canonical import QueryLike, as_queries, as_query, canonical_query_key
from ..exceptions import SecurityAnalysisError
from ..obs import span
from ..probability.dictionary import Dictionary
from ..relational.domain import Domain
from ..relational.schema import Schema
from .compile import CompiledQuery
from .engines import VerificationEngine, create_engine
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

__all__ = ["AnalysisSession"]

ViewsLike = Union[QueryLike, CompiledQuery, Sequence, Mapping[str, QueryLike]]


def _plain(value):
    """A session input as a core input: compiled handles become their queries.

    Handles are unwrapped alone or inside lists, tuples and mappings;
    everything else passes through to the core functions' own
    :func:`~repro.cq.canonical.as_queries` coercion.
    """
    if isinstance(value, CompiledQuery):
        return value.query
    if isinstance(value, Mapping):
        return {name: _plain(item) for name, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _views(views: Tuple):
    """``*views`` varargs as one core input: a lone argument as given."""
    return _plain(views[0] if len(views) == 1 else views)


class AnalysisSession:
    """A compile-then-analyse front door over one schema.

    Parameters
    ----------
    schema:
        The database schema every secret and view ranges over.
    dictionary:
        Default dictionary for quantitative methods (:meth:`leakage`,
        :meth:`verify`); qualitative verdicts never need it.
    engine:
        Name of the per-dictionary verification engine (``"exact"`` or
        ``"sampling"``; see :mod:`repro.session.engines`).
    domain:
        Optional analysis-domain override applied to every analysis
        (defaults to per-analysis Proposition 4.9 domains).
    cache:
        Share an existing :class:`CriticalTupleCache` (for example
        :func:`~repro.core.criticality.default_cache`); without one the
        session owns a fresh cache of 512 sets.

    Every ``crit_D(Q)`` the session computes runs on the production
    engine (:func:`repro.core.criticality.critical_tuples`) through this
    session's cache.
    """

    def __init__(
        self,
        schema: Schema,
        dictionary: Optional[Dictionary] = None,
        engine: str = "exact",
        domain: Optional[Domain] = None,
        cache: Optional[CriticalTupleCache] = None,
    ):
        if not isinstance(schema, Schema):
            raise SecurityAnalysisError(
                f"AnalysisSession needs a Schema, got {type(schema).__name__}"
            )
        self._schema = schema
        self._dictionary = dictionary
        self._engine_name = engine
        self._engine: VerificationEngine = create_engine(engine)
        self._domain = domain
        self._cache = cache if cache is not None else CriticalTupleCache()
        self._compiled: Dict[Tuple, CompiledQuery] = {}
        # Sessions are shared across the audit service's worker threads;
        # the critical-tuple cache is thread-safe on its own and this lock
        # covers the only other mutable state, the compiled-query memo.
        self._compile_lock = threading.Lock()

    # -- introspection -----------------------------------------------------------
    @property
    def schema(self) -> Schema:
        """The schema this session analyses."""
        return self._schema

    @property
    def dictionary(self) -> Optional[Dictionary]:
        """The session's default dictionary (may be ``None``)."""
        return self._dictionary

    @property
    def engine(self) -> VerificationEngine:
        """The configured per-dictionary verification engine."""
        return self._engine

    @property
    def engine_name(self) -> str:
        """Name of the verification engine (``"exact"`` or ``"sampling"``)."""
        return self._engine_name

    @property
    def cache(self) -> CriticalTupleCache:
        """The critical-tuple cache backing this session."""
        return self._cache

    @property
    def cache_stats(self) -> CacheStats:
        """Snapshot of the cache counters."""
        return self._cache.stats()

    @property
    def critical_fn(self):
        """The cached critical-tuple provider of this session.

        A drop-in for :func:`repro.core.criticality.critical_tuples`; the
        core decision procedures accept it via their ``critical_fn``
        parameter, which is how the audit layer shares this session's
        cache.
        """
        return self._cache.critical_tuples

    # -- compilation -------------------------------------------------------------
    def compile(self, query: Union[QueryLike, CompiledQuery]) -> CompiledQuery:
        """Prepare a query for repeated analysis.

        Strings are parsed; α-equivalent queries share one
        :class:`CompiledQuery` (and hence one cache slot).
        """
        if isinstance(query, CompiledQuery):
            return query
        parsed = as_query(query)
        key = canonical_query_key(parsed)
        with self._compile_lock:
            compiled = self._compiled.get(key)
            if compiled is None:
                compiled = CompiledQuery(self, parsed)
                if len(self._compiled) >= 4 * self._cache.maxsize:
                    self._compiled.clear()  # unbounded growth guard; recompiling is cheap
                self._compiled[key] = compiled
        return compiled

    def critical_tuples(self, query: Union[QueryLike, CompiledQuery], domain: Optional[Domain] = None):
        """``crit_D(Q)`` over ``domain`` through the session cache.

        ``domain`` defaults to the session override or the query's own
        Proposition 4.9 domain.  The computation runs over the untyped
        analysis schema exactly as the decision procedures do.
        """
        parsed = as_query(_plain(query))
        if domain is None:
            domain = self._domain or domain_bounds.analysis_domain([parsed])
        working_schema = domain_bounds.untyped_schema(self._schema, domain)
        return self._cache.critical_tuples(parsed, working_schema, domain)

    # -- result plumbing ---------------------------------------------------------
    def _finish(self, result_cls, kind, verdict, started, before, **fields) -> AnalysisResult:
        elapsed = time.perf_counter() - started
        used = self._cache.thread_stats().delta(before)
        return result_cls(
            kind=kind,
            verdict=verdict,
            elapsed_seconds=elapsed,
            cache_used=used,
            **fields,
        )

    # -- analyses ----------------------------------------------------------------
    def decide(
        self,
        secret: Union[QueryLike, CompiledQuery],
        *views: ViewsLike,
        domain: Optional[Domain] = None,
    ) -> DecisionResult:
        """Dictionary-independent security decision (Theorem 4.5)."""
        before = self._cache.thread_stats()
        started = time.perf_counter()
        with span("session.decide"):
            decision = decide_security(
                _plain(secret),
                _views(views),
                self._schema,
                domain=domain or self._domain,
                critical_fn=self._cache.critical_tuples,
            )
        return self._finish(
            DecisionResult, "decide", decision.secure, started, before, decision=decision
        )

    def leakage(
        self,
        secret: Union[QueryLike, CompiledQuery],
        *views: ViewsLike,
        dictionary: Optional[Dictionary] = None,
        max_secret_rows: int = 1,
        max_view_rows: int = 1,
        max_support_size: Optional[int] = None,
    ) -> LeakageAnalysis:
        """Measure the positive disclosure ``leak(S, V̄)`` (Section 6.1)."""
        dictionary = dictionary or self._dictionary
        if dictionary is None:
            raise SecurityAnalysisError(
                "measuring leakage requires a dictionary; pass one to the session "
                "or to leakage()"
            )
        before = self._cache.thread_stats()
        started = time.perf_counter()
        with span("session.leakage"):
            measurement = positive_leakage(
                _plain(secret),
                _views(views),
                dictionary,
                max_secret_rows=max_secret_rows,
                max_view_rows=max_view_rows,
                max_support_size=max_support_size,
                critical_fn=self._cache.critical_tuples,
            )
        return self._finish(
            LeakageAnalysis,
            "leakage",
            measurement.leakage == 0,
            started,
            before,
            measurement=measurement,
        )

    def collusion(
        self,
        secret: Union[QueryLike, CompiledQuery],
        views: ViewsLike,
        domain: Optional[Domain] = None,
    ) -> CollusionResult:
        """Multi-party collusion analysis; each ``crit_D`` computed once."""
        before = self._cache.thread_stats()
        started = time.perf_counter()
        with span("session.collusion"):
            report = analyse_collusion(
                _plain(secret),
                _plain(views),
                self._schema,
                domain=domain or self._domain,
                critical_fn=self._cache.critical_tuples,
            )
        return self._finish(
            CollusionResult,
            "collusion",
            report.secure_overall,
            started,
            before,
            report=report,
        )

    def with_knowledge(
        self,
        secret: Union[QueryLike, CompiledQuery],
        views: ViewsLike,
        knowledge: PriorKnowledge,
        domain: Optional[Domain] = None,
    ) -> KnowledgeResult:
        """Security under prior knowledge (Section 5 corollaries)."""
        before = self._cache.thread_stats()
        started = time.perf_counter()
        with span("session.with-knowledge"):
            decision = decide_with_knowledge(
                _plain(secret),
                _plain(views),
                knowledge,
                self._schema,
                domain=domain or self._domain,
                critical_fn=self._cache.critical_tuples,
            )
        return self._finish(
            KnowledgeResult,
            "with-knowledge",
            decision.secure,
            started,
            before,
            decision=decision,
        )

    def practical(
        self,
        secret: Union[QueryLike, CompiledQuery],
        view: Union[QueryLike, CompiledQuery],
        expected_sizes=1.0,
        zero_threshold: float = 1e-12,
    ) -> PracticalResult:
        """Asymptotic ("practical") security classification (Section 6.2)."""
        before = self._cache.thread_stats()
        started = time.perf_counter()
        with span("session.practical"):
            report = classify_practical_security(
                _plain(secret),
                _plain(view),
                self._schema,
                expected_sizes=expected_sizes,
                zero_threshold=zero_threshold,
                critical_fn=self._cache.critical_tuples,
            )
        verdict = report.level is not PracticalSecurityLevel.PRACTICAL_DISCLOSURE
        return self._finish(
            PracticalResult, "practical", verdict, started, before, report=report
        )

    def quick_check(
        self, secret: Union[QueryLike, CompiledQuery], *views: ViewsLike
    ) -> QuickCheckResult:
        """The sound subgoal-unification screening (Section 4.2)."""
        before = self._cache.thread_stats()
        started = time.perf_counter()
        with span("session.quick-check"):
            check = practical_security_check(_plain(secret), _views(views))
        verdict = True if check.certainly_secure else None
        return self._finish(
            QuickCheckResult, "quick-check", verdict, started, before, check=check
        )

    def verify(
        self,
        secret: Union[QueryLike, CompiledQuery],
        *views: ViewsLike,
        dictionary: Optional[Dictionary] = None,
        **options,
    ) -> VerificationResult:
        """Per-dictionary Definition 4.1 check via the configured engine."""
        dictionary = dictionary or self._dictionary
        if dictionary is None:
            raise SecurityAnalysisError(
                "verification requires a dictionary; pass one to the session or "
                "to verify()"
            )
        secret_query = as_query(_plain(secret), "secret")
        view_list = as_queries(_views(views))
        before = self._cache.thread_stats()
        started = time.perf_counter()
        with span("session.verify"):
            verdict = self._engine.verify(secret_query, view_list, dictionary, **options)
        return self._finish(
            VerificationResult,
            "verify",
            bool(verdict),
            started,
            before,
            engine=self._engine_name,
        )

    # -- batch audits --------------------------------------------------------------
    def audit_plan(
        self, plan: PublishingPlan, domain: Optional[Domain] = None
    ) -> PlanAuditResult:
        """Audit every secret × view pair of a publishing plan.

        One :func:`~repro.core.collusion.analyse_collusion` per secret,
        all over one analysis domain (Proposition 4.9, sized for the
        whole batch), so each view's and each secret's critical tuples
        are computed exactly once and every subsequent pair is a cached
        set intersection.  By Theorem 4.5 the singleton verdicts
        determine every coalition, so the result covers all secret ×
        view-subset pairs.
        """
        if not isinstance(plan, PublishingPlan):
            raise SecurityAnalysisError(
                f"audit_plan expects a PublishingPlan, got {type(plan).__name__}"
            )
        secrets = {
            name: as_query(_plain(query), f"secret {name!r}")
            for name, query in plan.secrets.items()
        }
        views = {
            recipient: as_query(_plain(query), f"view for {recipient!r}")
            for recipient, query in plan.views.items()
        }
        before = self._cache.thread_stats()
        started = time.perf_counter()
        if domain is None and self._domain is None:
            domain = domain_bounds.analysis_domain(
                [*secrets.values(), *views.values()]
            )
        elif domain is None:
            domain = self._domain

        entries: List[PlanEntry] = []
        with span("session.audit-plan"):
            for secret_name, secret_query in secrets.items():
                report = analyse_collusion(
                    secret_query,
                    views,
                    self._schema,
                    domain=domain,
                    critical_fn=self._cache.critical_tuples,
                )
                entries.extend(
                    PlanEntry(
                        secret_name=secret_name,
                        recipient=recipient,
                        view_name=view_query.name,
                        secure=decision.secure,
                        decision=decision,
                    )
                    for recipient, view_query, decision in zip(
                        report.recipients, report.views, report.per_view
                    )
                )
        verdict = all(entry.secure for entry in entries)
        return self._finish(
            PlanAuditResult,
            "audit-plan",
            verdict,
            started,
            before,
            entries=tuple(entries),
            secret_names=tuple(secrets),
            recipients=tuple(views),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AnalysisSession(schema={self._schema!r}, engine={self._engine_name!r}, "
            f"cache={self._cache.stats()!r})"
        )
