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

The legacy free functions (``decide_security``, ``analyse_collusion``,
``decide_with_knowledge``, ``positive_leakage``,
``classify_practical_security``) remain available and now delegate to a
module-level default session, so existing code inherits the caching
without changes.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core import domain_bounds
from ..core.criticality import critical_tuples
from ..core.practical import practical_security_check
from ..core.prior import PriorKnowledge
from ..exceptions import SecurityAnalysisError
from ..obs import span
from ..probability.dictionary import Dictionary
from ..relational.domain import Domain
from ..relational.schema import Schema
from .cache import CacheStats, CriticalTupleCache, schema_fingerprint
from .compile import AnyQuery, CompiledQuery, QueryLike, as_query, canonical_query_key
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
    cache / cache_size:
        Share an existing :class:`CriticalTupleCache` or size a fresh
        one.

    Every ``crit_D(Q)`` the session computes, including those behind
    the legacy free functions, runs on the production engine
    (:func:`repro.core.criticality.critical_tuples`).
    """

    def __init__(
        self,
        schema: Schema,
        dictionary: Optional[Dictionary] = None,
        engine: str = "exact",
        domain: Optional[Domain] = None,
        cache: Optional[CriticalTupleCache] = None,
        cache_size: int = 512,
    ):
        if not isinstance(schema, Schema):
            raise SecurityAnalysisError(
                f"AnalysisSession needs a Schema, got {type(schema).__name__}"
            )
        self._schema = schema
        self._schema_fp = schema_fingerprint(schema)
        self._dictionary = dictionary
        self._engine_name = engine
        self._engine: VerificationEngine = create_engine(engine)
        self._domain = domain
        self._cache = cache if cache is not None else CriticalTupleCache(cache_size)
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
        return self._critical_fn

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
        parsed = self._unwrap(query)
        if domain is None:
            domain = self._domain or domain_bounds.analysis_domain([parsed])
        working_schema = domain_bounds.untyped_schema(self._schema, domain)
        return self._critical_fn(parsed, working_schema, domain)

    def _unwrap(self, query: Union[QueryLike, CompiledQuery], role: str = "query") -> AnyQuery:
        if isinstance(query, CompiledQuery):
            return query.query
        return as_query(query, role)

    def _critical_fn(self, query, schema, domain=None, constraint=None, **options):
        """The cached drop-in for the engine's ``critical_tuples``.

        Constraint-relative sets (``crit_D(Q, K)``) are computed directly:
        constraints are opaque callables and cannot be part of a sound
        cache key.

        Cost-guard options such as ``max_valuations`` are deliberately
        *not* part of the key: they bound the computation, not the
        result, so a warm cache may serve a set that a colder cache
        would have refused to compute under a tighter bound.
        """
        def compute(*args, **kwargs):
            with span("criticality.compute"):
                return critical_tuples(*args, **kwargs)

        if constraint is not None:
            return compute(query, schema, domain, constraint, **options)
        if domain is None:
            domain = schema.domain
        key = (
            schema_fingerprint(schema),
            canonical_query_key(query),
            tuple(domain.values),
        )
        return self._cache.get_or_compute(
            key, lambda: compute(query, schema, domain, None, **options)
        )

    # -- result plumbing ---------------------------------------------------------
    def _finish(self, result_cls, kind, verdict, started, before, **fields) -> AnalysisResult:
        elapsed = time.perf_counter() - started
        used = self._cache.stats().delta(before)
        return result_cls(
            kind=kind,
            verdict=verdict,
            elapsed_seconds=elapsed,
            cache_used=used,
            **fields,
        )

    @staticmethod
    def _is_view_collection(item) -> bool:
        """True for containers of views (legacy callers pass any iterable)."""
        if isinstance(item, (str, CompiledQuery)):
            return False
        return isinstance(item, Mapping) or hasattr(item, "__iter__")

    def _normalise_views(self, views: Tuple) -> List[AnyQuery]:
        """Flatten ``*views`` varargs into a list of query objects."""
        flattened: List[AnyQuery] = []
        for item in views:
            if isinstance(item, Mapping):
                flattened.extend(self._unwrap(v, "view") for v in item.values())
            elif self._is_view_collection(item):
                flattened.extend(self._unwrap(v, "view") for v in item)
            else:
                flattened.append(self._unwrap(item, "view"))
        return flattened

    def _named_views(self, views: ViewsLike) -> Dict[str, AnyQuery]:
        if isinstance(views, Mapping):
            return {name: self._unwrap(v, "view") for name, v in views.items()}
        if isinstance(views, (list, tuple)):
            return {
                f"user{i + 1}": self._unwrap(v, "view") for i, v in enumerate(views)
            }
        return {"user1": self._unwrap(views, "view")}

    # -- analyses ----------------------------------------------------------------
    def decide(
        self,
        secret: Union[QueryLike, CompiledQuery],
        *views: ViewsLike,
        domain: Optional[Domain] = None,
    ) -> DecisionResult:
        """Dictionary-independent security decision (Theorem 4.5)."""
        from ..core.security import decide_security

        secret_query = self._unwrap(secret, "secret")
        view_list = self._normalise_views(views)
        before = self._cache.stats()
        started = time.perf_counter()
        with span("session.decide"):
            decision = decide_security(
                secret_query,
                view_list,
                self._schema,
                domain=domain or self._domain,
                critical_fn=self._critical_fn,
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
        from ..core.leakage import _positive_leakage

        dictionary = dictionary or self._dictionary
        if dictionary is None:
            raise SecurityAnalysisError(
                "measuring leakage requires a dictionary; pass one to the session "
                "or to leakage()"
            )
        secret_query = self._unwrap(secret, "secret")
        view_list = self._normalise_views(views)
        before = self._cache.stats()
        started = time.perf_counter()
        with span("session.leakage"):
            measurement = _positive_leakage(
                secret_query,
                view_list,
                dictionary,
                max_secret_rows=max_secret_rows,
                max_view_rows=max_view_rows,
                max_support_size=max_support_size,
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
        from ..core.collusion import analyse_collusion

        secret_query = self._unwrap(secret, "secret")
        if isinstance(views, Mapping):
            normalised: Union[Dict[str, AnyQuery], List[AnyQuery]] = {
                name: self._unwrap(v, "view") for name, v in views.items()
            }
        elif self._is_view_collection(views):
            normalised = [self._unwrap(v, "view") for v in views]
        else:
            normalised = [self._unwrap(views, "view")]
        before = self._cache.stats()
        started = time.perf_counter()
        with span("session.collusion"):
            report = analyse_collusion(
                secret_query,
                normalised,
                self._schema,
                domain=domain or self._domain,
                critical_fn=self._critical_fn,
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
        from ..core.prior import decide_with_knowledge

        if not isinstance(knowledge, PriorKnowledge):
            raise SecurityAnalysisError(
                f"with_knowledge expects a PriorKnowledge instance, "
                f"got {type(knowledge).__name__}"
            )
        secret_query = self._unwrap(secret, "secret")
        view_list = self._normalise_views((views,))
        before = self._cache.stats()
        started = time.perf_counter()
        with span("session.with-knowledge"):
            decision = decide_with_knowledge(
                secret_query,
                view_list,
                knowledge,
                self._schema,
                domain=domain or self._domain,
                critical_fn=self._critical_fn,
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
        from ..core.asymptotic import PracticalSecurityLevel, classify_practical_security

        secret_query = self._unwrap(secret, "secret")
        view_query = self._unwrap(view, "view")
        before = self._cache.stats()
        started = time.perf_counter()
        with span("session.practical"):
            report = classify_practical_security(
                secret_query,
                view_query,
                self._schema,
                expected_sizes=expected_sizes,
                zero_threshold=zero_threshold,
                critical_fn=self._critical_fn,
            )
        verdict = report.level is not PracticalSecurityLevel.PRACTICAL_DISCLOSURE
        return self._finish(
            PracticalResult, "practical", verdict, started, before, report=report
        )

    def quick_check(
        self, secret: Union[QueryLike, CompiledQuery], *views: ViewsLike
    ) -> QuickCheckResult:
        """The sound subgoal-unification screening (Section 4.2)."""
        secret_query = self._unwrap(secret, "secret")
        view_list = self._normalise_views(views)
        before = self._cache.stats()
        started = time.perf_counter()
        with span("session.quick-check"):
            check = practical_security_check(secret_query, view_list)
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
        secret_query = self._unwrap(secret, "secret")
        view_list = self._normalise_views(views)
        if not view_list:
            raise SecurityAnalysisError("at least one view is required")
        before = self._cache.stats()
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

        One analysis domain (Proposition 4.9, sized for the whole batch)
        is shared by every decision, so each view's and each secret's
        critical tuples are computed exactly once and every subsequent
        pair is a cached set intersection.  By Theorem 4.5 the singleton
        verdicts determine every coalition, so the result covers all
        secret × view-subset pairs.
        """
        from ..core.security import decide_security

        if not isinstance(plan, PublishingPlan):
            raise SecurityAnalysisError(
                f"audit_plan expects a PublishingPlan, got {type(plan).__name__}"
            )
        secrets = {
            name: self._unwrap(query, f"secret {name!r}")
            for name, query in plan.secrets.items()
        }
        views = {
            recipient: self._unwrap(query, f"view for {recipient!r}")
            for recipient, query in plan.views.items()
        }
        before = self._cache.stats()
        started = time.perf_counter()
        if domain is None and self._domain is None:
            domain = domain_bounds.analysis_domain(
                [*secrets.values(), *views.values()]
            )
        elif domain is None:
            domain = self._domain

        entries: List[PlanEntry] = []
        for secret_name, secret_query in secrets.items():
            for recipient, view_query in views.items():
                with span("session.audit-plan"):
                    decision = decide_security(
                        secret_query,
                        view_query,
                        self._schema,
                        domain=domain,
                        critical_fn=self._critical_fn,
                    )
                entries.append(
                    PlanEntry(
                        secret_name=secret_name,
                        recipient=recipient,
                        view_name=view_query.name,
                        secure=decision.secure,
                        decision=decision,
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
