"""Unified result types for session-based analyses.

Every :class:`~repro.session.session.AnalysisSession` method returns a
subclass of :class:`AnalysisResult`, which standardises the four things
callers always want regardless of the analysis flavour:

* ``verdict`` — ``True`` (safe), ``False`` (disclosure) or ``None``
  (inconclusive, e.g. an inapplicable knowledge corollary);
* ``evidence`` — the legacy, analysis-specific result object with the
  full detail (``SecurityDecision``, ``CollusionReport``, ...);
* ``elapsed_seconds`` — wall-clock time of the analysis;
* ``cache_used`` — the critical-tuple cache activity this one call
  caused (a :class:`~repro.core.criticality.CacheStats` delta).

The legacy objects remain the source of truth for their own fields, so
code written against the pre-session API keeps working on
``result.decision`` / ``result.report`` / ``result.measurement``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

from ..core.asymptotic import PracticalSecurityReport
from ..core.collusion import CollusionReport
from ..core.criticality import CacheStats
from ..core.leakage import LeakageResult
from ..core.practical import PracticalVerdict
from ..core.prior import KnowledgeDecision
from ..core.security import SecurityDecision
from ..exceptions import SecurityAnalysisError

__all__ = [
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


@dataclass(frozen=True)
class AnalysisResult:
    """Common base of every session analysis outcome.

    Attributes
    ----------
    kind:
        Analysis flavour (``"decide"``, ``"collusion"``, ...).
    verdict:
        ``True`` = no disclosure, ``False`` = disclosure found,
        ``None`` = inconclusive.
    elapsed_seconds:
        Wall-clock duration of this analysis call.
    cache_used:
        Critical-tuple cache activity caused by this call (hits/misses
        are deltas of the lookups made on the calling thread, so
        concurrent calls on a shared session never count each other's;
        ``size`` is the cache size after the call).
    """

    kind: str
    verdict: Optional[bool]
    elapsed_seconds: float
    cache_used: CacheStats

    @property
    def secure(self) -> bool:
        """Strict boolean verdict; raises when the analysis was inconclusive."""
        if self.verdict is None:
            raise SecurityAnalysisError(
                f"the {self.kind} analysis was inconclusive; inspect the evidence "
                "or fall back to a per-dictionary verification"
            )
        return self.verdict

    @property
    def conclusive(self) -> bool:
        """True when a definite verdict was reached."""
        return self.verdict is not None

    def explain(self) -> str:
        """Human-readable explanation (subclasses delegate to their evidence)."""
        status = {True: "secure", False: "NOT secure", None: "inconclusive"}[self.verdict]
        return f"{self.kind} analysis: {status}"


@dataclass(frozen=True)
class DecisionResult(AnalysisResult):
    """Outcome of :meth:`AnalysisSession.decide` (Theorem 4.5)."""

    decision: SecurityDecision = None  # type: ignore[assignment]

    @property
    def evidence(self) -> SecurityDecision:
        """The underlying :class:`SecurityDecision`."""
        return self.decision

    def explain(self) -> str:
        return self.decision.explain()


@dataclass(frozen=True)
class CollusionResult(AnalysisResult):
    """Outcome of :meth:`AnalysisSession.collusion`."""

    report: CollusionReport = None  # type: ignore[assignment]

    @property
    def evidence(self) -> CollusionReport:
        """The underlying :class:`CollusionReport`."""
        return self.report

    def explain(self) -> str:
        return self.report.summary()


@dataclass(frozen=True)
class KnowledgeResult(AnalysisResult):
    """Outcome of :meth:`AnalysisSession.with_knowledge` (Section 5)."""

    decision: KnowledgeDecision = None  # type: ignore[assignment]

    @property
    def evidence(self) -> KnowledgeDecision:
        """The underlying :class:`KnowledgeDecision`."""
        return self.decision

    def explain(self) -> str:
        return self.decision.explanation


@dataclass(frozen=True)
class LeakageAnalysis(AnalysisResult):
    """Outcome of :meth:`AnalysisSession.leakage` (Section 6.1).

    ``verdict`` is ``True`` iff the measured leakage is zero.
    """

    measurement: LeakageResult = None  # type: ignore[assignment]

    @property
    def evidence(self) -> LeakageResult:
        """The underlying :class:`LeakageResult`."""
        return self.measurement

    @property
    def leakage(self):
        """The Eq. (9) value."""
        return self.measurement.leakage

    def explain(self) -> str:
        return f"leak(S, V̄) = {float(self.measurement.leakage):.6g}"


@dataclass(frozen=True)
class PracticalResult(AnalysisResult):
    """Outcome of :meth:`AnalysisSession.practical` (Section 6.2).

    ``verdict`` is ``True`` for perfect or practical (asymptotic)
    security, ``False`` for a practical disclosure.
    """

    report: PracticalSecurityReport = None  # type: ignore[assignment]

    @property
    def evidence(self):
        """The underlying :class:`PracticalSecurityReport`."""
        return self.report

    def explain(self) -> str:
        return self.report.explanation


@dataclass(frozen=True)
class QuickCheckResult(AnalysisResult):
    """Outcome of :meth:`AnalysisSession.quick_check` (Section 4.2).

    ``verdict`` is ``True`` for the sound "certainly secure" certificate
    and ``None`` when the unification check was inconclusive (it can
    never prove insecurity).
    """

    check: PracticalVerdict = None  # type: ignore[assignment]

    @property
    def evidence(self) -> PracticalVerdict:
        """The underlying :class:`PracticalVerdict`."""
        return self.check

    def explain(self) -> str:
        return self.check.explain()


@dataclass(frozen=True)
class VerificationResult(AnalysisResult):
    """Outcome of :meth:`AnalysisSession.verify` (per-dictionary check)."""

    engine: str = ""

    def explain(self) -> str:
        status = "independent" if self.verdict else "correlated"
        return f"{self.engine} engine: secret and views appear {status}"


@dataclass(frozen=True)
class PlanEntry:
    """One (secret, recipient) cell of a batch publishing-plan audit."""

    secret_name: str
    recipient: str
    view_name: str
    secure: bool
    decision: SecurityDecision

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "secure" if self.secure else "NOT secure"
        return f"PlanEntry({self.secret_name} | {self.recipient}: {verdict})"


@dataclass(frozen=True)
class PlanAuditResult(AnalysisResult):
    """Outcome of :meth:`AnalysisSession.audit_plan`.

    One entry per secret × recipient pair; by Theorem 4.5 the verdict of
    *any* coalition (view subset) follows from the singleton verdicts,
    so all ``2^k`` subsets are covered while each ``crit_D`` was
    computed exactly once.
    """

    entries: Tuple[PlanEntry, ...] = ()
    secret_names: Tuple[str, ...] = ()
    recipients: Tuple[str, ...] = ()

    @property
    def violations(self) -> Tuple[PlanEntry, ...]:
        """The insecure (secret, recipient) pairs."""
        return tuple(entry for entry in self.entries if not entry.secure)

    def entry(self, secret_name: str, recipient: str) -> PlanEntry:
        """The cell for one secret × recipient pair."""
        for candidate in self.entries:
            if candidate.secret_name == secret_name and candidate.recipient == recipient:
                return candidate
        raise SecurityAnalysisError(
            f"no plan entry for secret {secret_name!r} and recipient {recipient!r}"
        )

    def _require_secret(self, secret_name: str) -> None:
        if secret_name not in self.secret_names:
            raise SecurityAnalysisError(
                f"unknown secret {secret_name!r}; plan secrets are "
                f"{sorted(self.secret_names)}"
            )

    def coalition_is_secure(self, secret_name: str, coalition: Sequence[str]) -> bool:
        """Whether a coalition of recipients learns anything about a secret.

        Theorem 4.5: a coalition is secure iff every member's view is
        individually secure against the secret.
        """
        self._require_secret(secret_name)
        members = set(coalition)
        unknown = members - set(self.recipients)
        if unknown:
            raise SecurityAnalysisError(
                f"unknown recipients in coalition: {sorted(unknown)}"
            )
        return all(
            entry.secure
            for entry in self.entries
            if entry.secret_name == secret_name and entry.recipient in members
        )

    def violating_coalitions(self, secret_name: str) -> Tuple[Tuple[str, ...], ...]:
        """Minimal violating coalitions for one secret (singletons, Thm 4.5)."""
        self._require_secret(secret_name)
        return tuple(
            (entry.recipient,)
            for entry in self.entries
            if entry.secret_name == secret_name and not entry.secure
        )

    def render(self) -> str:
        """Multi-line human-readable audit summary."""
        lines = [
            f"Publishing-plan audit: {len(self.secret_names)} secret(s) × "
            f"{len(self.recipients)} view(s)"
        ]
        for secret_name in self.secret_names:
            bad = [
                entry.recipient
                for entry in self.entries
                if entry.secret_name == secret_name and not entry.secure
            ]
            if bad:
                lines.append(
                    f"  - {secret_name}: NOT secure (disclosed to {', '.join(bad)})"
                )
            else:
                lines.append(
                    f"  - {secret_name}: secure against every coalition (Theorem 4.5)"
                )
        verdict = "SAFE" if self.verdict else "DISCLOSURE"
        lines.append(
            f"  => plan verdict: {verdict}; critical-tuple cache: "
            f"{self.cache_used.hits} hit(s), {self.cache_used.misses} miss(es)"
        )
        return "\n".join(lines)

    def explain(self) -> str:
        return self.render()
