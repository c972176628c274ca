"""The two per-dictionary verification engines.

Qualitative security verdicts (Theorem 4.5) are dictionary-independent,
but the library also ships *verifiers* that check Definition 4.1 against
one concrete dictionary: the exact rational engine (enumerates the joint
answer distribution; a proof) and the Monte-Carlo sampling verifier
(estimates independence from random instances; a screening test).
Sessions select one by name::

    AnalysisSession(schema, dictionary=d, engine="exact")
    AnalysisSession(schema, dictionary=d, engine="sampling")
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

from ..cq.evaluation import evaluate
from ..cq.query import ConjunctiveQuery
from ..exceptions import SecurityAnalysisError
from ..probability.dictionary import Dictionary
from ..probability.sampling import MonteCarloSampler

__all__ = [
    "VerificationEngine",
    "ExactVerificationEngine",
    "SamplingVerificationEngine",
    "create_engine",
]


class VerificationEngine:
    """Interface of a per-dictionary security verifier."""

    #: The name sessions select the engine by; subclasses override.
    name = "abstract"

    def verify(
        self,
        secret,
        views: Sequence,
        dictionary: Dictionary,
        **options,
    ) -> bool:
        """``True`` when the secret appears secure w.r.t. the views under
        this dictionary, by this engine's criterion."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable one-liner used in reports."""
        return f"{self.name} verification engine"


class ExactVerificationEngine(VerificationEngine):
    """Literal Definition 4.1 with exact rational arithmetic.

    Backed by the compiled probability kernel shared per dictionary
    (:class:`~repro.probability.kernel.ProbabilityKernel`): the joint
    answer distribution of ``(secret, views)`` is compiled and
    enumerated once per dictionary and memoized, so repeated session
    verifications of the same pair are cache hits.  Exponential in the
    per-component support size; authoritative on small domains.
    ``max_support_size`` bounds the enumerated support per connected
    component.
    """

    name = "exact"

    def verify(self, secret, views, dictionary, max_support_size=None, **_):
        from ..core.security import verify_security_probabilistically

        return verify_security_probabilistically(
            secret, list(views), dictionary, max_support_size=max_support_size
        )


class SamplingVerificationEngine(VerificationEngine):
    """Monte-Carlo independence screening (Definition 4.1, estimated).

    Draws random instances from the dictionary, records the answers of
    the secret and the views, and checks that the empirical joint
    distribution factorises within ``tolerance_sigmas`` standard errors.
    A screening tool: ``True`` means "no dependence detected", not a
    proof of security.
    """

    name = "sampling"

    def verify(
        self,
        secret,
        views,
        dictionary,
        samples: int = 4000,
        seed: int = 0,
        tolerance_sigmas: float = 4.0,
        **_,
    ) -> bool:
        # Uniform option validation: every tuning knob is checked the same
        # way, and the error always names the offending value.
        if not isinstance(samples, int) or isinstance(samples, bool) or samples <= 0:
            raise SecurityAnalysisError(
                f"sampling verification needs a positive integer sample count, "
                f"got {samples!r}"
            )
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise SecurityAnalysisError(
                f"sampling verification needs an integer seed, got {seed!r}"
            )
        if (
            not isinstance(tolerance_sigmas, (int, float))
            or isinstance(tolerance_sigmas, bool)
            or not math.isfinite(tolerance_sigmas)
            or tolerance_sigmas <= 0
        ):
            raise SecurityAnalysisError(
                f"sampling verification needs a positive finite tolerance_sigmas, "
                f"got {tolerance_sigmas!r}"
            )
        sampler = MonteCarloSampler(dictionary, seed=seed)
        views = list(views)
        joint: Dict[Tuple, int] = {}
        secret_marginal: Dict[frozenset, int] = {}
        view_marginal: Dict[Tuple, int] = {}
        for _ in range(samples):
            instance = sampler.sample_instance()
            secret_answer = frozenset(evaluate(secret, instance))
            view_answers = tuple(frozenset(evaluate(view, instance)) for view in views)
            joint[(secret_answer, view_answers)] = joint.get((secret_answer, view_answers), 0) + 1
            secret_marginal[secret_answer] = secret_marginal.get(secret_answer, 0) + 1
            view_marginal[view_answers] = view_marginal.get(view_answers, 0) + 1
        for secret_answer, secret_count in secret_marginal.items():
            for view_answers, view_count in view_marginal.items():
                p_joint = joint.get((secret_answer, view_answers), 0) / samples
                p_product = (secret_count / samples) * (view_count / samples)
                difference = abs(p_joint - p_product)
                stderr = max(p_joint * (1 - p_joint), 1e-12) ** 0.5 / samples**0.5
                if difference > tolerance_sigmas * max(stderr, 1e-9):
                    return False
        return True


_ENGINES = {
    engine.name: engine
    for engine in (ExactVerificationEngine, SamplingVerificationEngine)
}


def create_engine(name: str) -> VerificationEngine:
    """Instantiate the engine named ``name`` (``"exact"`` or ``"sampling"``).

    Raises :class:`SecurityAnalysisError` listing both names when
    ``name`` is unknown.
    """
    try:
        engine = _ENGINES[name]
    except KeyError:
        raise SecurityAnalysisError(
            f"unknown verification engine {name!r}; available engines: "
            f"{', '.join(sorted(_ENGINES))}"
        ) from None
    return engine()
