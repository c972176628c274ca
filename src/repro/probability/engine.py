"""Exact probability computations over the instance space.

The engine computes probabilities of :class:`~repro.probability.events.Event`
objects exactly (with rational arithmetic) over the subsets of the
events' joint support — Eq. (2) of the paper.  :class:`ExactEngine` is
the compiled :class:`~repro.probability.kernel.ProbabilityKernel` under
its historical name: queries are compiled once into bitset mask tables,
subset probabilities come from meet-in-the-middle mass tables,
disconnected supports are factorized into independent components, and
every compiled artifact is kept in the dictionary's one memo table.
Results are equal, as :class:`~fractions.Fraction` values, to the seed
enumeration's, which :mod:`repro.reference` keeps as the oracle.
``max_support_size`` guards against accidental blow-ups; callers can
fall back to :mod:`repro.probability.sampling` for larger spaces.
"""

from __future__ import annotations

from .kernel import DEFAULT_MAX_SUPPORT, ProbabilityKernel

__all__ = ["ExactEngine", "DEFAULT_MAX_SUPPORT"]

#: The exact engine is the kernel: ``ExactEngine(dictionary,
#: max_support_size=None)`` builds a :class:`ProbabilityKernel`.
ExactEngine = ProbabilityKernel
