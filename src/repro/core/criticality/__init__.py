"""The ``crit_D(Q)`` computation (Definition 4.4).

Production runs one engine, :class:`PrunedParallelEngine`: the
Appendix A minimal-instance search with early comparison/constant
propagation, symmetry reduction over interchangeable domain values, and
an optional process-pool fan-out over candidate facts (serial fallback
via ``REPRO_CRITICALITY_WORKERS=0``).  :func:`critical_tuples` and
:func:`is_critical` are its per-query functions.

The unpruned Appendix A search and the literal Definition 4.4
enumeration live on as test oracles in :mod:`repro.reference`; the test
suite cross-validates this engine against both.
"""

from .base import (
    DEFAULT_MAX_VALUATIONS,
    CriticalityEngine,
    InstanceConstraint,
    candidate_critical_facts,
)
from .common import common_critical_tuples
from .pruned import WORKERS_ENV, PrunedParallelEngine, critical_tuples, is_critical

__all__ = [
    "CriticalityEngine",
    "PrunedParallelEngine",
    "InstanceConstraint",
    "DEFAULT_MAX_VALUATIONS",
    "WORKERS_ENV",
    "candidate_critical_facts",
    "is_critical",
    "critical_tuples",
    "common_critical_tuples",
]
