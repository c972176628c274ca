"""The ``crit_D(Q)`` computation (Definition 4.4).

Production runs one engine, :class:`PrunedParallelEngine`: the
Appendix A minimal-instance search with early comparison/constant
propagation and symmetry reduction over interchangeable domain values,
run serially over the candidate facts.  :func:`critical_tuples` and
:func:`is_critical` are its per-query functions.

:class:`CriticalTupleCache` memoizes its sets by (schema fingerprint,
canonical query, domain, instance constraint); its
:meth:`~CriticalTupleCache.critical_tuples` is the cached drop-in that
sessions pass as ``critical_fn``, and :func:`default_cache` is the
process-wide cache every decision procedure reads when no
``critical_fn`` is given (:func:`resolve_critical_fn`).

The unpruned Appendix A search and the literal Definition 4.4
enumeration live on as test oracles in :mod:`repro.reference`; the test
suite cross-validates this engine against both.
"""

from ...cq.witness import candidate_critical_facts
from .base import DEFAULT_MAX_VALUATIONS, CriticalityEngine, InstanceConstraint
from .cache import (
    CacheStats,
    CriticalTupleCache,
    default_cache,
    resolve_critical_fn,
    schema_fingerprint,
)
from .common import common_critical_tuples
from .pruned import PrunedParallelEngine, critical_tuples, is_critical

__all__ = [
    "CriticalityEngine",
    "PrunedParallelEngine",
    "InstanceConstraint",
    "DEFAULT_MAX_VALUATIONS",
    "candidate_critical_facts",
    "is_critical",
    "critical_tuples",
    "common_critical_tuples",
    "CacheStats",
    "CriticalTupleCache",
    "default_cache",
    "resolve_critical_fn",
    "schema_fingerprint",
]
