"""Reference engines: the paper's definitions, executed literally.

Production runs one engine per layer: the pruned crit_D search
(:mod:`repro.core.criticality`), compiled query evaluation — sql for a
:class:`~repro.storage.sqlite.SQLiteFactStore` target —
(:mod:`repro.cq.evaluation`) and the exact probability kernel
(:mod:`repro.probability.kernel`).  This package keeps the engines
those replaced, unchanged, as oracles for the test suite and as
baselines for the ablation benchmarks:

* :mod:`.evaluation` — the seed backtracking evaluator (``naive_*``);
* :mod:`.minimal` — the Appendix A minimal-instance search for crit_D;
* :mod:`.enumeration` — Definition 4.4 by enumerating every instance;
* :mod:`.exact` — the seed exact enumeration engine
  (:class:`NaiveExactEngine`).

The reference engines share the production helpers that define what a
homomorphic image is (``repro.cq.witness.candidate_critical_facts``,
``repro.cq.match_atom_to_fact``), so the oracles cannot diverge from
production on that.  Only tests and
benchmarks import this package; no production module does.
"""

from .enumeration import critical_tuples_naive, is_critical_naive
from .evaluation import (
    naive_evaluate,
    naive_evaluate_boolean,
    naive_satisfying_assignments,
)
from .exact import SEED_MAX_SUPPORT, NaiveExactEngine
from .minimal import critical_tuples, is_critical

__all__ = [
    "naive_evaluate",
    "naive_evaluate_boolean",
    "naive_satisfying_assignments",
    "is_critical",
    "critical_tuples",
    "is_critical_naive",
    "critical_tuples_naive",
    "NaiveExactEngine",
    "SEED_MAX_SUPPORT",
]
