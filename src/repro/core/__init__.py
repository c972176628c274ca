"""The paper's primary contribution: query-view security analysis.

Modules
-------
``criticality``   the ``crit_D`` engine (pruned, symmetry-reduced)
``security``      Theorem 4.5 decisions and Definition 4.1 verification
``practical``     the subgoal-unification quick check (Section 4.2)
``domain_bounds`` Proposition 4.9 analysis domains
``collusion``     multi-party collusion analysis
``prior``         prior knowledge (Section 5, Corollaries 5.3–5.5)
``leakage``       disclosure measurement (Section 6.1, Theorem 6.1)
``encrypted``     encrypted views (Section 5.4)
``asymptotic``    practical security (Section 6.2)

Every entry point takes its secret and views as query objects or
datalog strings, and several views as one view, a sequence or a
``recipient → view`` mapping (:func:`repro.cq.canonical.as_queries`);
no views, or a value that is not a query, raises
:class:`~repro.exceptions.SecurityAnalysisError`.  Without an explicit
``critical_fn``, every entry point that computes critical tuples
memoizes ``crit_D`` in the process-wide
:func:`~repro.core.criticality.default_cache`
(:func:`~repro.core.criticality.resolve_critical_fn`); sessions built
on this package pass their own cache's provider instead.
"""

from .adversary import (
    GuessingReport,
    guessing_report,
    posterior_answer_distribution,
    row_posteriors,
)
from .asymptotic import (
    AsymptoticOrder,
    PracticalSecurityLevel,
    PracticalSecurityReport,
    WitnessPattern,
    asymptotic_order,
    classify_practical_security,
    empirical_mu,
)
from .collusion import CollusionReport, analyse_collusion, largest_safe_view_set
from .criticality import (
    CriticalityEngine,
    PrunedParallelEngine,
    candidate_critical_facts,
    common_critical_tuples,
    critical_tuples,
    is_critical,
)
from .domain_bounds import (
    analysis_domain,
    analysis_schema,
    max_symbol_count,
    required_domain_size,
)
from .encrypted import (
    EncryptedView,
    EncryptedViewAnswerIs,
    answerable_from_encrypted_view,
    encrypted_view_security,
)
from .leakage import (
    LeakageResult,
    epsilon_of_theorem_6_1,
    leakage_bound_from_epsilon,
    positive_leakage,
    possible_answer_tuples,
)
from .practical import PracticalVerdict, practical_security_check
from .prior import (
    CardinalityConstraintKnowledge,
    ConjunctionKnowledge,
    KeyConstraintKnowledge,
    KnowledgeDecision,
    PriorKnowledge,
    PriorViewKnowledge,
    TupleStatusKnowledge,
    decide_with_cardinality_constraint,
    decide_with_key_constraints,
    decide_with_knowledge,
    decide_with_prior_view,
    decide_with_tuple_status,
    verify_with_knowledge,
)
from .security import (
    SecurityDecision,
    decide_security,
    independence_gap,
    is_secure,
    verify_security_probabilistically,
)

__all__ = [
    "GuessingReport",
    "guessing_report",
    "posterior_answer_distribution",
    "row_posteriors",
    "critical_tuples",
    "is_critical",
    "candidate_critical_facts",
    "common_critical_tuples",
    "CriticalityEngine",
    "PrunedParallelEngine",
    "SecurityDecision",
    "decide_security",
    "is_secure",
    "verify_security_probabilistically",
    "independence_gap",
    "PracticalVerdict",
    "practical_security_check",
    "analysis_domain",
    "analysis_schema",
    "max_symbol_count",
    "required_domain_size",
    "CollusionReport",
    "analyse_collusion",
    "largest_safe_view_set",
    "PriorKnowledge",
    "KeyConstraintKnowledge",
    "CardinalityConstraintKnowledge",
    "TupleStatusKnowledge",
    "PriorViewKnowledge",
    "ConjunctionKnowledge",
    "KnowledgeDecision",
    "decide_with_key_constraints",
    "decide_with_cardinality_constraint",
    "decide_with_tuple_status",
    "decide_with_prior_view",
    "decide_with_knowledge",
    "verify_with_knowledge",
    "LeakageResult",
    "positive_leakage",
    "possible_answer_tuples",
    "epsilon_of_theorem_6_1",
    "leakage_bound_from_epsilon",
    "EncryptedView",
    "EncryptedViewAnswerIs",
    "encrypted_view_security",
    "answerable_from_encrypted_view",
    "AsymptoticOrder",
    "WitnessPattern",
    "PracticalSecurityLevel",
    "PracticalSecurityReport",
    "asymptotic_order",
    "classify_practical_security",
    "empirical_mu",
]
