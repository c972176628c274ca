"""repro — a query-view security analyzer.

A from-scratch reproduction of Miklau & Suciu, *A Formal Analysis of
Information Disclosure in Data Exchange* (SIGMOD 2004 / JCSS 2007):
given views to be published and a query to be kept secret, decide — for
every probability distribution over databases — whether the views
disclose anything about the secret, measure the magnitude of the
disclosure when they do, and analyse collusion, prior knowledge,
encrypted views and asymptotic ("practical") security.

Quick start
-----------
The front door is the session API: compile queries once, analyse many
times, and let the session memoize every critical-tuple set.

>>> from repro import AnalysisSession
>>> from repro.bench import employee_schema
>>> session = AnalysisSession(employee_schema())
>>> secret = session.compile("S(n) :- Emp(n, HR, p)")
>>> session.decide(secret, "V(n) :- Emp(n, Mgmt, p)").secure
True

Batch audits share the cache across every secret × view pair:

>>> from repro import PublishingPlan
>>> plan = PublishingPlan(
...     secrets={"hr_names": "S(n) :- Emp(n, HR, p)"},
...     views={"bob": "V(n) :- Emp(n, Mgmt, p)"},
... )
>>> session.audit_plan(plan).secure
True

The legacy free functions remain fully supported; without a
``critical_fn`` they share one process-wide critical-tuple cache (see
``docs/API.md`` for the migration notes):

>>> from repro import q, decide_security
>>> decide_security(q("S(n) :- Emp(n, HR, p)"),
...                 q("V(n) :- Emp(n, Mgmt, p)"),
...                 employee_schema()).secure
True
"""

from .audit import (
    AuditFinding,
    AuditReport,
    DisclosureAssessment,
    DisclosureLevel,
    SecurityAuditor,
    classify_disclosure,
)
from .core import (
    CardinalityConstraintKnowledge,
    CollusionReport,
    CriticalityEngine,
    EncryptedView,
    KeyConstraintKnowledge,
    KnowledgeDecision,
    LeakageResult,
    PracticalSecurityLevel,
    PracticalSecurityReport,
    PracticalVerdict,
    PriorViewKnowledge,
    SecurityDecision,
    TupleStatusKnowledge,
    analyse_collusion,
    analysis_domain,
    asymptotic_order,
    classify_practical_security,
    common_critical_tuples,
    critical_tuples,
    decide_security,
    decide_with_knowledge,
    epsilon_of_theorem_6_1,
    is_critical,
    is_secure,
    positive_leakage,
    practical_security_check,
    verify_security_probabilistically,
    verify_with_knowledge,
)
from .cq import (
    Atom,
    Comparison,
    ConjunctiveQuery,
    Constant,
    UnionQuery,
    Variable,
    parse_query,
    q,
    union_of,
)
from .exceptions import (
    DomainError,
    IntractableAnalysisError,
    KnowledgeError,
    ParseError,
    ProbabilityError,
    QueryError,
    ReproError,
    SchemaError,
    SecurityAnalysisError,
)
from .probability import (
    Dictionary,
    ExactEngine,
    MonteCarloSampler,
    ProbabilityKernel,
    query_polynomial,
)
from .relational import Domain, Fact, Instance, RelationSchema, Schema
from .session import (
    AnalysisResult,
    AnalysisSession,
    CacheStats,
    CompiledQuery,
    CriticalTupleCache,
    PlanAuditResult,
    PublishingPlan,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # relational substrate
    "Domain",
    "RelationSchema",
    "Schema",
    "Fact",
    "Instance",
    # conjunctive queries
    "ConjunctiveQuery",
    "UnionQuery",
    "union_of",
    "Atom",
    "Comparison",
    "Variable",
    "Constant",
    "parse_query",
    "q",
    # probability
    "Dictionary",
    "ExactEngine",
    "ProbabilityKernel",
    "MonteCarloSampler",
    "query_polynomial",
    # core security analysis
    "critical_tuples",
    "is_critical",
    "common_critical_tuples",
    "CriticalityEngine",
    "SecurityDecision",
    "decide_security",
    "is_secure",
    "verify_security_probabilistically",
    "PracticalVerdict",
    "practical_security_check",
    "analysis_domain",
    "CollusionReport",
    "analyse_collusion",
    "KeyConstraintKnowledge",
    "CardinalityConstraintKnowledge",
    "TupleStatusKnowledge",
    "PriorViewKnowledge",
    "KnowledgeDecision",
    "decide_with_knowledge",
    "verify_with_knowledge",
    "LeakageResult",
    "positive_leakage",
    "epsilon_of_theorem_6_1",
    "EncryptedView",
    "PracticalSecurityLevel",
    "PracticalSecurityReport",
    "asymptotic_order",
    "classify_practical_security",
    # session API
    "AnalysisSession",
    "CompiledQuery",
    "CriticalTupleCache",
    "CacheStats",
    "PublishingPlan",
    "AnalysisResult",
    "PlanAuditResult",
    # audit layer
    "SecurityAuditor",
    "DisclosureLevel",
    "DisclosureAssessment",
    "classify_disclosure",
    "AuditReport",
    "AuditFinding",
    # exceptions
    "ReproError",
    "SchemaError",
    "DomainError",
    "QueryError",
    "ParseError",
    "ProbabilityError",
    "SecurityAnalysisError",
    "KnowledgeError",
    "IntractableAnalysisError",
]
