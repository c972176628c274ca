"""Probabilistic-database substrate.

Implements the security model of Section 3.2: dictionaries (tuple-
independent distributions), events over random instances, an exact
enumeration engine (Eq. 1–2), Monte-Carlo sampling and the multilinear
query polynomials ``f_Q`` of Section 4.3.
"""

from ..cq.witness import CompiledQueryTable, compile_query_table, query_support
from .dictionary import Dictionary, Probability
from .engine import DEFAULT_MAX_SUPPORT, ExactEngine
from .events import (
    And,
    Event,
    FactAbsent,
    FactPresent,
    Not,
    Or,
    PredicateEvent,
    QueryAnswerIs,
    QueryContains,
    QueryTrue,
    views_answer_event,
)
from .kernel import MassTable, ProbabilityKernel
from .polynomial import MultilinearPolynomial, query_polynomial, truth_table
from .sampling import Estimate, MonteCarloSampler

__all__ = [
    "Dictionary",
    "Probability",
    "ExactEngine",
    "ProbabilityKernel",
    "MassTable",
    "CompiledQueryTable",
    "compile_query_table",
    "DEFAULT_MAX_SUPPORT",
    "Event",
    "And",
    "Or",
    "Not",
    "FactPresent",
    "FactAbsent",
    "PredicateEvent",
    "QueryAnswerIs",
    "QueryContains",
    "QueryTrue",
    "query_support",
    "views_answer_event",
    "MultilinearPolynomial",
    "query_polynomial",
    "truth_table",
    "Estimate",
    "MonteCarloSampler",
]
