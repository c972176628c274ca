"""Module-level default sessions backing the legacy free functions.

``decide_security`` and friends predate :class:`AnalysisSession`; they
now delegate here so that legacy callers inherit the critical-tuple
caching for free.  One session is kept per schema fingerprint (bounded,
LRU), and all of them share one process-wide cache — two schemas with
the same relations reuse each other's critical-tuple sets because the
cache key embeds the (untyped) working-schema fingerprint anyway.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from ..relational.schema import Schema
from .cache import CriticalTupleCache, schema_fingerprint
from .session import AnalysisSession

__all__ = ["default_session", "default_cache", "reset_default_sessions"]

#: Bound on the number of schemas with a live default session.
_MAX_DEFAULT_SESSIONS = 16

_lock = threading.Lock()
_shared_cache: Optional[CriticalTupleCache] = None
_sessions: "OrderedDict[object, AnalysisSession]" = OrderedDict()


def default_cache() -> CriticalTupleCache:
    """The process-wide critical-tuple cache shared by default sessions."""
    global _shared_cache
    with _lock:
        if _shared_cache is None:
            _shared_cache = CriticalTupleCache()
        return _shared_cache


def default_session(schema: Schema) -> AnalysisSession:
    """The default :class:`AnalysisSession` for ``schema``.

    Sessions are keyed by schema fingerprint and bounded LRU; they all
    share :func:`default_cache`, so even schema churn keeps the
    underlying critical-tuple sets hot.
    """
    key = schema_fingerprint(schema)
    cache = default_cache()
    with _lock:
        session = _sessions.get(key)
        if session is not None:
            _sessions.move_to_end(key)
            return session
        session = AnalysisSession(schema, cache=cache)
        if len(_sessions) >= _MAX_DEFAULT_SESSIONS:
            _sessions.popitem(last=False)
        _sessions[key] = session
        return session


def reset_default_sessions() -> None:
    """Drop every default session and the shared cache (tests, benchmarks)."""
    global _shared_cache
    with _lock:
        _sessions.clear()
        _shared_cache = None
