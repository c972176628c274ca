"""The request pipeline's table: in-flight computations plus a bounded LRU.

One table per serving process, owned by its event loop (no locks) and
keyed by request fingerprint.  ``claim`` makes the caller the owner of a
computation or hands back the in-flight twin's future, so a burst of N
identical requests costs one computation; ``publish`` and ``abandon``
answer the followers with and without caching, so a failed or shed
computation is recomputed next time instead of being inherited.

A claim's only owner is the process whose event loop holds the table:
if that process dies, every follower's connection dies with it, so no
claim can be orphaned and clients' retry policies take over.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Any, Dict, Optional

__all__ = ["FleetCoalescer", "DEFAULT_CACHE_SIZE"]

#: Default bound on completed results kept in the table.
DEFAULT_CACHE_SIZE = 1024

#: A response core: ``{"ok": True, "result": ...}`` or ``{"ok": False, "error": ...}``.
Core = Dict[str, Any]


class FleetCoalescer:
    """In-flight futures plus a bounded result cache (event-loop thread only)."""

    def __init__(self, cache_size: int = DEFAULT_CACHE_SIZE):
        self._cache_size = max(0, cache_size)
        self._inflight: Dict[str, "asyncio.Future[Core]"] = {}
        self._results: "OrderedDict[str, Core]" = OrderedDict()
        self._counts = dict.fromkeys(
            ("claims", "coalesced", "cache_hits", "published", "abandoned", "forgotten"), 0
        )

    def lookup(self, key: str) -> Optional[Core]:
        """The cached answer for a fingerprint, if any (refreshes its age)."""
        core = self._results.get(key)
        if core is not None:
            self._results.move_to_end(key)
            self._counts["cache_hits"] += 1
        return core

    def claim(self, key: str) -> "Optional[asyncio.Future[Core]]":
        """Own a new computation (``None``) or get the in-flight twin's future.

        The owner must later :meth:`publish` or :meth:`abandon` the key.
        """
        leader = self._inflight.get(key)
        if leader is not None:
            self._counts["coalesced"] += 1
            return leader
        self._inflight[key] = asyncio.get_running_loop().create_future()
        self._counts["claims"] += 1
        return None

    def publish(self, key: str, core: Core) -> None:
        """Answer every follower and cache the answer (oldest evicted first)."""
        self._resolve(key, core)
        self._counts["published"] += 1
        if self._cache_size:
            self._results[key] = core
            self._results.move_to_end(key)
            while len(self._results) > self._cache_size:
                self._results.popitem(last=False)

    def abandon(self, key: str, core: Core) -> None:
        """Answer every follower without caching (failed or shed computation)."""
        self._resolve(key, core)
        self._counts["abandoned"] += 1

    def forget(self, key: str) -> bool:
        """Drop a cached answer; returns whether there was one."""
        dropped = self._results.pop(key, None) is not None
        self._counts["forgotten"] += dropped
        return dropped

    def _resolve(self, key: str, core: Core) -> None:
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_result(core)

    def __len__(self) -> int:
        return len(self._results)

    def stats(self) -> Dict[str, Any]:
        """Counters plus the table shape, as plain JSON."""
        return {
            "pending": len(self._inflight),
            "cached_results": len(self._results),
            "cache_size": self._cache_size,
            **self._counts,
        }
