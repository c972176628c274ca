"""Thread-safe counter dictionaries for the engine statistics.

The evaluation/storage/kernel counters (``STATS``, ``SQL_STATS``,
``STORAGE_STATS``, ``INDEX_STATS``, and the ``stats`` of each
dictionary's probability-kernel memo table) are plain dicts bumped with
``d[key] += 1`` from whatever thread happens to be evaluating — under ``--worker-threads > 1`` that read-modify-write
races and increments are silently lost.  :class:`StatCounters` is a
``dict`` subclass (so every existing read, ``in`` check, and iteration
keeps working) whose *writes* go through :meth:`bump` under a lock.

The ``+=`` statement itself cannot be made atomic from inside the
mapping — the read and the store are separate bytecodes in the caller —
so call sites must use ``counters.bump("key")`` instead.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, Mapping, Union

__all__ = ["StatCounters"]


class StatCounters(dict):
    """A dict of integer counters with lock-guarded mutation."""

    def __init__(self, keys: Union[Iterable[str], Mapping[str, int]] = ()):
        if isinstance(keys, Mapping):
            super().__init__({key: int(value) for key, value in keys.items()})
        else:
            super().__init__({key: 0 for key in keys})
        self._lock = threading.Lock()

    def bump(self, key: str, amount: int = 1) -> int:
        """Atomically add ``amount`` to ``key`` (creating it at zero)."""
        with self._lock:
            value = self.get(key, 0) + amount
            dict.__setitem__(self, key, value)
            return value

    def reset(self) -> None:
        """Zero every counter, keeping the key set."""
        with self._lock:
            for key in self:
                dict.__setitem__(self, key, 0)

    def snapshot(self) -> Dict[str, int]:
        """A consistent plain-dict copy."""
        with self._lock:
            return dict(self)
