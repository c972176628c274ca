"""Live audit sessions: re-audit a changing database in delta time.

An :class:`AnalysisSession` answers one-shot questions about a *fixed*
publishing situation.  A :class:`LiveAuditSession` pins the whole state
— schema, dictionary, a fact store (in-memory or SQL-backed), named
secrets and published views — and keeps every derived artifact
consistent as that state changes, paying only for what a change can
touch:

* **Fact deltas** (``apply_delta``).  Security verdicts under Theorem
  4.5 are *instance-independent* (``crit_D`` ranges over the tuple
  space, not the database), so a fact delta can never flip a decision
  and never invalidates a critical-tuple set or a kernel memo.  What a
  fact delta can change is the *answers* of the tracked queries — and
  only for queries the changed facts can unify with.  The delta
  classifier (:func:`may_affect`) checks each tracked query's subgoals
  against each changed fact: queries with no unifiable subgoal keep
  their answer memo verbatim (counted as ``memos_retained``); the rest
  are re-audited together through one shared
  :func:`~repro.cq.evaluation.delta_apply_many` pass, so the state
  advances once no matter how many queries watch it.

* **View publishes / retracts**.  These *do* change the question, so
  the session re-decides only the new pairs (every untouched pair is a
  cache hit), invalidates only the retracted view's
  :class:`~repro.session.cache.CriticalTupleCache` fingerprints
  (``crit_invalidated``), and drops only the kernel joint-distribution
  memos whose support overlaps the touched query's connected component
  (Proposition 4.13(3); ``kernel_invalidated``) — every other cached
  artifact survives and is lazily recomputed only if asked for again.

Every mutation returns a *notification document* (plain JSON) stating
what changed: which views' answers flipped, each secret's current
verdict (``secure`` — the static Theorem 4.5 decision — and ``exposed``
— insecure *and* currently non-empty), and what was retained versus
re-audited.  The audit service streams these documents to ``subscribe``
clients.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..cq import evaluate, match_atom_to_fact
from ..cq.evaluation import delta_apply_many
from ..exceptions import SecurityAnalysisError
from ..obs import span
from ..obs.counters import StatCounters
from ..probability.dictionary import Dictionary
from ..relational.instance import Instance
from ..relational.schema import Schema
from ..relational.tuples import Fact
from .compile import as_query, canonical_query_key
from .session import AnalysisSession

__all__ = [
    "LiveAuditSession",
    "may_affect",
    "fact_from_document",
    "fact_to_document",
]


def may_affect(query, fact: Fact) -> bool:
    """Can inserting or deleting ``fact`` change ``query``'s answer?

    The sound screening of the delta classifier: a conjunctive query's
    answer can only change when the fact unifies with at least one body
    atom (relation, arity and constants must match); for a union, with
    some disjunct's atom.  ``False`` certifies the answer memo survives
    the delta verbatim — the query is not re-audited at all.
    """
    for disjunct in getattr(query, "disjuncts", None) or (query,):
        for atom in disjunct.body:
            if match_atom_to_fact(atom, fact) is not None:
                return True
    return False


def fact_from_document(document: Any) -> Fact:
    """Build a :class:`Fact` from its wire form.

    Accepts ``{"relation": "R", "values": [1, "a"]}`` or the compact
    ``["R", [1, "a"]]`` pair.
    """
    if isinstance(document, Mapping):
        relation = document.get("relation")
        values = document.get("values")
    elif isinstance(document, Sequence) and not isinstance(document, str) and len(document) == 2:
        relation, values = document
    else:
        relation, values = None, None
    if not isinstance(relation, str) or not isinstance(values, Sequence) or isinstance(values, str):
        raise SecurityAnalysisError(
            f"a fact document must be {{'relation': name, 'values': [...]}} or "
            f"[name, [...]], got {document!r}"
        )
    return Fact(relation, tuple(values))


def fact_to_document(fact: Fact) -> List[Any]:
    """The compact wire form of a fact (``["R", [values...]]``)."""
    return [fact.relation, list(fact.values)]


class LiveAuditSession:
    """One pinned (schema, dictionary, instance, views) state, audited live.

    Parameters
    ----------
    schema:
        The schema every secret, view and fact ranges over.
    secrets:
        Name → query (datalog string or parsed) mapping of the secrets
        under audit.
    views:
        Initially published views (name → query); more can be published
        and retracted later.
    facts:
        The initial database.
    store:
        A :class:`~repro.storage.sqlite.SQLiteFactStore` to audit *in
        place* (``facts`` are loaded into it); every evaluation and delta
        then runs on the sql engine against the store itself.  Without a
        store, facts live in an immutable
        :class:`~repro.relational.instance.Instance` advanced through the
        cache-patching single-fact deltas.
    dictionary / session / cache_size:
        Forwarded to (or overriding) the underlying
        :class:`AnalysisSession`; pass ``session`` to share an existing
        one (and its critical-tuple cache) with other consumers.
    """

    def __init__(
        self,
        schema: Schema,
        *,
        secrets: Mapping[str, Any],
        views: Optional[Mapping[str, Any]] = None,
        facts: Iterable[Fact] = (),
        store: Optional[Any] = None,
        dictionary: Optional[Dictionary] = None,
        session: Optional[AnalysisSession] = None,
        cache_size: int = 512,
    ):
        if not secrets:
            raise SecurityAnalysisError("a live audit session needs at least one secret")
        if session is None:
            session = AnalysisSession(
                schema, dictionary=dictionary, cache_size=cache_size
            )
        self._session = session
        self._lock = threading.RLock()
        facts = tuple(facts)
        if store is not None:
            if facts:
                store.load_facts(facts)
            self._state: Any = store
        else:
            self._state = Instance(facts)
        self._secrets: "OrderedDict[str, Any]" = OrderedDict(
            (name, as_query(query, f"secret {name!r}")) for name, query in secrets.items()
        )
        self._views: "OrderedDict[str, Any]" = OrderedDict(
            (name, as_query(query, f"view {name!r}"))
            for name, query in (views or {}).items()
        )
        self.revision = 0
        #: Monotone counters of the incremental machinery: deltas applied,
        #: facts changed, queries re-audited vs. memos retained by the
        #: classifier, publish/retract traffic, targeted invalidations
        #: and verdict (``exposed``) flips.
        self.stats = StatCounters(
            (
                "deltas",
                "facts_added",
                "facts_removed",
                "queries_reaudited",
                "memos_retained",
                "publishes",
                "retracts",
                "crit_invalidated",
                "kernel_invalidated",
                "verdict_changes",
            )
        )
        # Initial full audit: answers for every tracked query, plus the
        # per-pair static decisions.  Everything after this is deltas.
        self._secret_answers: Dict[str, FrozenSet[Tuple[object, ...]]] = {}
        self._view_answers: Dict[str, FrozenSet[Tuple[object, ...]]] = {}
        self._decisions: Dict[str, Dict[str, bool]] = {}
        self._exposed: Dict[str, bool] = {}
        with self._lock:
            for name, query in self._secrets.items():
                self._secret_answers[name] = evaluate(query, self._state)
            for name, query in self._views.items():
                self._view_answers[name] = evaluate(query, self._state)
        for secret_name in self._secrets:
            self._decisions[secret_name] = {}
            for view_name in self._views:
                self._decide_pair(secret_name, view_name)
        for secret_name in self._secrets:
            self._exposed[secret_name] = self._exposed_now(secret_name)

    # -- introspection -----------------------------------------------------------
    @property
    def session(self) -> AnalysisSession:
        """The underlying analysis session (shared caches live here)."""
        return self._session

    @property
    def state(self) -> Any:
        """The current database (an ``Instance`` or the live store)."""
        return self._state

    @property
    def fact_count(self) -> int:
        """Number of facts currently in the database."""
        return len(self._state)

    @property
    def view_names(self) -> Tuple[str, ...]:
        """Currently published view names, in publication order."""
        return tuple(self._views)

    @property
    def secret_names(self) -> Tuple[str, ...]:
        """Tracked secret names."""
        return tuple(self._secrets)

    # -- verdict bookkeeping -----------------------------------------------------
    def _decide_pair(self, secret_name: str, view_name: str) -> bool:
        secure = self._session.decide(
            self._secrets[secret_name], self._views[view_name]
        ).verdict
        self._decisions[secret_name][view_name] = bool(secure)
        return bool(secure)

    def _secure(self, secret_name: str) -> bool:
        """The static Theorem 4.5 verdict of one secret vs. all views.

        Singleton verdicts determine every coalition (the critical
        tuples of a view set are the union of the members'), so the
        secret is secure iff it is secure against each view alone.
        """
        return all(self._decisions[secret_name].values())

    def _exposed_now(self, secret_name: str) -> bool:
        return not self._secure(secret_name) and bool(self._secret_answers[secret_name])

    def _secret_verdicts(self, changed_secrets: frozenset) -> Dict[str, Dict[str, Any]]:
        verdicts: Dict[str, Dict[str, Any]] = {}
        for name in self._secrets:
            exposed = self._exposed_now(name)
            flipped = exposed != self._exposed.get(name, False)
            if flipped:
                self.stats.bump("verdict_changes")
            self._exposed[name] = exposed
            verdicts[name] = {
                "secure": self._secure(name),
                "exposed": exposed,
                "answer_size": len(self._secret_answers[name]),
                "changed": name in changed_secrets or flipped,
                "insecure_views": sorted(
                    view
                    for view, secure in self._decisions[name].items()
                    if not secure
                ),
            }
        return verdicts

    def _notification(
        self,
        op: str,
        *,
        changed_views: Mapping[str, Dict[str, Any]],
        changed_secrets: frozenset,
        **extra: Any,
    ) -> Dict[str, Any]:
        views_doc = {}
        for name in self._views:
            entry = dict(changed_views.get(name, {"changed": False}))
            entry["size"] = len(self._view_answers[name])
            views_doc[name] = entry
        secrets_doc = self._secret_verdicts(changed_secrets)
        flipped = sorted(
            name for name, entry in views_doc.items() if entry.get("changed")
        )
        return {
            "live": True,
            "event": op,
            "revision": self.revision,
            "fact_count": self.fact_count,
            "changed": bool(flipped)
            or any(entry["changed"] for entry in secrets_doc.values()),
            "flipped_views": flipped,
            "views": views_doc,
            "secrets": secrets_doc,
            **extra,
        }

    # -- fact deltas --------------------------------------------------------------
    def apply_delta(
        self, added: Iterable[Fact] = (), removed: Iterable[Fact] = ()
    ) -> Dict[str, Any]:
        """Advance the database by one batched delta; re-audit in delta time.

        Only queries the classifier cannot rule out are re-audited, all
        through one shared :func:`delta_apply_many` pass; every other
        answer memo (and every verdict, crit set and kernel memo — fact
        deltas cannot touch them) survives verbatim.  Returns the
        notification document describing what changed.
        """
        added = tuple(added)
        removed = tuple(removed)
        with self._lock, span("live.apply_delta"):
            changed_facts = added + removed
            tracked: List[Tuple[str, str, Any]] = [
                ("secret", name, query) for name, query in self._secrets.items()
            ] + [("view", name, query) for name, query in self._views.items()]
            affected = [
                entry
                for entry in tracked
                if any(may_affect(entry[2], fact) for fact in changed_facts)
            ]
            retained = len(tracked) - len(affected)
            after, changes = delta_apply_many(
                [query for _, _, query in affected], self._state, added, removed
            )
            fact_delta = len(after) - self.fact_count
            self._state = after
            self.revision += 1
            self.stats.bump("deltas")
            self.stats.bump("facts_added", len(added))
            self.stats.bump("facts_removed", len(removed))
            self.stats.bump("queries_reaudited", len(affected))
            self.stats.bump("memos_retained", retained)
            changed_views: Dict[str, Dict[str, Any]] = {}
            changed_secrets = set()
            for (kind, name, _), (gained, lost) in zip(affected, changes):
                if kind == "secret":
                    answers = self._secret_answers
                else:
                    answers = self._view_answers
                answers[name] = (answers[name] - lost) | gained
                if gained or lost:
                    if kind == "secret":
                        changed_secrets.add(name)
                    else:
                        changed_views[name] = {
                            "changed": True,
                            "gained": len(gained),
                            "lost": len(lost),
                        }
            return self._notification(
                "apply-delta",
                changed_views=changed_views,
                changed_secrets=frozenset(changed_secrets),
                added=len(added),
                removed=len(removed),
                net_facts=fact_delta,
                reaudited=sorted(name for _, name, _ in affected),
                retained=retained,
            )

    # -- view publishes / retracts -----------------------------------------------
    def publish(self, name: str, view: Any) -> Dict[str, Any]:
        """Publish (or replace) a view; decide only the new pairs."""
        with self._lock, span("live.publish"):
            if name in self._views:
                self.retract(name)
            query = as_query(view, f"view {name!r}")
            self._views[name] = query
            self._view_answers[name] = evaluate(query, self._state)
            for secret_name in self._secrets:
                self._decide_pair(secret_name, name)
            self._invalidate_kernel(query)
            self.revision += 1
            self.stats.bump("publishes")
            return self._notification(
                "publish",
                changed_views={name: {"changed": True, "published": True}},
                changed_secrets=frozenset(),
                view=name,
            )

    def retract(self, name: str) -> Dict[str, Any]:
        """Retract a view; drop exactly its cached artifacts."""
        with self._lock, span("live.retract"):
            query = self._views.pop(name, None)
            if query is None:
                raise SecurityAnalysisError(f"no published view named {name!r}")
            self._view_answers.pop(name, None)
            for decisions in self._decisions.values():
                decisions.pop(name, None)
            key = canonical_query_key(query)
            dropped = self._session.cache.invalidate(
                lambda entry: isinstance(entry, tuple) and len(entry) >= 2 and entry[1] == key
            )
            self.stats.bump("crit_invalidated", dropped)
            self._invalidate_kernel(query)
            self.revision += 1
            self.stats.bump("retracts")
            return self._notification(
                "retract",
                changed_views={},
                changed_secrets=frozenset(),
                view=name,
                crit_invalidated=dropped,
            )

    def _invalidate_kernel(self, query) -> None:
        """Drop kernel memos in the touched connected component only."""
        dictionary = self._session.dictionary
        if dictionary is None:
            return
        from ..probability.kernel import ProbabilityKernel, _SHARED

        kernels = _SHARED.get(dictionary)
        if not kernels:
            return
        dropped = 0
        for kernel in kernels.values():
            try:
                dropped += kernel.invalidate_query(query)
            except Exception:  # noqa: BLE001 - invalidation is best-effort
                continue
        if dropped:
            self.stats.bump("kernel_invalidated", dropped)

    # -- snapshots and verification ----------------------------------------------
    def verdicts(self) -> Dict[str, Any]:
        """The current verdict document (what ``live-audit`` serves)."""
        with self._lock:
            return self._notification(
                "snapshot", changed_views={}, changed_secrets=frozenset()
            )

    def snapshot(self) -> Dict[str, Any]:
        """Verdicts plus session bookkeeping (counters, cache stats)."""
        with self._lock:
            document = self.verdicts()
            document["stats"] = dict(self.stats)
            document["cache"] = self._session.cache_stats.to_dict()
            document["secret_names"] = list(self._secrets)
            document["view_names"] = list(self._views)
            document["store_backed"] = not isinstance(self._state, Instance)
            return document

    def self_check(self) -> Dict[str, Any]:
        """Compare every maintained answer against a from-scratch evaluation.

        The incremental invariant: after any sequence of deltas, the
        maintained answers (and hence every verdict derived from them)
        must equal what a fresh audit of the current state computes.
        """
        with self._lock:
            mismatches = []
            for kind, answers, queries in (
                ("secret", self._secret_answers, self._secrets),
                ("view", self._view_answers, self._views),
            ):
                for name, query in queries.items():
                    fresh = evaluate(query, self._state)
                    if fresh != answers[name]:
                        mismatches.append(
                            {
                                "kind": kind,
                                "name": name,
                                "maintained": sorted(map(repr, answers[name])),
                                "fresh": sorted(map(repr, fresh)),
                            }
                        )
            return {"consistent": not mismatches, "mismatches": mismatches}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LiveAuditSession(revision={self.revision}, facts={self.fact_count}, "
            f"secrets={list(self._secrets)}, views={list(self._views)})"
        )
