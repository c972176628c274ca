"""The compiled exact-probability kernel.

:class:`ProbabilityKernel` answers every question the exact layer asks —
event probabilities, conditionals, independence tests, answer
distributions, joint answer distributions — from *compiled* artifacts
instead of per-subset re-evaluation:

* **Compile once, evaluate by bit ops** — queries become mask tables
  (:mod:`~repro.cq.witness`) and events bit algebra over them
  (:mod:`~repro.probability.compiled_event`): one satisfying-assignment
  enumeration against the full support plus a subset zeta transform
  replaces ``2^n`` backtracking searches.
* **Mass precomputation** — the Eq. (1) probability of every sub-instance
  is served from a meet-in-the-middle table of half-mask products
  (``O(2^(n/2))`` space, one multiplication per mask) instead of an
  ``n``-term product per subset, in exact :class:`~fractions.Fraction`
  arithmetic (bit-for-bit equal to the seed engine).
* **Independence factorization** (Proposition 4.13(3)) — the support is
  partitioned into connected components induced by the events' supports;
  tuple-independence makes the components independent, so each is
  enumerated separately (``2^n1 + 2^n2`` instead of ``2^(n1+n2)``) and
  the distributions are combined by product.  The intractability guard
  therefore applies **per component**, which is what lets
  :data:`DEFAULT_MAX_SUPPORT` sit above the seed's bound of 22.
* **One memo table per dictionary** — every compiled artifact (a query's
  or an event's mask table over a support, a support's mass table, a
  joint answer distribution) is a pure function of the dictionary and of
  what the artifact says.  So each :class:`Dictionary` carries one
  bounded LRU of them, keyed by content — the canonical query key
  (:func:`~repro.cq.canonical.canonical_query_key`), the event key
  (:func:`~repro.probability.compiled_event.event_key`), the ordered
  support — and stored on the dictionary the way
  :func:`~repro.cq.compiled.plan_for` stores a plan on its query: it
  lives exactly as long as the dictionary, and every kernel over that
  dictionary object shares it.  ``verify_security_probabilistically``
  followed by ``independence_gap`` on one pair is one enumeration.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

from ..cq.canonical import canonical_query_key
from ..cq.witness import CompiledQueryTable, compile_query_table, query_support, universe_mask
from ..exceptions import IntractableAnalysisError, ProbabilityError
from ..obs import span
from ..obs.counters import StatCounters
from ..relational.tuples import Fact
from .compiled_event import compile_event_bits, event_key
from .dictionary import Dictionary
from .events import Event

__all__ = [
    "ProbabilityKernel",
    "MassTable",
    "DEFAULT_MAX_SUPPORT",
    "PREDICATE_MAX_SUPPORT",
]

#: Default bound on the number of facts enumerated *per connected
#: component*.  The seed engine bounded the whole support union at 22;
#: with compiled evaluation and component factorization the same wall-
#: clock budget covers larger (and especially disconnected) supports.
DEFAULT_MAX_SUPPORT = 26

#: Default bound for components containing an *opaque* event (a
#: :class:`PredicateEvent` or third-party subclass).  Those fall back to
#: the seed's per-mask evaluation loop and get none of the compiled
#: speedup, so they keep the seed's bound; a kernel built with an
#: explicit ``max_support_size`` still overrides it, as it did in the seed.
PREDICATE_MAX_SUPPORT = 22

#: Compiled artifacts one dictionary's memo table keeps before it evicts
#: the least recently used (every artifact is recomputable).
_MEMO_LIMIT = 1024

#: Attribute of a :class:`Dictionary` holding its :class:`_MemoTable`.
_MEMO_ATTRIBUTE = "_kernel_memo"

_MISSING = object()


class MassTable:
    """Meet-in-the-middle sub-instance probabilities over one support.

    Built from the tuple probabilities of the support's facts, in support
    order (bit ``j`` of a mask is fact ``j``).  Splits the support into a
    low and a high half and tabulates the
    Eq. (1) product of each half-mask once; the total mass of a mask
    table is then accumulated per high-half chunk, so each set bit costs
    one table lookup and one addition instead of an ``n``-term product.
    """

    __slots__ = ("_low_bits", "_low", "_high")

    def __init__(self, probabilities: Sequence[Fraction]):
        probabilities = list(probabilities)
        self._low_bits = len(probabilities) // 2
        self._low = self._half_table(probabilities[: self._low_bits])
        self._high = self._half_table(probabilities[self._low_bits :])

    @staticmethod
    def _half_table(probabilities):
        table = [Fraction(1)]
        for p in probabilities:
            absent = 1 - p
            table = [entry * absent for entry in table] + [
                entry * p for entry in table
            ]
        return table

    def mass(self, bits: int) -> Fraction:
        """Total probability of the masks whose bit is set in ``bits``."""
        zero = Fraction(0)
        total = zero
        if not bits:
            return total
        low_table = self._low
        low_size = 1 << self._low_bits
        if low_size >= 8:
            # One to_bytes conversion, then byte-aligned chunk slices:
            # O(2^n) copy traffic overall, where re-shifting the whole
            # mask table per chunk would cost O(2^n · 2^(n/2)).
            chunk_bytes = low_size >> 3
            data = bits.to_bytes(len(self._high) * chunk_bytes, "little")
            for high, p_high in enumerate(self._high):
                chunk = int.from_bytes(
                    data[high * chunk_bytes : (high + 1) * chunk_bytes], "little"
                )
                if not chunk:
                    continue
                acc = zero
                while chunk:
                    lowest = chunk & -chunk
                    acc += low_table[lowest.bit_length() - 1]
                    chunk ^= lowest
                total += acc * p_high
            return total
        low_all = (1 << low_size) - 1
        for high, p_high in enumerate(self._high):
            chunk = (bits >> (high << self._low_bits)) & low_all
            if not chunk:
                continue
            acc = zero
            while chunk:
                lowest = chunk & -chunk
                acc += low_table[lowest.bit_length() - 1]
                chunk ^= lowest
            total += acc * p_high
        return total


class _MemoTable:
    """One dictionary's compiled artifacts: a lock-guarded LRU keyed by content.

    Kernels on a daemon's worker threads share a dictionary, so lookups
    and insertions hold the lock; builds run outside it (a compilation
    can be slow and must not serialise unrelated lookups), and a
    concurrent duplicate build is harmless: both threads build the same
    deterministic artifact.
    """

    def __init__(self):
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        #: Monotone counters exposed for tests and reports: compiled
        #: query tables / compiled event tables / joint distributions
        #: computed, and table hits for each.  They are bumped from
        #: concurrent worker threads, so they are lock-guarded (see
        #: ``StatCounters.bump``).
        self.stats = StatCounters(
            (
                "query_compilations",
                "query_table_hits",
                "event_compilations",
                "event_bit_hits",
                "distributions",
                "distribution_hits",
            )
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __reduce__(self):
        # A pickled dictionary carries an empty table: the lock cannot be
        # pickled, and every artifact is recomputable.
        return (_MemoTable, ())

    def get(self, key: Hashable, build: Callable[[], object], hit: str = "", miss: str = ""):
        """The artifact under ``key``, built and kept on a miss.

        ``hit`` and ``miss`` name the counters a lookup bumps, if any.
        """
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
        if value is not _MISSING:
            if hit:
                self.stats.bump(hit)
            return value
        if miss:
            self.stats.bump(miss)
        value = build()
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > _MEMO_LIMIT:
                self._entries.popitem(last=False)
        return value


def _memo_of(dictionary: Dictionary) -> _MemoTable:
    """The dictionary's memo table, created on first use and stored on it."""
    memo = getattr(dictionary, _MEMO_ATTRIBUTE, None)
    if memo is None:
        # setdefault is atomic: racing first uses agree on one table.
        memo = vars(dictionary).setdefault(_MEMO_ATTRIBUTE, _MemoTable())
    return memo


class ProbabilityKernel:
    """Compiled exact probability engine over one dictionary.

    Parameters
    ----------
    dictionary:
        The tuple-independent distribution (domain + tuple probabilities).
    max_support_size:
        Bound on the facts enumerated per connected component, set once
        for every method.  ``None`` means :data:`DEFAULT_MAX_SUPPORT`
        per structural component and :data:`PREDICATE_MAX_SUPPORT` per
        component that needs the opaque-predicate fallback; an explicit
        bound is honoured verbatim.

    A kernel is a plain object: its compiled artifacts live in the
    dictionary's memo table, which every kernel over that dictionary
    object shares.  Probabilities are exact :class:`Fraction` values,
    equal to the seed enumeration engine's.
    """

    def __init__(self, dictionary: Dictionary, max_support_size: Optional[int] = None):
        self._dictionary = dictionary
        self._max_support_size = max_support_size
        self._memo = _memo_of(dictionary)

    @classmethod
    def shared_stats(cls, dictionary: Dictionary) -> Optional[Dict[str, Dict[str, int]]]:
        """Counters of the memo table of ``dictionary``, if it has one.

        Purely observational: nothing is created.  Returns
        ``{"exact": stats}`` or ``None`` when no kernel has been built over
        the dictionary yet — which is how operators can see compiled-table
        and distribution hit rates without attaching a debugger.
        """
        memo = getattr(dictionary, _MEMO_ATTRIBUTE, None)
        if memo is None:
            return None
        return {"exact": dict(memo.stats)}

    @property
    def dictionary(self) -> Dictionary:
        """The dictionary this kernel computes over."""
        return self._dictionary

    @property
    def stats(self) -> StatCounters:
        """The counters of the dictionary's memo table (shared by its kernels)."""
        return self._memo.stats

    # -- supports and components ------------------------------------------------
    def _event_support(self, event: Event) -> Tuple[Fact, ...]:
        support = event.support(self._dictionary.schema)
        if support is None:
            return tuple(self._dictionary.tuple_space())
        return tuple(support)

    def _components(
        self, supports: Sequence[Tuple[Fact, ...]]
    ) -> List[Tuple[Tuple[Fact, ...], Tuple[int, ...]]]:
        """Partition the support union into connected components.

        Two facts are connected when some item's support contains both,
        so every item (event or query) lands in exactly one component.
        Returns ``(ordered facts, item indices)`` per component, facts
        ordered by ``repr`` for determinism over mixed-type domains.
        """
        parent: Dict[int, int] = {i: i for i in range(len(supports))}

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        owner: Dict[Fact, int] = {}
        for i, support in enumerate(supports):
            for fact in support:
                j = owner.setdefault(fact, i)
                if j != i:
                    parent[find(i)] = find(j)
        groups: Dict[int, Tuple[set, List[int]]] = {}
        for i, support in enumerate(supports):
            root = find(i)
            facts, items = groups.setdefault(root, (set(), []))
            facts.update(support)
            items.append(i)
        components = [
            (tuple(sorted(facts, key=repr)), tuple(items))
            for facts, items in groups.values()
        ]
        components.sort(key=lambda component: component[1])
        return components

    def _check_component(self, facts: Sequence[Fact], what: str, opaque: bool = False) -> None:
        """Refuse components too large to enumerate.

        The kernel's explicit bound is honoured verbatim (seed
        semantics).  Without one, structural components get
        :data:`DEFAULT_MAX_SUPPORT` and components needing the per-mask
        predicate fallback — which enjoys none of the compiled speedup —
        keep the seed's :data:`PREDICATE_MAX_SUPPORT`.
        """
        bound = self._max_support_size
        if bound is None:
            bound = PREDICATE_MAX_SUPPORT if opaque else DEFAULT_MAX_SUPPORT
        if len(facts) > bound:
            raise IntractableAnalysisError(
                f"{what} has a connected support component of {len(facts)} facts; "
                f"exact enumeration of 2^{len(facts)} sub-instances exceeds the "
                f"configured bound ({bound}); use MonteCarloSampler instead",
                size_estimate=2 ** len(facts),
            )

    # -- compiled artifacts ------------------------------------------------------
    def query_table(self, query, facts: Sequence[Fact]) -> CompiledQueryTable:
        """The compiled table of ``query`` over ``facts`` (memoized)."""
        facts = tuple(facts)

        def build() -> CompiledQueryTable:
            with span("kernel.query_table"):
                return compile_query_table(query, facts)

        return self._memo.get(
            ("query", canonical_query_key(query), facts),
            build,
            "query_table_hits",
            "query_compilations",
        )

    def _event_bits(self, event: Event, key: Optional[Hashable], facts: Tuple[Fact, ...]) -> int:
        """The mask table of ``event`` (content key ``key``) over ``facts``.

        An opaque event (``key`` is ``None``) is compiled on every call.
        """

        def build() -> int:
            return compile_event_bits(
                event, facts, lambda query: self.query_table(query, facts)
            )

        if key is None:
            self.stats.bump("event_compilations")
            return build()
        return self._memo.get(
            ("event", key, facts), build, "event_bit_hits", "event_compilations"
        )

    def mass_table(self, facts: Sequence[Fact]) -> MassTable:
        """The meet-in-the-middle mass table over ``facts`` (memoized)."""
        facts = tuple(facts)
        return self._memo.get(
            ("mass", facts),
            lambda: MassTable([self._dictionary.probability_of(fact) for fact in facts]),
        )

    # -- event probabilities -----------------------------------------------------
    def probability(self, event: Event) -> Fraction:
        """``P[event]`` as an exact :class:`Fraction`."""
        return self.joint_probability([event])

    def joint_probability(self, events: Sequence[Event]) -> Fraction:
        """``P[e1 ∧ e2 ∧ ...]`` with component factorization.

        Events whose supports live in disjoint components are independent
        under a tuple-independent dictionary (Proposition 4.13(3)), so
        the joint probability is the product of per-component masses.
        """
        events = list(events)
        keys = [event_key(event) for event in events]
        supports = [self._event_support(event) for event in events]
        total = Fraction(1)
        for facts, items in self._components(supports):
            self._check_component(
                facts, "event support", opaque=any(keys[i] is None for i in items)
            )
            bits = universe_mask(len(facts))
            for i in items:
                bits &= self._event_bits(events[i], keys[i], facts)
                if not bits:
                    return Fraction(0)
            total *= self.mass_table(facts).mass(bits)
            if not total:
                return Fraction(0)
        return total

    def conditional_probability(self, event: Event, given: Event) -> Fraction:
        """``P[event | given]``; raises when ``P[given] = 0``."""
        joint = self.joint_probability([event, given])
        marginal = self.probability(given)
        if marginal == 0:
            raise ProbabilityError(
                f"cannot condition on event with probability zero: {given.describe()}"
            )
        return joint / marginal

    def are_independent(self, left: Event, right: Event) -> bool:
        """Exact test of ``P[left ∧ right] = P[left]·P[right]``."""
        joint = self.joint_probability([left, right])
        return joint == self.probability(left) * self.probability(right)

    # -- answer distributions ----------------------------------------------------
    def _component_classes(
        self,
        facts: Tuple[Fact, ...],
        queries: Sequence,
        events: Sequence[Event],
        keys: Sequence[Optional[Hashable]],
    ) -> List[Tuple[int, Tuple]]:
        """Split the mask space of one component into answer classes.

        Returns ``(mask table, key)`` pairs where ``key`` lists, in item
        order, the answer set of each query followed by the truth value
        of each event.  The classes partition the non-empty portion of
        the mask space; structurally attained outcomes with probability
        zero are kept (the seed enumeration also reported them).
        """
        classes: List[Tuple[int, Tuple]] = [(universe_mask(len(facts)), ())]
        for query in queries:
            table = self.query_table(query, facts)
            split: List[Tuple[int, Tuple, set]] = [
                (bits, key, set()) for bits, key in classes
            ]
            for row in table.answers:
                row_bits = table.row_tables[row]
                next_split: List[Tuple[int, Tuple, set]] = []
                for bits, key, included in split:
                    with_row = bits & row_bits
                    without_row = bits & ~row_bits
                    if with_row:
                        next_split.append((with_row, key, included | {row}))
                    if without_row:
                        next_split.append((without_row, key, included))
                split = next_split
            classes = [
                (bits, key + (frozenset(included),)) for bits, key, included in split
            ]
        for event, content in zip(events, keys):
            event_table = self._event_bits(event, content, facts)
            next_classes: List[Tuple[int, Tuple]] = []
            for bits, key in classes:
                holds = bits & event_table
                fails = bits & ~event_table
                if holds:
                    next_classes.append((holds, key + (True,)))
                if fails:
                    next_classes.append((fails, key + (False,)))
            classes = next_classes
        return classes

    def joint_distribution(
        self, queries: Sequence, events: Sequence[Event] = ()
    ) -> Dict[Tuple, Fraction]:
        """Joint distribution of query answers and event truth values.

        Keys are tuples listing each query's answer set (a frozenset of
        rows) in query order followed by each event's truth value.  The
        support is factorized into connected components; each component
        is enumerated once and the component distributions are combined
        by product.  Distributions are memoized in the dictionary's
        table by the queries' and events' content keys, so repeated
        verification of the same ``(queries, dictionary)`` pair shares
        one enumeration; a call with an opaque event is not memoized.
        """
        queries = list(queries)
        events = list(events)
        keys = [event_key(event) for event in events]
        supports = [tuple(query_support(query, self._dictionary.schema)) for query in queries]
        supports += [self._event_support(event) for event in events]
        components = self._components(supports)
        query_count = len(queries)
        for facts, items in components:
            self._check_component(
                facts,
                "joint support" if queries else "event support",
                opaque=any(keys[i - query_count] is None for i in items if i >= query_count),
            )

        def build() -> Dict[Tuple, Fraction]:
            with span("kernel.distribution"):
                return self._joint_distribution_core(
                    queries, events, keys, components, query_count
                )

        if None in keys:
            self.stats.bump("distributions")
            return build()
        memo_key = (
            "distribution",
            tuple(canonical_query_key(query) for query in queries),
            tuple(keys),
        )
        return dict(self._memo.get(memo_key, build, "distribution_hits", "distributions"))

    def _joint_distribution_core(
        self, queries, events, keys, components, query_count
    ) -> Dict[Tuple, Fraction]:
        per_component: List[Tuple[Tuple[int, ...], List[Tuple[Tuple, object]]]] = []
        for facts, items in components:
            component_queries = [queries[i] for i in items if i < query_count]
            event_slots = [i - query_count for i in items if i >= query_count]
            mass = self.mass_table(facts)
            outcomes = [
                (key, mass.mass(bits))
                for bits, key in self._component_classes(
                    facts,
                    component_queries,
                    [events[i] for i in event_slots],
                    [keys[i] for i in event_slots],
                )
            ]
            per_component.append((items, outcomes))

        distribution: Dict[Tuple, Fraction] = {}
        total_items = query_count + len(events)
        for combo in itertools.product(*(outcomes for _, outcomes in per_component)):
            key: List[object] = [None] * total_items
            probability = Fraction(1)
            for (items, _), (component_key, component_probability) in zip(
                per_component, combo
            ):
                probability *= component_probability
                for slot, value in zip(items, component_key):
                    key[slot] = value
            distribution[tuple(key)] = (
                distribution.get(tuple(key), Fraction(0)) + probability
            )
        return distribution

    def joint_answer_distribution(
        self, queries: Sequence
    ) -> Dict[Tuple[FrozenSet[Tuple[object, ...]], ...], Fraction]:
        """Joint distribution of several queries' answers (Eq. 2, joint form)."""
        return self.joint_distribution(queries)

    def answer_distribution(self, query) -> Dict[FrozenSet[Tuple[object, ...]], Fraction]:
        """The full distribution of ``Q(I)``: answer set → probability (Eq. 2)."""
        joint = self.joint_distribution([query])
        return {key[0]: probability for key, probability in joint.items()}

    def possible_answers(self, query) -> List[FrozenSet[Tuple[object, ...]]]:
        """All answers attained with non-zero structural possibility.

        The order is deterministic: answers are listed by the smallest
        sub-instance bitmask attaining them (the seed engine ordered by
        first attainment along a size-then-combination enumeration; no
        caller depends on that order, only on the set).
        """
        facts = tuple(sorted(query_support(query, self._dictionary.schema), key=repr))
        self._check_component(facts, "query support")
        classes = self._component_classes(facts, [query], (), ())
        ordered = sorted(
            classes, key=lambda entry: (entry[0] & -entry[0]).bit_length()
        )
        return [key[0] for _, key in ordered]
