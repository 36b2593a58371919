"""Split-aware memoisation of bound-propagation work.

BaB-style verifiers evaluate thousands of sub-problems, and some of them
more than once: an FSB look-ahead probe bounds a child that the real
expansion bounds again, and the verification service replays identical
jobs against one fingerprint-scoped cache.  :class:`BoundCache` memoises
whole :class:`~repro.bounds.report.BoundReport` objects so such a repeat is
free.

A report is keyed by its :attr:`~repro.bounds.report.BoundReport.path`: the
root's back-end tag followed by the splits in the order the search made
them.  A child bounded against its parent's report inherits the parent's
bounds (see :mod:`repro.bounds.deeppoly`), so its bounds depend on the path
from the root and not only on its split set; two paths to the same split
set never share an entry.  An α-CROWN report has no path, so nothing
bounded against one is memoised.  Per-layer reuse between a parent and its
children needs no cache at all: the parent's report is passed to the
analyser explicitly, so cache on and cache off bound every child the same
way.

Entries are immutable facts about one ``(network, input box, output spec)``
triple, so the only invalidation rule is LRU eviction: an evicted report
is simply recomputed.  A cache instance is only valid for one such triple
and for the default (heuristic) relaxation slopes; analyses with externally
supplied ``lower_slopes`` (the α-CROWN optimiser) bypass it.  The owning
:class:`~repro.verifiers.appver.ApproximateVerifier` guarantees both.

The cache also carries the analyser's reuse counters (:class:`CacheStats`),
so every verifier reports them under ``extras["bound_cache"]``.

:class:`LpCache` applies the same idea to the *exact* leaf resolutions of
:func:`~repro.verifiers.milp.solve_leaf_lp_batch`: a bounded LRU store of
``RowOptimum`` results keyed by the leaf's phase-row bytes
(``SplitAssignment.key``), so a fully phase-decided leaf that is reached
again (within a run, or across runs on the *same* verification problem
when the cache is shared explicitly) never re-solves its LP.  The same
soundness invariant applies — one cache per ``(network, input box, output
spec)`` triple; the bound analysis is deterministic, so a phase row always
induces the same LP and a hit returns the identical optimum.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple

from repro.utils.validation import require

#: Default capacity shared by every cache owner (AppVer, AbonnConfig).
DEFAULT_CACHE_SIZE = 4096

#: Default capacity of the leaf-LP result cache.  Leaf LPs are far more
#: expensive to recompute than bound passes, and their memoised payload (one
#: ``RowOptimum``) is tiny, so a run rarely needs eviction at all.
DEFAULT_LP_CACHE_SIZE = 2048


def _lru_put(store: "OrderedDict[Hashable, object]", key: Hashable,
             value: object, max_entries: int) -> int:
    """Store ``value`` as the most recent entry; returns how many it evicted.

    A new key is hashed once: the size check tells an insert from an
    update, and only an update hashes again to move the key to the end.
    """
    size = len(store)
    store[key] = value
    if len(store) == size:
        store.move_to_end(key)
    evicted = 0
    while len(store) > max_entries:
        store.popitem(last=False)
        evicted += 1
    return evicted


@dataclass
class CacheStats:
    """Reuse counters of the bound analyser and its report cache.

    ``layer_hits`` counts the hidden layers a child took from its parent's
    report without re-bounding a single neuron, and ``layer_misses`` the
    hidden layers that re-bounded at least one neuron (every layer of a
    sub-problem without a parent).  ``delta_corrections`` counts the
    children bounded against a parent report.  ``report_hits`` and
    ``report_misses`` count report lookups, and ``evictions`` the reports
    the LRU dropped.
    """

    layer_hits: int = 0
    layer_misses: int = 0
    report_hits: int = 0
    report_misses: int = 0
    report_evictions: int = 0
    delta_corrections: int = 0

    @property
    def hits(self) -> int:
        """Layers taken from a parent plus reports served from the cache."""
        return self.layer_hits + self.report_hits

    @property
    def misses(self) -> int:
        """Layers re-bounded plus report lookups that found nothing."""
        return self.layer_misses + self.report_misses

    @property
    def evictions(self) -> int:
        """LRU evictions (the cache holds report entries only)."""
        return self.report_evictions

    def as_dict(self) -> dict:
        """The counters as a plain dict (``extras["bound_cache"]``)."""
        return {
            "layer_hits": self.layer_hits,
            "layer_misses": self.layer_misses,
            "report_hits": self.report_hits,
            "report_misses": self.report_misses,
            "evictions": self.evictions,
            "report_evictions": self.report_evictions,
            "delta_corrections": self.delta_corrections,
        }


class BoundCache:
    """A bounded LRU cache of bound reports keyed by their search path.

    Entries are immutable, so one instance may be shared by every run on
    its problem.
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_SIZE) -> None:
        require(max_entries >= 1, "max_entries must be positive")
        self.max_entries = int(max_entries)
        self._store: "OrderedDict[Hashable, object]" = OrderedDict()
        self.stats = CacheStats()

    def _put(self, key: Hashable, value: object) -> None:
        """Insert with LRU eviction."""
        self.stats.report_evictions += _lru_put(self._store, key, value,
                                                self.max_entries)

    # -- report entries -------------------------------------------------------
    def get_report(self, path: Tuple):
        """The report memoised for ``path``, or ``None``; counts a hit or miss."""
        key = ("report", path)
        report = self._store.get(key)
        if report is None:
            self.stats.report_misses += 1
        else:
            self.stats.report_hits += 1
            self._store.move_to_end(key)
        return report

    def put_report(self, path: Tuple, report) -> None:
        """Memoise ``report`` under ``path`` (LRU eviction beyond capacity)."""
        self._put(("report", path), report)

    # -- stats ----------------------------------------------------------------
    def record_reuse(self, children: int, layers_taken: int,
                     layers_rebound: int) -> None:
        """Count one analysis call's parent reuse (see :class:`CacheStats`)."""
        self.stats.delta_corrections += children
        self.stats.layer_hits += layers_taken
        self.stats.layer_misses += layers_rebound

    def stats_snapshot(self) -> dict:
        """The counters as a fresh :meth:`CacheStats.as_dict` dict."""
        return self.stats.as_dict()

    # -- handover -------------------------------------------------------------
    def export_entries(self) -> list:
        """Snapshot of every ``(key, entry)`` pair in LRU order (oldest first).

        The pairs are exactly what :meth:`import_entries` accepts, so
        ``import_entries(export_entries())`` on a fresh cache reproduces the
        store including its eviction order.  Entries are immutable, so the
        snapshot shares them with the live cache safely.
        """
        return list(self._store.items())

    def import_entries(self, items) -> int:
        """Insert exported ``(key, entry)`` pairs, preserving their order.

        Used by the cache-bundle handover to rebuild a warm cache from a
        snapshot.  Imported entries do not touch the hit/miss counters — a
        restored cache starts with fresh stats — but inserting beyond
        capacity evicts (and counts) exactly like regular puts.  Returns the
        number of entries inserted.
        """
        for key, value in items:
            self._put(key, value)
        return len(self._store)

    # -- management -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        """Drop every entry; the counters are kept."""
        self._store.clear()


@dataclass
class LpCacheStats:
    """Counters of the leaf-LP cache: reuse (hits) versus actual solves.

    ``solves`` counts *leaf resolutions* dispatched to the solver — the unit
    hits and misses are measured in (each resolution internally costs one LP
    per specification row).  ``proven_empty`` counts the subset of those
    resolutions closed by an emptiness certificate before any LP ran, so
    ``solves - proven_empty`` leaves actually reached HiGHS.
    """

    hits: int = 0
    misses: int = 0
    solves: int = 0
    proven_empty: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 before any lookup)."""
        total = self.hits + self.misses
        return (self.hits / total) if total else 0.0

    def as_dict(self) -> dict:
        """The counters and the hit rate as a plain dict (``extras["lp_cache"]``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "solves": self.solves,
            "proven_empty": self.proven_empty,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class LpCache:
    """A bounded LRU cache of exact leaf-LP optima.

    Keys are leaf phase-row bytes (``SplitAssignment.key``), or
    ``(fingerprint, bytes)`` pairs when scoped by a problem fingerprint;
    values are the :class:`~repro.verifiers.milp.RowOptimum` of that leaf (stored
    as an opaque object so this module stays free of verifier imports).  A
    hit returns the *identical* object the solver produced — callers treat
    optima as immutable.  ``solves`` counts leaf resolutions that actually
    reached the solver through this cache (one per miss; each costs one LP
    per spec row internally), so ``hits / (hits + misses)`` and ``solves``
    make the cost of leaf resolution observable end to end.

    Setting :attr:`fingerprint` pins the cache to one verification problem:
    a run on the cache then scopes its keys with it instead of hashing the
    problem again.  Each service cache bundle pins its cache to the
    fingerprint the pool computed; a pinned cache must serve no other
    problem.
    """

    def __init__(self, max_entries: int = DEFAULT_LP_CACHE_SIZE) -> None:
        require(max_entries >= 1, "max_entries must be positive")
        self.max_entries = int(max_entries)
        self.fingerprint: Optional[str] = None
        self._store: "OrderedDict[Hashable, object]" = OrderedDict()
        self.stats = LpCacheStats()

    def get(self, key: Hashable) -> Optional[object]:
        """Look up a leaf's optimum; counts a hit or a miss."""
        value = self._store.get(key)
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
            self._store.move_to_end(key)
        return value

    def put(self, key: Hashable, optimum: object) -> None:
        """Store a freshly solved optimum (LRU eviction beyond capacity)."""
        self.stats.evictions += _lru_put(self._store, key, optimum,
                                         self.max_entries)

    def record_solve(self, count: int = 1) -> None:
        """Count ``count`` leaf resolutions dispatched to the solver."""
        self.stats.solves += count

    def record_proven_empty(self, count: int = 1) -> None:
        """Count ``count`` solved leaves closed by an emptiness certificate."""
        self.stats.proven_empty += count

    def record_hit(self, count: int = 1) -> None:
        """Count ``count`` reuses served without a store lookup.

        The batch LP solver deduplicates identical leaves *within* one
        batch by aliasing the first resolution's optimum; those aliases are
        cache-level reuse and are recorded through this method.
        """
        self.stats.hits += count

    def stats_snapshot(self) -> dict:
        """The counters as a fresh :meth:`LpCacheStats.as_dict` dict."""
        return self.stats.as_dict()

    def export_entries(self) -> list:
        """Snapshot of every ``(key, optimum)`` pair in LRU order (oldest first).

        The counterpart of :meth:`import_entries`; optima are immutable, so
        the snapshot shares them with the live cache safely.
        """
        return list(self._store.items())

    def import_entries(self, items) -> int:
        """Insert exported ``(key, optimum)`` pairs, preserving their order.

        Restored entries leave the hit/miss/solve counters untouched (a
        rebuilt cache starts with fresh stats); inserting beyond capacity
        evicts oldest-first exactly like regular puts.  Returns the number
        of entries inserted.
        """
        for key, value in items:
            self.put(key, value)
        return len(self._store)

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        """Drop every entry; the counters are kept."""
        self._store.clear()
