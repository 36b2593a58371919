"""Split-aware memoisation of bound-propagation work.

BaB-style verifiers evaluate thousands of sub-problems whose
:class:`~repro.bounds.splits.SplitAssignment` constraint sets overlap almost
entirely: the two children of a node share *all* of the parent's splits and
add one decision each.  Because DeepPoly/IBP pre-activation bounds at hidden
layer ``L`` depend only on the splits decided at layers ``<= L``, a child
that splits a neuron at layer ``l*`` can reuse every per-layer result of its
parent for layers ``< l*`` verbatim and only recompute layers at-or-below
the decided neuron.

:class:`BoundCache` exploits this with two kinds of entries, both behind one
bounded LRU store:

* **substitution entries** (:class:`SubstitutionEntry`), keyed by
  ``(layer, SplitAssignment.prefix_key(layer))`` — the post-clip
  pre-activation bounds, the ReLU relaxation derived from them and whether
  clipping made that layer inconsistent.  The bounds and relaxation serve
  plain prefix reuse; the whole entry additionally backs the incremental
  path: a child that extends the entry's assignment by one neuron *at this
  layer* derives its own entry with a rank-1 correction (clip the decided
  neuron's bounds, swap its relaxation row to the exact identity/zero form)
  instead of re-substituting.
* **report entries**, keyed by the full ``SplitAssignment.canonical_key()``
  — the complete :class:`~repro.bounds.report.BoundReport` of a finished
  analysis, so re-evaluating an identical sub-problem (e.g. an FSB probe
  followed by the actual expansion) is free.

Entries are immutable facts about one ``(network, input box)`` pair, so the
only invalidation rule is LRU eviction: an evicted parent entry simply makes
its children fall back to the full backward substitution (which recreates
the entry), never changes a result.

A cache instance is only valid for one fixed ``(network, input box, output
spec)`` triple and for the default (heuristic) relaxation slopes; analyses
with externally supplied ``lower_slopes`` (the α-CROWN optimiser) must
bypass it.  The owning :class:`~repro.verifiers.appver.ApproximateVerifier`
guarantees both.

:class:`LpCache` applies the same idea to the *exact* leaf resolutions of
:func:`~repro.verifiers.milp.solve_leaf_lp_batch`: a bounded LRU store of
``RowOptimum`` results keyed by ``SplitAssignment.canonical_key()``, so a
fully phase-decided leaf that is reached again (within a run, or across
runs on the *same* verification problem when the cache is shared
explicitly) never re-solves its LP.  The same soundness invariant applies —
one cache per ``(network, input box, output spec)`` triple; the bound
analysis is deterministic, so a canonical split assignment always induces
the same LP and a hit returns the identical optimum.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple

import numpy as np

from repro.utils.validation import require

#: Default capacity shared by every cache owner (AppVer, AbonnConfig).
DEFAULT_CACHE_SIZE = 4096

#: Default capacity of the leaf-LP result cache.  Leaf LPs are far more
#: expensive to recompute than bound passes, and their memoised payload (one
#: ``RowOptimum``) is tiny, so a run rarely needs eviction at all.
DEFAULT_LP_CACHE_SIZE = 2048


@dataclass(frozen=True)
class SubstitutionEntry:
    """Memoised per-layer analysis state (arrays are never mutated).

    ``lower``/``upper`` are the layer's post-clip pre-activation bounds,
    the three relaxation arrays the ReLU relaxation derived from them, and
    ``infeasible`` whether split clipping emptied the layer.
    """

    lower: np.ndarray
    upper: np.ndarray
    lower_slope: np.ndarray
    upper_slope: np.ndarray
    upper_intercept: np.ndarray
    infeasible: bool


@dataclass
class CacheStats:
    """Hit/miss counters, split by entry kind.

    ``delta_corrections`` counts the phase-split children whose layer entry
    was derived from the parent's entry with a rank-1 correction instead of
    a full backward substitution — the incremental path's reuse counter.
    Evictions are likewise split by the kind of the entry that was dropped
    (``layer_evictions`` / ``report_evictions``); :attr:`evictions` stays
    available as their total.
    """

    layer_hits: int = 0
    layer_misses: int = 0
    report_hits: int = 0
    report_misses: int = 0
    layer_evictions: int = 0
    report_evictions: int = 0
    delta_corrections: int = 0

    @property
    def hits(self) -> int:
        return self.layer_hits + self.report_hits

    @property
    def misses(self) -> int:
        return self.layer_misses + self.report_misses

    @property
    def evictions(self) -> int:
        """Total LRU evictions across both entry kinds."""
        return self.layer_evictions + self.report_evictions

    def as_dict(self) -> dict:
        return {
            "layer_hits": self.layer_hits,
            "layer_misses": self.layer_misses,
            "report_hits": self.report_hits,
            "report_misses": self.report_misses,
            "evictions": self.evictions,
            "layer_evictions": self.layer_evictions,
            "report_evictions": self.report_evictions,
            "delta_corrections": self.delta_corrections,
        }


class BoundCache:
    """A bounded LRU cache over layer and report entries.

    Every public method holds an internal re-entrant lock for its whole
    duration, so the LRU bookkeeping (lookup + ``move_to_end``, insert +
    eviction sweep) and the matching stats updates are atomic and one cache
    instance may be shared by concurrent workers.  Entries are immutable, so
    locking the *operations* is all the safety a shared cache needs.
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_SIZE) -> None:
        require(max_entries >= 1, "max_entries must be positive")
        self.max_entries = int(max_entries)
        self._store: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = CacheStats()

    # -- generic LRU plumbing (callers must hold ``_lock``) -------------------
    def _get(self, key: Hashable) -> Optional[object]:
        value = self._store.get(key)
        if value is not None:
            self._store.move_to_end(key)
        return value

    def _put(self, key: Hashable, value: object) -> None:
        if key in self._store:
            self._store.move_to_end(key)
        self._store[key] = value
        while len(self._store) > self.max_entries:
            evicted_key, _ = self._store.popitem(last=False)
            if evicted_key[0] == "layer":
                self.stats.layer_evictions += 1  # lint: disable=lock-discipline - caller holds _lock (see section comment)
            else:
                self.stats.report_evictions += 1  # lint: disable=lock-discipline - caller holds _lock (see section comment)

    # -- substitution (per-layer) entries -------------------------------------
    def get_layer(self, layer: int, prefix_key: Tuple) -> Optional[SubstitutionEntry]:
        with self._lock:
            entry = self._get(("layer", layer, prefix_key))
            if entry is None:
                self.stats.layer_misses += 1
            else:
                self.stats.layer_hits += 1
            return entry

    def put_layer(self, layer: int, prefix_key: Tuple,
                  entry: SubstitutionEntry) -> None:
        with self._lock:
            self._put(("layer", layer, prefix_key), entry)

    def peek_layer(self, layer: int, prefix_key: Tuple) -> Optional[SubstitutionEntry]:
        """Like :meth:`get_layer` but without touching the hit/miss counters.

        The incremental path probes for the *parent's* entry before deciding
        whether a rank-1 correction applies; a failed probe is not a cache
        miss of the sub-problem being analysed.
        """
        with self._lock:
            return self._get(("layer", layer, prefix_key))

    # -- report entries -------------------------------------------------------
    def get_report(self, canonical_key: Tuple, with_spec: bool):
        with self._lock:
            report = self._get(("report", canonical_key, with_spec))
            if report is None:
                self.stats.report_misses += 1
            else:
                self.stats.report_hits += 1
            return report

    def put_report(self, canonical_key: Tuple, with_spec: bool, report) -> None:
        with self._lock:
            self._put(("report", canonical_key, with_spec), report)

    # -- stats ----------------------------------------------------------------
    def record_delta_corrections(self, count: int = 1) -> None:
        """Count ``count`` rank-1 split corrections served by this cache.

        The incremental bound path derives child entries from a parent's
        entry; it counts that reuse through this method instead of mutating
        :attr:`stats` directly, which would tear the counter on a
        fingerprint-shared cache under concurrent workers (the same
        discipline as :meth:`LpCache.record_hit`).
        """
        with self._lock:
            self.stats.delta_corrections += count

    def stats_snapshot(self) -> dict:
        """Atomic :meth:`CacheStats.as_dict` snapshot (taken under the lock).

        Reading ``cache.stats.as_dict()`` from another thread can tear
        across the individual counters while a worker is mid-update;
        bundle- and service-level reporting reads through this method so a
        snapshot is internally consistent.
        """
        with self._lock:
            return self.stats.as_dict()

    # -- persistence ----------------------------------------------------------
    def export_entries(self) -> list:
        """Snapshot of every ``(key, entry)`` pair in LRU order (oldest first).

        The pairs are exactly what :meth:`import_entries` accepts, so
        ``import_entries(export_entries())`` on a fresh cache reproduces the
        store including its eviction order.  Entries are immutable, so the
        snapshot shares them with the live cache safely.
        """
        with self._lock:
            return list(self._store.items())

    def import_entries(self, items) -> int:
        """Insert exported ``(key, entry)`` pairs, preserving their order.

        Used by cache-bundle persistence to rebuild a warm cache from a
        snapshot.  Imported entries do not touch the hit/miss counters — a
        restored cache starts with fresh stats — but inserting beyond
        capacity evicts (and counts) exactly like regular puts.  Returns the
        number of entries inserted.
        """
        with self._lock:
            for key, value in items:
                self._put(key, value)
            return len(self._store)

    # -- management -----------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def clear(self) -> None:
        with self._lock:
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

    Keys are ``SplitAssignment.canonical_key()`` tuples; values are the
    :class:`~repro.verifiers.milp.RowOptimum` computed for that leaf (stored
    as an opaque object so this module stays free of verifier imports).  A
    hit returns the *identical* object the solver produced — callers treat
    optima as immutable.  ``solves`` counts leaf resolutions that actually
    reached the solver through this cache (one per miss; each costs one LP
    per spec row internally), so ``hits / (hits + misses)`` and ``solves``
    make the cost of leaf resolution observable end to end.

    As with :class:`BoundCache`, every public method is serialised by an
    internal re-entrant lock, so a fingerprint-shared instance is safe under
    concurrent workers and its counters never tear.
    """

    def __init__(self, max_entries: int = DEFAULT_LP_CACHE_SIZE) -> None:
        require(max_entries >= 1, "max_entries must be positive")
        self.max_entries = int(max_entries)
        self._store: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = LpCacheStats()

    def get(self, canonical_key: Hashable) -> Optional[object]:
        """Look up a leaf's optimum; counts a hit or a miss."""
        with self._lock:
            value = self._store.get(canonical_key)
            if value is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
                self._store.move_to_end(canonical_key)
            return value

    def put(self, canonical_key: Hashable, optimum: object) -> None:
        """Store a freshly solved optimum (LRU eviction beyond capacity)."""
        with self._lock:
            if canonical_key in self._store:
                self._store.move_to_end(canonical_key)
            self._store[canonical_key] = optimum
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)
                self.stats.evictions += 1

    def record_solve(self, count: int = 1) -> None:
        """Count ``count`` leaf resolutions dispatched to the solver."""
        with self._lock:
            self.stats.solves += count

    def record_proven_empty(self, count: int = 1) -> None:
        """Count ``count`` solved leaves closed by an emptiness certificate."""
        with self._lock:
            self.stats.proven_empty += count

    def record_hit(self, count: int = 1) -> None:
        """Count ``count`` reuses served without a store lookup.

        The batch LP solver deduplicates identical leaves *within* one
        batch by aliasing the first resolution's optimum; those aliases are
        cache-level reuse and are recorded through this method instead of
        callers mutating :attr:`stats` directly (which would race on a
        shared cache).
        """
        with self._lock:
            self.stats.hits += count

    def stats_snapshot(self) -> dict:
        """Atomic :meth:`LpCacheStats.as_dict` snapshot (under the lock).

        The counterpart of :meth:`BoundCache.stats_snapshot`: reporting
        reads a shared cache's counters through this method so the snapshot
        never tears across a concurrent worker's update.
        """
        with self._lock:
            return self.stats.as_dict()

    def export_entries(self) -> list:
        """Snapshot of every ``(key, optimum)`` pair in LRU order (oldest first).

        The counterpart of :meth:`import_entries`; optima are immutable, so
        the snapshot shares them with the live cache safely.
        """
        with self._lock:
            return list(self._store.items())

    def import_entries(self, items) -> int:
        """Insert exported ``(key, optimum)`` pairs, preserving their order.

        Restored entries leave the hit/miss/solve counters untouched (a
        rebuilt cache starts with fresh stats); inserting beyond capacity
        evicts oldest-first exactly like regular puts.  Returns the number
        of entries inserted.
        """
        with self._lock:
            for key, value in items:
                if key in self._store:
                    self._store.move_to_end(key)
                self._store[key] = value
                while len(self._store) > self.max_entries:
                    self._store.popitem(last=False)
                    self.stats.evictions += 1
            return len(self._store)

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
