"""Fingerprint-scoped cache bundles shared across service requests.

Cache soundness in this codebase rests on one invariant: a
:class:`~repro.bounds.cache.BoundCache` or the split-assignment keys of an
:class:`~repro.bounds.cache.LpCache` are only meaningful for a fixed
``(network, input box, output spec)`` triple.  The service therefore keys
*all* cross-request reuse by :func:`~repro.verifiers.milp.problem_fingerprint`:

* jobs with the **same** fingerprint share one :class:`CacheBundle` — their
  leaf-LP optima and split-aware bound entries are interchangeable facts, so
  a repeated request warm-starts from everything its predecessors computed;
* jobs with **different** fingerprints get disjoint bundles and can never
  observe one another's entries, by construction rather than by key
  discipline inside a shared store.

The pool also keeps a *warm-model* cache: the per-network weight digest that
prefixes every fingerprint.  ``Network.lowered()`` already memoises the
lowering per instance; the pool adds the digest memo (weakly keyed, so the
pool never keeps a network alive) and thereby makes fingerprinting a
many-property workload — a robustness sweep, a batch of labels on one model
— cost one weight hash total instead of one per property.

Threads
-------
The pool takes no locks: the service calls into it (fingerprinting on
submit, bundle lookup per slice, quarantine on failure, adopting worker
bundles at shutdown) only from the thread that drives it, and worker
processes hold their own copies of the bundles.

Persistence
-----------
:meth:`CacheBundle.save` / :meth:`CacheBundle.load` serialise a bundle's
LP and bound entries to disk (a versioned pickle payload stamped with the
fingerprint), so warm caches survive process restarts;
:meth:`FingerprintCachePool.save_bundles` / :meth:`~FingerprintCachePool.load_bundles`
persist and restore a whole pool directory.  Loaded caches keep their
entries but start with fresh counters — hits observed after a restore are
genuine warm-path reuse.  The payload is a pickle: only load bundle files
you (or a process you trust) wrote.
"""

from __future__ import annotations

import os
import pickle
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.bounds.cache import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_LP_CACHE_SIZE,
    BoundCache,
    LpCache,
)
from repro.nn.network import Network
from repro.specs.properties import Specification
from repro.utils.validation import require
from repro.verifiers.milp import network_weights_digest, problem_fingerprint

#: Version stamp of the on-disk cache-bundle payload.  Bump it whenever the
#: entry layout (cache keys, ``BoundReport``/``RowOptimum`` fields)
#: changes incompatibly; :meth:`CacheBundle.load` refuses other versions.
#: Format 3 keys bound reports by their search path and drops layer entries;
#: format 4 stores a report's hidden bounds as one flat row and drops the
#: output bounds of spec-given reports; format 5 keys leaf-LP optima by
#: ``(fingerprint, phase-row bytes)``; format 6 keys bound reports by their
#: path alone and drops every report's output-bounds field.
BUNDLE_FORMAT = 6

#: Marker distinguishing bundle files from arbitrary pickles.
_BUNDLE_KIND = "repro-cache-bundle"

#: File suffix used by the pool-level persistence helpers.
BUNDLE_SUFFIX = ".cachebundle"


@dataclass
class CacheBundle:
    """The shared, fingerprint-scoped caches of one verification problem."""

    fingerprint: str
    lp_cache: LpCache = field(default_factory=LpCache)
    bound_cache: BoundCache = field(default_factory=BoundCache)

    def __post_init__(self) -> None:
        # Every run on this bundle solves this bundle's problem, so its LP
        # cache carries the fingerprint and runs skip hashing the weights.
        self.lp_cache.fingerprint = self.fingerprint

    def stats_snapshot(self) -> Dict[str, int]:
        """Flat counter snapshot (``lp_*`` / ``bound_*``) for delta accounting.

        Only integer counters are included — derived ratios like
        ``hit_rate`` do not difference meaningfully.
        """
        snapshot: Dict[str, int] = {}
        for prefix, stats in (("lp", self.lp_cache.stats_snapshot()),
                              ("bound", self.bound_cache.stats_snapshot())):
            for key, value in stats.items():
                if isinstance(value, int):
                    snapshot[f"{prefix}_{key}"] = value
        return snapshot

    @staticmethod
    def stats_delta(before: Dict[str, int],
                    after: Dict[str, int]) -> Dict[str, int]:
        """Per-job counter increments between two snapshots."""
        return {key: after[key] - before.get(key, 0) for key in after}

    # -- persistence -----------------------------------------------------------
    def to_payload(self) -> dict:
        """The versioned handover payload of this bundle.

        The exact structure :meth:`save` pickles to disk — the process
        transport sends the same payload over a worker pipe, so on-disk
        bundles and live worker handovers share one format (and one
        validator, :meth:`from_payload`).
        """
        return {
            "kind": _BUNDLE_KIND,
            "format": BUNDLE_FORMAT,
            "fingerprint": self.fingerprint,
            "lp_max_entries": self.lp_cache.max_entries,
            "bound_max_entries": self.bound_cache.max_entries,
            "lp_entries": self.lp_cache.export_entries(),
            "bound_entries": self.bound_cache.export_entries(),
        }

    @classmethod
    def from_payload(cls, payload: object,
                     expected_fingerprint: Optional[str] = None,
                     lp_cache_size: Optional[int] = None,
                     bound_cache_size: Optional[int] = None,
                     source: str = "payload") -> "CacheBundle":
        """Rebuild a bundle from a :meth:`to_payload` dict, validating it.

        Checks the payload kind, format version and (when
        ``expected_fingerprint`` is given) the fingerprint — a bundle must
        never warm-start a *different* verification problem.  Cache
        capacities default to the saved ones; passing smaller sizes simply
        evicts the oldest entries on import.  Restored caches start with
        fresh (zero) counters.  Raises :class:`ValueError` for anything
        that is not a healthy bundle payload; ``source`` names the payload's
        origin (a path, a worker) in those errors.
        """
        if not isinstance(payload, dict) or payload.get("kind") != _BUNDLE_KIND:
            raise ValueError(f"not a cache-bundle payload: {source}")
        if payload.get("format") != BUNDLE_FORMAT:
            raise ValueError(
                f"unsupported cache-bundle format {payload.get('format')!r} "
                f"(expected {BUNDLE_FORMAT}): {source}")
        fingerprint = payload["fingerprint"]
        if (expected_fingerprint is not None
                and fingerprint != expected_fingerprint):
            raise ValueError(
                f"cache bundle {source} belongs to fingerprint "
                f"{fingerprint[:12]}…, not {expected_fingerprint[:12]}…")
        lp_cache = LpCache(lp_cache_size if lp_cache_size is not None
                           else payload["lp_max_entries"])
        bound_cache = BoundCache(bound_cache_size
                                 if bound_cache_size is not None
                                 else payload["bound_max_entries"])
        lp_cache.import_entries(payload["lp_entries"])
        bound_cache.import_entries(payload["bound_entries"])
        return cls(fingerprint, lp_cache=lp_cache, bound_cache=bound_cache)

    def save(self, path: Union[str, Path]) -> Path:
        """Serialise this bundle's cache entries to ``path`` (atomically).

        The payload is a versioned pickle carrying the fingerprint, both
        caches' capacities and their entries in LRU order; the write goes
        through a temp file + ``os.replace`` so a crash never leaves a
        truncated bundle behind.  Returns the written path.
        """
        path = Path(path)
        payload = self.to_payload()
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as handle:
            pickle.dump(payload, handle, protocol=4)
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: Union[str, Path],
             expected_fingerprint: Optional[str] = None,
             lp_cache_size: Optional[int] = None,
             bound_cache_size: Optional[int] = None) -> "CacheBundle":
        """Rebuild a bundle from a :meth:`save` file.

        Reads the pickled payload and delegates every structural check to
        :meth:`from_payload` — see there for the validation contract.
        Raises :class:`ValueError` for anything that is not a healthy
        bundle file.
        """
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except OSError:
            raise
        except Exception as exc:  # noqa: BLE001 - any unpickling failure
            raise ValueError(f"not a cache-bundle file: {path}") from exc
        return cls.from_payload(payload, expected_fingerprint,
                                lp_cache_size, bound_cache_size,
                                source=str(path))


class FingerprintCachePool:
    """Bundles per problem fingerprint, plus the warm-model digest memo."""

    def __init__(self, lp_cache_size: int = DEFAULT_LP_CACHE_SIZE,
                 bound_cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        self.lp_cache_size = int(lp_cache_size)
        self.bound_cache_size = int(bound_cache_size)
        self._bundles: Dict[str, CacheBundle] = {}
        self._digests: "weakref.WeakKeyDictionary[Network, str]" = (
            weakref.WeakKeyDictionary())
        self.model_cache_hits = 0
        self.model_cache_misses = 0

    # -- fingerprinting --------------------------------------------------------
    def fingerprint_for(self, network: Network, spec: Specification) -> str:
        """The problem fingerprint of ``(network, spec)``, digest-memoised."""
        lowered = network.lowered()  # memoised on the network instance
        digest = self._digests.get(network)
        if digest is None:
            self.model_cache_misses += 1
            digest = self._digests[network] = network_weights_digest(lowered)
        else:
            self.model_cache_hits += 1
        return problem_fingerprint(lowered, spec.input_box, spec.output_spec,
                                   weights_digest=digest)

    # -- bundle management -----------------------------------------------------
    def bundle(self, fingerprint: str) -> CacheBundle:
        """The (created-on-demand) cache bundle of one fingerprint."""
        found = self._bundles.get(fingerprint)
        if found is None:
            found = self._bundles[fingerprint] = CacheBundle(
                fingerprint,
                lp_cache=LpCache(self.lp_cache_size),
                bound_cache=BoundCache(self.bound_cache_size))
        return found

    def adopt_payload(self, payload: object, source: str = "worker") -> str:
        """Import a :meth:`CacheBundle.to_payload` dict into the pool.

        The worker-handover counterpart of :meth:`load_bundles`: a process
        transport shutting down collects each worker's warm bundles over the
        pipe and adopts them here, replacing any same-fingerprint bundle
        (the worker's copy is strictly warmer — the pool stopped seeing its
        traffic at handover).  Capacities follow the pool's configuration.
        Returns the adopted fingerprint; raises :class:`ValueError` on a
        malformed payload.
        """
        bundle = CacheBundle.from_payload(payload,
                                          lp_cache_size=self.lp_cache_size,
                                          bound_cache_size=self.bound_cache_size,
                                          source=source)
        self._bundles[bundle.fingerprint] = bundle
        return bundle.fingerprint

    def discard(self, fingerprint: str) -> bool:
        """Quarantine a fingerprint: drop its bundle (recreated cold on demand).

        Called when a job using the bundle failed — a mid-round exception
        may have been *caused* by a poisoned entry, and entries are cheap to
        recompute, so the service trades warm caches for certain isolation.
        Returns whether a bundle existed.
        """
        return self._bundles.pop(fingerprint, None) is not None

    def __len__(self) -> int:
        return len(self._bundles)

    def stats(self) -> dict:
        """Pool-level counters plus per-fingerprint cache stats."""
        return {
            "fingerprints": len(self._bundles),
            "model_cache_hits": self.model_cache_hits,
            "model_cache_misses": self.model_cache_misses,
            "bundles": {fp: bundle.stats_snapshot()
                        for fp, bundle in self._bundles.items()},
        }

    # -- persistence -----------------------------------------------------------
    def save_bundles(self, directory: Union[str, Path]) -> List[Path]:
        """Save every bundle to ``directory/<fingerprint>.cachebundle``.

        Returns the written paths (sorted by fingerprint, so directory
        listings are stable).
        """
        bundles = sorted(self._bundles.values(),
                         key=lambda bundle: bundle.fingerprint)
        directory = Path(directory)
        return [bundle.save(directory / f"{bundle.fingerprint}{BUNDLE_SUFFIX}")
                for bundle in bundles]

    def load_bundles(self, directory: Union[str, Path]) -> int:
        """Restore every ``*.cachebundle`` file under ``directory``.

        Loaded bundles replace same-fingerprint bundles already in the pool
        (the restart scenario: the pool is cold) and adopt the pool's
        configured cache capacities.  Returns the number of bundles
        restored; raises :class:`ValueError` on a corrupt or alien file.

        Stale ``*.tmp`` files — the residue of a :meth:`CacheBundle.save`
        interrupted between opening its temp file and the atomic
        ``os.replace`` — are ignored and deleted: they are never valid
        bundles (truncated at best) and a crash-restart loop must not
        accumulate them.
        """
        loaded = 0
        directory = Path(directory)
        for stale in sorted(directory.glob(f"*{BUNDLE_SUFFIX}.tmp")):
            try:
                stale.unlink()
            except OSError:
                pass  # a racing writer re-created it; their os.replace wins
        for path in sorted(directory.glob(f"*{BUNDLE_SUFFIX}")):
            bundle = CacheBundle.load(path,
                                      lp_cache_size=self.lp_cache_size,
                                      bound_cache_size=self.bound_cache_size)
            require(path.name == f"{bundle.fingerprint}{BUNDLE_SUFFIX}",
                    f"bundle file {path.name} does not match its fingerprint")
            self._bundles[bundle.fingerprint] = bundle
            loaded += 1
        return loaded
