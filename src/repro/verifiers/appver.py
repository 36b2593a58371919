"""The ``AppVer`` oracle used by every BaB-style verifier in the library.

An approximated verifier, applied to a (sub-)problem, returns (§III):

* ``p̂`` — a sound lower bound of the specification margin over the
  sub-problem (positive means the sub-problem is verified);
* ``x̂`` — a candidate counterexample, only meaningful when ``p̂ < 0``;
* whether ``x̂`` is *valid*, i.e. a real counterexample of the original
  problem (``valid(x̂)`` in Def. 1 / Alg. 1).

This module wraps the bound-propagation analysers of :mod:`repro.bounds`
behind that interface and counts calls, which is how all verifiers charge
their node budgets.

Three throughput features back the hot path (see ``docs/BATCHING.md``):

* :meth:`ApproximateVerifier.evaluate_batch` bounds ``B`` sub-problems in
  one batched pass for every back-end — DeepPoly and IBP via a leading
  batch axis through the backward substitution, α-CROWN via stacked
  exact-gradient slope ascent.  The frontier-wide drivers feed it the phase-split
  children of up to ``frontier_size`` nodes at once, and the realised batch
  sizes are recorded in :attr:`ApproximateVerifier.batch_histogram`.
  :meth:`ApproximateVerifier.evaluate` runs the same kernels at ``B = 1``;
* a split-aware :class:`~repro.bounds.cache.BoundCache` (on by default)
  memoises per-layer pre-activation bounds keyed by the split-assignment
  prefix relevant to each layer, plus whole reports keyed by the full
  canonical assignment, so a child sub-problem only recomputes layers
  at-or-below its newly decided neuron;
* **incremental parent-pass reuse** (``incremental=True``, the default):
  when the caller threads each child's BaB parent through ``parent=`` /
  ``parents=``, the DeepPoly back-end derives the child's split layer from
  the parent's memoised substitution entry with a rank-1 correction
  (skipping that layer's whole backward substitution), the α-CROWN back-end
  warm-starts its slope ascent from the parent's optimised slopes, and
  candidate-counterexample validation memoises the network forward pass per
  distinct candidate corner (phase-split children overwhelmingly share
  their parent's corner).  The DeepPoly reuse is exact — results are
  identical to the non-incremental path (bit-for-bit at ``B = 1``; in
  larger batches up to the sub-1e-9 GEMM noise between rows of different
  batches).  The α-CROWN warm start is sound
  but moves the slope ascent's starting point, so optimised bounds may
  differ from the cold-start path.

The per-phase time breakdown (``substitute`` / ``correct`` / ``concretize``
and the sources' ``lp``) accumulates in :attr:`ApproximateVerifier.timings`
and is surfaced by the verifiers as ``extras["timings"]``.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.bounds.alpha_crown import AlphaCrownAnalyzer, AlphaCrownConfig
from repro.bounds.cache import DEFAULT_CACHE_SIZE, BoundCache, CacheStats
from repro.bounds.deeppoly import DeepPolyAnalyzer
from repro.bounds.interval import interval_bounds, interval_bounds_batch
from repro.bounds.report import BoundReport
from repro.bounds.splits import ACTIVE, INACTIVE, SplitAssignment
from repro.nn.network import Network
from repro.specs.properties import Specification
from repro.utils.timing import Budget, PhaseTimings
from repro.utils.validation import require

#: Capacity of the candidate-validation memo (distinct candidate corners).
DEFAULT_CANDIDATE_CACHE_SIZE = 2048

#: Supported bound-propagation back-ends.
BOUND_METHODS = ("deeppoly", "alpha-crown", "ibp")


def affordable_phases(budget: Budget, planned: int = 0) -> tuple:
    """The phase-split children a node budget still pays for.

    Mirrors the sequential per-child exhaustion check of the BaB drivers:
    no children once the budget is spent, only the ``r+`` child when a
    single node charge remains, both otherwise.  Wall-clock exhaustion is
    re-checked by the drivers between the children they process.

    ``planned`` is the number of node charges a frontier driver has already
    committed (but not yet charged) for earlier leaves of the same batched
    expansion; with ``planned=0`` this is exactly the sequential rule.  The
    per-child budget semantics are therefore identical whether children are
    expanded one node at a time or frontier-wide.
    """
    if budget.exhausted():
        return ()
    remaining = budget.remaining_nodes()
    if remaining is None:
        return (ACTIVE, INACTIVE)
    left = remaining - planned
    if left < 1:
        return ()
    if left < 2:
        return (ACTIVE,)
    return (ACTIVE, INACTIVE)


@dataclass
class AppVerOutcome:
    """One AppVer evaluation of a sub-problem."""

    p_hat: float
    candidate: Optional[np.ndarray]
    is_valid_counterexample: bool
    report: BoundReport

    @property
    def verified(self) -> bool:
        """The sub-problem is proven to satisfy the specification."""
        return self.p_hat > 0.0

    @property
    def falsified(self) -> bool:
        """A real counterexample of the original problem was found."""
        return self.p_hat < 0.0 and self.is_valid_counterexample

    @property
    def needs_split(self) -> bool:
        """``p̂ < 0`` with only a spurious counterexample: a false alarm."""
        return not self.verified and not self.falsified


def _require_finite_root(report: BoundReport) -> None:
    """Refuse a root analysis whose bounds overflowed.

    An extreme but finite input box (``±1e308``) overflows the bound
    arithmetic to ``inf − inf = NaN``.  A NaN bound proves nothing — it is
    neither an empty region nor ``p̂ ≥ 0`` — and every sub-problem inherits
    the root's overflow, so the problem is rejected with ``ValueError``
    before any verdict is drawn from it.
    """
    bounds = list(report.pre_activation_bounds) + [report.output_bounds]
    finite = (report.p_hat is None or bool(np.isfinite(report.p_hat))) and all(
        np.isfinite(b.lower).all() and np.isfinite(b.upper).all() for b in bounds)
    require(finite, "the root bounds are not finite: the input box or the "
                    "network's values overflow float64")


class ApproximateVerifier:
    """AppVer for a fixed network and specification.

    Parameters
    ----------
    network:
        The network under verification.
    spec:
        The verification problem ``(Φ, Ψ)``.
    method:
        One of ``"deeppoly"`` (default), ``"alpha-crown"`` or ``"ibp"``.
    alpha_config:
        Optional α-CROWN optimiser configuration (only used by that method).
    use_cache:
        Enable the split-aware bound cache for the DeepPoly back-end.
        Caching never changes results: a hit returns exactly the bounds the
        analyser would recompute for the same (sub-)problem.
    cache_size:
        Maximum number of cache entries (LRU eviction beyond that).
    incremental:
        Honour parent identity threaded through ``parent=`` / ``parents=``:
        rank-1 split corrections against the parent's substitution entry
        (DeepPoly), parent-slope warm starts (α-CROWN) and the
        candidate-validation memo.  Off, parent arguments are ignored and
        every evaluation runs the full PR-3 path — DeepPoly results are
        identical either way; α-CROWN warm starts change where the slope
        ascent begins (sound, possibly different optimised bounds).
    bound_cache:
        Optional externally owned :class:`~repro.bounds.cache.BoundCache`
        used instead of creating a fresh one — this is how the verification
        service shares bound work *across* jobs on the same problem.  The
        cache's soundness contract is the caller's responsibility: entries
        are only valid for one fixed ``(network, input box, output spec)``
        triple, so a shared instance must be scoped by problem fingerprint
        (the service's per-fingerprint cache bundles guarantee exactly
        that).  Ignored when ``use_cache`` is false.
    """

    def __init__(self, network: Network, spec: Specification, method: str = "deeppoly",
                 alpha_config: Optional[AlphaCrownConfig] = None,
                 use_cache: bool = True, cache_size: int = DEFAULT_CACHE_SIZE,
                 incremental: bool = True,
                 bound_cache: Optional[BoundCache] = None) -> None:
        require(method in BOUND_METHODS,
                f"unknown bound method {method!r}; choose one of {BOUND_METHODS}")
        self.network = network
        self.spec = spec
        self.method = method
        self.lowered = network.lowered()
        require(self.lowered.input_dim == spec.input_dim,
                "specification input dimension does not match the network")
        require(self.lowered.output_dim == spec.output_dim,
                "specification output dimension does not match the network")
        self._deeppoly = DeepPolyAnalyzer(self.lowered)
        self._alpha = AlphaCrownAnalyzer(self.lowered, alpha_config)
        if not use_cache:
            self.cache: Optional[BoundCache] = None
        elif bound_cache is not None:
            self.cache = bound_cache
        else:
            self.cache = BoundCache(cache_size)
        self.incremental = bool(incremental)
        self.num_calls = 0
        #: Realised ``evaluate_batch`` sizes: ``{batch_size: call_count}``.
        self.batch_histogram: Counter = Counter()
        #: Per-phase wall-clock breakdown of the bound/LP hot path.
        self.timings = PhaseTimings()
        self._candidate_cache: "OrderedDict[bytes, bool]" = OrderedDict()
        self._fresh_keys: set = set()
        self.candidate_hits = 0
        self.candidate_misses = 0

    @property
    def num_relu_neurons(self) -> int:
        """The constant ``K`` of Def. 1."""
        return self.lowered.num_relu_neurons

    def _validate_candidate(self, candidate: np.ndarray) -> bool:
        """Whether a candidate is a real counterexample, memoised per corner.

        Candidates are box corners determined by coefficient signs, so the
        phase-split children of one frontier round overwhelmingly share
        their parent's corner; validating a corner costs a full network
        forward pass, and the validation is a pure function of the input
        bytes, so memoising it is exact.  Only consulted in incremental
        mode so the non-incremental path stays byte-for-byte PR-3.
        """
        if not self.incremental:
            return self.spec.is_counterexample(self.network, candidate)
        key = candidate.tobytes()
        cached = self._candidate_cache.get(key)
        if cached is not None:
            self._candidate_cache.move_to_end(key)
            if key in self._fresh_keys:
                # First lookup after prevalidation: the miss was already
                # counted there; only later lookups are genuine reuse.
                self._fresh_keys.discard(key)
            else:
                self.candidate_hits += 1
            return cached
        self.candidate_misses += 1
        valid = self.spec.is_counterexample(self.network, candidate)
        self._remember_candidate(key, valid)
        return valid

    def _remember_candidate(self, key: bytes, valid: bool) -> None:
        self._candidate_cache[key] = valid
        while len(self._candidate_cache) > DEFAULT_CANDIDATE_CACHE_SIZE:
            self._candidate_cache.popitem(last=False)

    def _prevalidate_candidates(self, reports: Sequence[BoundReport]) -> None:
        """Validate a round's distinct unseen candidates in one forward pass.

        Each validation is a full network forward; a frontier round yields
        up to ``2K`` candidates of which only a handful of corners are
        distinct and unseen, so one stacked
        :meth:`~repro.specs.properties.Specification.is_counterexample_batch`
        call replaces one pass per candidate.  Incremental mode only — the
        non-incremental path keeps the sequential PR-3 behaviour.  Each
        fresh corner is counted as one miss here and its first follow-up
        lookup is *not* counted as a hit (``_fresh_keys``), so the hit
        counter reports genuine reuse only.
        """
        fresh = {}
        for report in reports:
            candidate = report.candidate_input
            if (candidate is None or report.p_hat is None
                    or not report.p_hat < 0.0):
                continue
            key = candidate.tobytes()
            if key not in self._candidate_cache and key not in fresh:
                fresh[key] = candidate
        if not fresh:
            return
        points = np.stack([np.asarray(c, dtype=float).reshape(-1)
                           for c in fresh.values()])
        valid = self.spec.is_counterexample_batch(self.network, points)
        for position, key in enumerate(fresh):
            self.candidate_misses += 1
            self._fresh_keys.add(key)
            self._remember_candidate(key, bool(valid[position]))

    def _outcome_from_report(self, report: BoundReport) -> AppVerOutcome:
        candidate = report.candidate_input
        valid = False
        if candidate is not None and report.p_hat is not None and report.p_hat < 0.0:
            valid = self._validate_candidate(candidate)
        p_hat = float(report.p_hat) if report.p_hat is not None else float("-inf")
        return AppVerOutcome(p_hat=p_hat, candidate=candidate,
                             is_valid_counterexample=valid, report=report)

    def evaluate(self, splits: Optional[SplitAssignment] = None,
                 method: Optional[str] = None,
                 parent: Optional[SplitAssignment] = None) -> AppVerOutcome:
        """Apply the approximated verifier to the sub-problem ``splits``.

        The back-end's batched kernel at ``B = 1``, through its own
        single-sub-problem entry point: charged as one call and not recorded
        as a realised batch in :attr:`batch_histogram`.  ``parent``
        optionally names the sub-problem's BaB parent; with the incremental
        mode on, a one-split child reuses the parent's memoised pass (see
        the module docstring) — results are unchanged.
        """
        splits = splits or SplitAssignment.empty()
        method = method or self.method
        require(method in BOUND_METHODS, f"unknown bound method {method!r}")
        self.num_calls += 1
        if not self.incremental:
            parent = None
        if method == "ibp":
            report = interval_bounds(self.lowered, self.spec.input_box,
                                     splits=splits, spec=self.spec.output_spec)
        elif method == "alpha-crown":
            report = self._alpha.analyze(self.spec.input_box, splits=splits,
                                         spec=self.spec.output_spec,
                                         parent=parent)
        else:
            report = self._deeppoly.analyze(self.spec.input_box, splits=splits,
                                            spec=self.spec.output_spec,
                                            cache=self.cache, parent=parent,
                                            timings=self.timings)
        if not splits:
            _require_finite_root(report)
        return self._outcome_from_report(report)

    def evaluate_batch(self, splits_list: Sequence[Optional[SplitAssignment]],
                       method: Optional[str] = None,
                       parents: Optional[Sequence[Optional[SplitAssignment]]] = None
                       ) -> List[AppVerOutcome]:
        """Apply the approximated verifier to ``B`` sub-problems at once.

        Returns one :class:`AppVerOutcome` per entry of ``splits_list``, in
        order, equal (to floating-point noise far below 1e-9) to what ``B``
        :meth:`evaluate` calls would return; each sub-problem is charged one
        call.  All three back-ends run genuinely batched: DeepPoly and IBP
        carry a leading batch axis through one backward pass, and α-CROWN
        runs its slope ascent for all ``B`` sub-problems at once (stacked
        DeepPoly passes and adjoints, per-row gradient steps — see
        :meth:`~repro.bounds.alpha_crown.AlphaCrownAnalyzer.analyze_batch`).
        The realised batch size is recorded in :attr:`batch_histogram`.

        ``parents`` (index-aligned with ``splits_list``, ``None`` entries
        allowed) threads each sub-problem's BaB parent for the incremental
        reuse paths; ignored when ``incremental`` is off.
        """
        method = method or self.method
        require(method in BOUND_METHODS, f"unknown bound method {method!r}")
        splits_list = [s or SplitAssignment.empty() for s in splits_list]
        self.num_calls += len(splits_list)
        if not splits_list:
            return []
        self.batch_histogram[len(splits_list)] += 1
        if not self.incremental:
            parents = None
        if method == "ibp":
            reports = interval_bounds_batch(self.lowered, self.spec.input_box,
                                            splits_list, spec=self.spec.output_spec)
        elif method == "alpha-crown":
            reports = self._alpha.analyze_batch(self.spec.input_box, splits_list,
                                                spec=self.spec.output_spec,
                                                parents=parents)
        else:
            reports = self._deeppoly.analyze_batch(self.spec.input_box, splits_list,
                                                   spec=self.spec.output_spec,
                                                   cache=self.cache,
                                                   parents=parents,
                                                   timings=self.timings)
        if self.incremental and len(reports) > 1:
            self._prevalidate_candidates(reports)
        return [self._outcome_from_report(report) for report in reports]

    def cache_stats(self) -> dict:
        """Cache hit/miss counters plus the realised batch-size statistics.

        The cache counters are zero when caching is off.  ``batch_histogram``
        maps each realised :meth:`evaluate_batch` size to how many calls used
        it, and ``mean_realised_batch`` is the mean batch size over those
        calls (0.0 before any batched call) — this is how frontier drivers
        make the batch sizes they actually achieve observable.
        """
        stats = (self.cache.stats if self.cache is not None
                 else CacheStats()).as_dict()
        stats["candidate_hits"] = self.candidate_hits
        stats["candidate_misses"] = self.candidate_misses
        stats["alpha_warm_starts"] = self._alpha.warm_starts
        stats.update(self.batch_stats())
        return stats

    def batch_stats(self) -> dict:
        """Histogram and mean of realised :meth:`evaluate_batch` sizes."""
        calls = sum(self.batch_histogram.values())
        total = sum(size * count for size, count in self.batch_histogram.items())
        return {
            "batch_histogram": {int(size): int(count) for size, count
                                in sorted(self.batch_histogram.items())},
            "batched_calls": calls,
            "mean_realised_batch": (total / calls) if calls else 0.0,
        }

    def reset_counter(self) -> None:
        """Zero the AppVer call counter (between benchmark phases)."""
        self.num_calls = 0
