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

Four throughput features back the hot path (see ``docs/BATCHING.md``):

* :meth:`ApproximateVerifier.evaluate_batch` bounds ``B`` sub-problems in
  one batched pass for both back-ends — DeepPoly via a leading batch axis
  through the backward substitution, α-CROWN via stacked exact-gradient
  slope ascent.  The frontier-wide drivers feed it the phase-split
  children of up to ``frontier_size`` nodes at once, and the realised batch
  sizes are recorded in :attr:`ApproximateVerifier.batch_histogram`.
  :meth:`ApproximateVerifier.evaluate` runs the same kernels at ``B = 1``;
* **reference bounds**: the frontier drivers pass each child's parent as
  ``(parent report, split)`` through ``parent=`` / ``parents=``, and the
  DeepPoly back-end re-bounds only the neurons unstable in the parent,
  intersects them with the parent's intervals and keeps the parent's
  interval everywhere else (see :mod:`repro.bounds.deeppoly`).  A child's
  bounds are therefore never looser than its parent's, and a pass costs
  only the parent-unstable rows above the split layer;
* a :class:`~repro.bounds.cache.BoundCache` (on by default) memoises whole
  reports keyed by their search path, so a repeated sub-problem (an FSB
  probe followed by the real expansion, or a job replayed on a shared
  cache) is free;
* **incremental reuse** (``incremental=True``, the default): the α-CROWN
  back-end warm-starts its slope ascent from the parent's optimised slopes,
  and candidate-counterexample validation memoises the network forward pass
  per distinct candidate corner (phase-split children overwhelmingly share
  their parent's corner).  The memo is exact, and the DeepPoly reference
  bounds do not depend on the flag, so DeepPoly verdicts, charges and
  counterexamples are bit-identical either way.  The α-CROWN warm start is
  sound but moves the slope ascent's starting point, so optimised bounds
  may differ from the cold-start path.

AppVer records no timing: the frontier driver times each round's
``evaluate_batch`` call, candidate validation included, as its ``bound``
stage (see :mod:`repro.engine.driver`).
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.bounds.alpha_crown import AlphaCrownAnalyzer, AlphaCrownConfig
from repro.bounds.cache import DEFAULT_CACHE_SIZE, BoundCache, CacheStats
from repro.bounds.deeppoly import DeepPolyAnalyzer
from repro.bounds.report import BoundReport, Parent
from repro.bounds.splits import ACTIVE, INACTIVE, SplitAssignment
from repro.nn.network import Network
from repro.specs.properties import Specification
from repro.utils.timing import Budget
from repro.utils.validation import require

#: Capacity of the candidate-validation memo (distinct candidate corners).
DEFAULT_CANDIDATE_CACHE_SIZE = 2048

#: Supported bound-propagation back-ends.
BOUND_METHODS = ("deeppoly", "alpha-crown")


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
    candidate: np.ndarray
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
    before any verdict is drawn from it.  Checked: the hidden bounds, the
    spec rows and ``p̂``.
    """
    arrays = [report.hidden_bounds.lower, report.hidden_bounds.upper,
              report.spec_row_lower]
    finite = bool(np.isfinite(report.p_hat)) and all(
        np.isfinite(values).all() for values in arrays)
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
        One of ``"deeppoly"`` (default) or ``"alpha-crown"``.
    alpha_config:
        Optional α-CROWN optimiser configuration (only used by that method).
    use_cache:
        Enable the report cache for the DeepPoly back-end.  Caching never
        changes results: a hit returns the report of the same search path.
    cache_size:
        Maximum number of cache entries (LRU eviction beyond that).
    incremental:
        Warm-start α-CROWN from the parent's slopes and memoise candidate
        validation.  DeepPoly bounds children against their parents either
        way, so its verdicts, charges and counterexamples do not depend on
        the flag; α-CROWN warm starts change where the slope ascent begins
        (sound, possibly different optimised bounds).
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
        #: The network's empty split assignment: every run's root.
        self.root_splits = self._deeppoly.root_splits
        self._alpha = (AlphaCrownAnalyzer(self.lowered, alpha_config)
                       if method == "alpha-crown" else None)
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
            if not report.p_hat < 0.0:
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
        valid = report.p_hat < 0.0 and self._validate_candidate(candidate)
        return AppVerOutcome(p_hat=float(report.p_hat), candidate=candidate,
                             is_valid_counterexample=valid, report=report)

    def evaluate(self, splits: Optional[SplitAssignment] = None,
                 parent: Optional[Parent] = None) -> AppVerOutcome:
        """Apply the approximated verifier to the sub-problem ``splits``.

        The back-end's batched kernel at ``B = 1``, through its own
        single-sub-problem entry point: charged as one call and not recorded
        as a realised batch in :attr:`batch_histogram`.  ``parent``
        optionally gives the sub-problem's ``(parent report, split)``; the
        DeepPoly back-end then bounds it against the parent's report (see
        the module docstring).
        """
        self.num_calls += 1
        if self.method == "alpha-crown":
            report = self._alpha.analyze(self.spec.input_box, splits=splits,
                                         spec=self.spec.output_spec,
                                         parent=parent if self.incremental else None)
        else:
            report = self._deeppoly.analyze(self.spec.input_box, splits=splits,
                                            spec=self.spec.output_spec,
                                            cache=self.cache, parent=parent)
        if not splits:
            _require_finite_root(report)
        return self._outcome_from_report(report)

    def evaluate_batch(self, splits_list: Sequence[Optional[SplitAssignment]],
                       parents: Optional[Sequence[Optional[Parent]]] = None
                       ) -> List[AppVerOutcome]:
        """Apply the approximated verifier to ``B`` sub-problems at once.

        Returns one :class:`AppVerOutcome` per entry of ``splits_list``, in
        order, equal (to floating-point noise far below 1e-9) to what ``B``
        :meth:`evaluate` calls would return; each sub-problem is charged one
        call.  Both back-ends run genuinely batched: DeepPoly carries a
        leading batch axis through one backward pass, and α-CROWN
        runs its slope ascent for all ``B`` sub-problems at once (stacked
        DeepPoly passes and adjoints, per-row gradient steps — see
        :meth:`~repro.bounds.alpha_crown.AlphaCrownAnalyzer.analyze_batch`).
        The realised batch size is recorded in :attr:`batch_histogram`.

        ``parents`` (index-aligned with ``splits_list``, ``None`` entries
        allowed) gives each sub-problem's ``(parent report, split)``.
        """
        self.num_calls += len(splits_list)
        if not splits_list:
            return []
        self.batch_histogram[len(splits_list)] += 1
        if self.method == "alpha-crown":
            reports = self._alpha.analyze_batch(
                self.spec.input_box, splits_list, spec=self.spec.output_spec,
                parents=parents if self.incremental else None)
        else:
            reports = self._deeppoly.analyze_batch(
                self.spec.input_box, splits_list, spec=self.spec.output_spec,
                cache=self.cache, parents=parents)
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
        stats["alpha_warm_starts"] = self._alpha.warm_starts if self._alpha is not None else 0
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
