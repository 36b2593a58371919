"""α-CROWN: DeepPoly/CROWN bounds with optimised unstable lower slopes.

CROWN's lower-bound quality depends on the slope chosen for the lower
relaxation of every unstable ReLU.  α-CROWN (Xu et al., adopted by the
αβ-CROWN tool the paper compares against) treats those slopes as free
parameters in ``[0, 1]`` and optimises them to maximise the specification
lower bound ``p̂``.

The original implementation differentiates through the bound computation
with PyTorch autograd.  This numpy reproduction instead uses SPSA
(simultaneous-perturbation stochastic approximation): each iteration
estimates the gradient of ``p̂`` with two bound evaluations under a random
±δ perturbation of all slopes, then takes a projected ascent step.  On the
laptop-scale networks used here a handful of iterations recovers most of the
gap between DeepPoly and the fully optimised bound, which is what matters
for the baseline comparison.

:meth:`AlphaCrownAnalyzer.analyze_batch` runs the optimisation for ``B``
sub-problems at once and :meth:`AlphaCrownAnalyzer.analyze` is the same
optimisation at ``B = 1``.  Every sub-problem sees the *same* ±1
perturbation direction sequence (the RNG is seeded per call), so one
shared draw per iteration serves the whole batch and all perturbed
objectives evaluate through one stacked DeepPoly pass
(:meth:`~repro.bounds.deeppoly.DeepPolyAnalyzer.analyze_batch` with batched
``lower_slopes``).  Ascent steps and best-so-far tracking are per-element,
so a row's result does not depend on the other rows beyond batched-matmul
float noise.

**Parent warm start.**  When the caller threads BaB parent identity
(``parent=`` / ``parents=``), a phase-split child starts its SPSA ascent
from the *parent's optimised slopes* — with the newly decided neuron's
slope swapped to the exact identity/zero value its phase imposes — instead
of re-deriving ``default_lower_slope`` heuristics through an extra
spec-less DeepPoly pass.  Any slope vector in ``[0, 1]`` yields sound
bounds (``ReLU(z) >= s·z`` holds for every ``z``), so the warm start only
changes where the ascent *begins*: children typically start near their
parent's optimum and the initial bounding pass is skipped entirely when
every batch element has a warm entry.  The per-problem slope store is a
bounded LRU keyed by ``SplitAssignment.canonical_key()``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bounds.deeppoly import DeepPolyAnalyzer, default_lower_slope
from repro.bounds.report import BoundReport
from repro.bounds.splits import ACTIVE, SplitAssignment, split_delta
from repro.nn.network import LoweredNetwork
from repro.specs.properties import InputBox, LinearOutputSpec
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import require

#: Capacity of the per-analyzer optimised-slope store (LRU beyond that).
DEFAULT_SLOPE_STORE_SIZE = 1024


@dataclass(frozen=True)
class AlphaCrownConfig:
    """Hyperparameters of the SPSA slope optimisation.

    ``warm_start`` enables the parent-entry slope warm start: children whose
    parent identity is threaded through ``analyze``/``analyze_batch`` start
    the ascent from the parent's optimised slopes (split neuron corrected)
    instead of the ``default_lower_slope`` heuristic.
    """

    iterations: int = 8
    step_size: float = 0.25
    perturbation: float = 0.15
    seed: int = 0
    warm_start: bool = True

    def __post_init__(self) -> None:
        require(self.iterations >= 0, "iterations must be non-negative")
        require(self.step_size > 0, "step_size must be positive")
        require(0 < self.perturbation <= 0.5, "perturbation must be in (0, 0.5]")


class AlphaCrownAnalyzer:
    """CROWN analyser with SPSA-optimised lower slopes."""

    def __init__(self, network: LoweredNetwork,
                 config: Optional[AlphaCrownConfig] = None) -> None:
        self.network = network
        self.config = config or AlphaCrownConfig()
        self._inner = DeepPolyAnalyzer(network)
        #: Optimised slopes of finished analyses, keyed by canonical splits.
        self._slope_store: "OrderedDict[Tuple, List[np.ndarray]]" = OrderedDict()
        self.warm_starts = 0

    # -- slope store -----------------------------------------------------------
    def _store_slopes(self, splits: SplitAssignment,
                      slopes: Sequence[np.ndarray]) -> None:
        key = splits.canonical_key()
        self._slope_store[key] = [np.asarray(s, dtype=float).copy() for s in slopes]
        self._slope_store.move_to_end(key)
        while len(self._slope_store) > DEFAULT_SLOPE_STORE_SIZE:
            self._slope_store.popitem(last=False)

    def _warm_slopes(self, parent: Optional[SplitAssignment],
                     splits: SplitAssignment) -> Optional[List[np.ndarray]]:
        """The parent's optimised slopes, split-neuron-corrected, or ``None``.

        The correction mirrors the rank-1 relaxation swap of the incremental
        DeepPoly path: the newly decided neuron's lower relaxation becomes
        exact (slope 1 for ``r+``, 0 for ``r-``), every other slope is
        inherited from the parent's optimum.
        """
        if not self.config.warm_start or parent is None:
            return None
        delta = split_delta(parent, splits)
        if delta is None or delta.layer >= self.network.num_relu_layers:
            return None
        stored = self._slope_store.get(parent.canonical_key())
        if stored is None:
            return None
        self._slope_store.move_to_end(parent.canonical_key())
        slopes = [s.copy() for s in stored]
        slopes[delta.layer][delta.unit] = 1.0 if delta.phase == ACTIVE else 0.0
        self.warm_starts += 1
        return slopes

    # -- optimisation -----------------------------------------------------------
    def _objectives(self, box: InputBox, splits_list: Sequence[SplitAssignment],
                    spec: LinearOutputSpec,
                    slopes: Sequence[np.ndarray]) -> np.ndarray:
        """Per-element ``p̂`` of one stacked bound evaluation, shape ``(B,)``."""
        reports = self._inner.analyze_batch(box, splits_list, spec=spec,
                                            lower_slopes=slopes)
        return np.array([float("-inf") if report.p_hat is None
                         else float(report.p_hat) for report in reports])

    def _starting_slopes(self, box: InputBox,
                         splits_list: Sequence[SplitAssignment],
                         parents: Optional[Sequence[Optional[SplitAssignment]]]
                         ) -> List[np.ndarray]:
        """Stacked starting slopes: warm entries where available, heuristic
        DeepPoly slopes (one batched spec-less pass over the cold subset)
        otherwise."""
        num_layers = self.network.num_relu_layers
        warm: List[Optional[List[np.ndarray]]] = [None] * len(splits_list)
        if parents is not None:
            for index, splits in enumerate(splits_list):
                warm[index] = self._warm_slopes(parents[index], splits)
        cold = [index for index, slopes in enumerate(warm) if slopes is None]
        cold_slopes: Dict[int, List[np.ndarray]] = {}
        if cold:
            reports = self._inner.analyze_batch(box, [splits_list[i] for i in cold])
            for position, index in enumerate(cold):
                report = reports[position]
                cold_slopes[index] = [
                    default_lower_slope(report.pre_activation_bounds[layer].lower,
                                        report.pre_activation_bounds[layer].upper)
                    for layer in range(num_layers)]
        stacked: List[np.ndarray] = []
        for layer in range(num_layers):
            stacked.append(np.stack([
                (warm[index][layer] if warm[index] is not None
                 else cold_slopes[index][layer])
                for index in range(len(splits_list))]))
        return stacked

    def analyze(self, box: InputBox, splits: Optional[SplitAssignment] = None,
                spec: Optional[LinearOutputSpec] = None,
                rng: SeedLike = None,
                parent: Optional[SplitAssignment] = None) -> BoundReport:
        """Bounds of one sub-problem with optimised slopes: the batched
        optimisation at ``B = 1`` (falls back to DeepPoly without a spec)."""
        return self._optimise(box, [splits], spec, rng, [parent])[0]

    def analyze_batch(self, box: InputBox,
                      splits_list: Sequence[Optional[SplitAssignment]],
                      spec: Optional[LinearOutputSpec] = None,
                      rng: SeedLike = None,
                      parents: Optional[Sequence[Optional[SplitAssignment]]] = None
                      ) -> List[BoundReport]:
        """Optimise slopes for ``B`` sub-problems in stacked SPSA passes.

        Every sub-problem sees the same perturbation-direction sequence, one
        shared draw per iteration, and each iteration runs three stacked
        :meth:`DeepPolyAnalyzer.analyze_batch` passes over the whole batch.
        ``parents`` (index-aligned, ``None`` entries allowed) enables the
        per-element parent warm start; when every element is warm the
        initial spec-less bounding pass is skipped entirely.
        """
        return self._optimise(box, splits_list, spec, rng, parents)

    def _optimise(self, box: InputBox,
                  splits_list: Sequence[Optional[SplitAssignment]],
                  spec: Optional[LinearOutputSpec], rng: SeedLike,
                  parents: Optional[Sequence[Optional[SplitAssignment]]]
                  ) -> List[BoundReport]:
        """The SPSA optimisation behind :meth:`analyze` and :meth:`analyze_batch`."""
        splits_list = [s or SplitAssignment.empty() for s in splits_list]
        if not splits_list:
            return []
        if parents is not None:
            require(len(parents) == len(splits_list),
                    "parents must be index-aligned with splits_list")
        if spec is None or self.config.iterations == 0:
            reports = self._inner.analyze_batch(box, splits_list, spec=spec)
            for report in reports:
                report.method = "alpha-crown"
            return reports

        rng = as_rng(self.config.seed if rng is None else rng)
        slopes = self._starting_slopes(box, splits_list, parents)
        best_slopes = [s.copy() for s in slopes]
        best_value = self._objectives(box, splits_list, spec, slopes)

        for iteration in range(self.config.iterations):
            # One shared ±1 draw per layer; it broadcasts over the rows.
            directions = [rng.choice([-1.0, 1.0], size=s.shape[1:])
                          for s in slopes]
            delta = self.config.perturbation
            plus = [np.clip(s + delta * d, 0.0, 1.0)
                    for s, d in zip(slopes, directions)]
            minus = [np.clip(s - delta * d, 0.0, 1.0)
                     for s, d in zip(slopes, directions)]
            value_plus = self._objectives(box, splits_list, spec, plus)
            value_minus = self._objectives(box, splits_list, spec, minus)
            with np.errstate(invalid="ignore"):
                gradient_scale = (value_plus - value_minus) / (2.0 * delta)
            step = self.config.step_size / np.sqrt(iteration + 1.0)
            slopes = [np.clip(s + step * gradient_scale[:, None] * d, 0.0, 1.0)
                      for s, d in zip(slopes, directions)]
            value = self._objectives(box, splits_list, spec, slopes)
            for candidate_value, candidate_slopes in ((value_plus, plus),
                                                      (value_minus, minus),
                                                      (value, slopes)):
                with np.errstate(invalid="ignore"):
                    improved = candidate_value > best_value
                if not np.any(improved):
                    continue
                best_value = np.where(improved, candidate_value, best_value)
                for layer, candidate in enumerate(candidate_slopes):
                    best_slopes[layer] = np.where(improved[:, None], candidate,
                                                  best_slopes[layer])

        if self.config.warm_start:
            for index, splits in enumerate(splits_list):
                self._store_slopes(splits, [s[index] for s in best_slopes])
        reports = self._inner.analyze_batch(box, splits_list, spec=spec,
                                            lower_slopes=best_slopes)
        for report in reports:
            report.method = "alpha-crown"
        return reports


def alpha_crown_bounds(network: LoweredNetwork, box: InputBox,
                       splits: Optional[SplitAssignment] = None,
                       spec: Optional[LinearOutputSpec] = None,
                       config: Optional[AlphaCrownConfig] = None) -> BoundReport:
    """Convenience wrapper around :meth:`AlphaCrownAnalyzer.analyze`."""
    return AlphaCrownAnalyzer(network, config).analyze(box, splits=splits, spec=spec)
