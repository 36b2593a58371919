"""α-CROWN: DeepPoly/CROWN bounds with optimised unstable lower slopes.

CROWN's lower-bound quality depends on the slope chosen for the lower
relaxation of every unstable ReLU.  α-CROWN (Xu et al., *Fast and
Complete*, ICLR 2021, adopted by the αβ-CROWN tool the paper compares
against) treats those slopes as free parameters ``α`` in ``[0, 1]`` and
optimises them to maximise the specification lower bound ``p̂``.  Any
``α`` in ``[0, 1]`` is sound (``ReLU(z) >= α·z`` for every ``z``), so the
optimiser changes only tightness and cost.

The original implementation differentiates through the bound computation
with PyTorch autograd.  This numpy reproduction runs projected gradient
ascent on the *exact* ``∂p̂/∂α``, derived by hand.  With the intermediate
(pre-activation) bounds held at a pass's values, the worst spec row's
lower bound is a composition of ``Λ ← (max(Λ,0)·diag(ls) + min(Λ,0)·diag(us))·W``
substitution steps plus the constants they collect, concretised at the
minimising box corner ``x*``.  One reverse (adjoint) sweep over the
stored ``Λ`` of that single row therefore gives the gradient for every
slope: starting from ``g = x*``, each layer sets ``g ← g·Wᵀ + b``, reads
``∂p̂/∂α = max(Λ,0)·g`` on its unstable neurons, and carries
``g ← g·(ls where Λ>0, us where Λ<0) + (ui where Λ<0)`` upwards.  An
iteration is one full DeepPoly pass (which yields ``p̂`` and the bounds)
plus that one-row adjoint; the step is
``α ← clip(α + step_size/√(t+1) · g / max|g|, 0, 1)``.

:meth:`AlphaCrownAnalyzer.analyze_batch` runs the optimisation for ``B``
sub-problems at once and :meth:`AlphaCrownAnalyzer.analyze` is the same
optimisation at ``B = 1``.  Every pass is one stacked
:meth:`~repro.bounds.deeppoly.DeepPolyAnalyzer.analyze_batch` with batched
``lower_slopes``, every adjoint carries the same leading batch axis, and
gradients, steps and best-so-far tracking are per row, so a row's result
does not depend on the other rows beyond batched-matmul float noise.  The
first pass of a cold row runs with DeepPoly's default slopes, which are
also the ascent's starting point; every row keeps the report of its best
pass, so no final re-pass is needed.  A cold analysis costs
``1 + iterations`` DeepPoly passes plus ``iterations`` one-row adjoints.

**Parent warm start.**  When the caller threads BaB parent identity
(``parent=`` / ``parents=``), a phase-split child starts its ascent from
the *parent's optimised slopes* — with the newly decided neuron's slope
swapped to the exact identity/zero value its phase imposes — instead of
DeepPoly's default slopes.  Since any slope vector in ``[0, 1]`` is sound,
the warm start only changes where the ascent *begins*.  The per-problem
slope store is a bounded LRU keyed by ``SplitAssignment.canonical_key()``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bounds.deeppoly import DeepPolyAnalyzer, _relaxation_arrays, default_lower_slope
from repro.bounds.report import BoundReport
from repro.bounds.splits import ACTIVE, SplitAssignment, split_delta
from repro.nn.network import LoweredNetwork
from repro.specs.properties import InputBox, LinearOutputSpec
from repro.utils.validation import require

#: Capacity of the per-analyzer optimised-slope store (LRU beyond that).
DEFAULT_SLOPE_STORE_SIZE = 1024


@dataclass(frozen=True)
class AlphaCrownConfig:
    """Hyperparameters of the projected-gradient slope optimisation.

    ``step_size`` is the largest change of any slope in the first step
    (steps decay as ``1/√(t+1)``).  ``warm_start`` enables the parent-entry
    slope warm start: children whose parent identity is threaded through
    ``analyze``/``analyze_batch`` start the ascent from the parent's
    optimised slopes (split neuron corrected) instead of DeepPoly's
    default slopes.
    """

    iterations: int = 8
    step_size: float = 0.25
    warm_start: bool = True

    def __post_init__(self) -> None:
        require(self.iterations >= 0, "iterations must be non-negative")
        require(self.step_size > 0, "step_size must be positive")


def spec_row_gradient(network: LoweredNetwork, spec: LinearOutputSpec,
                      reports: Sequence[BoundReport],
                      slopes: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Exact ``∂p̂/∂α`` of each report's worst spec row, intermediate bounds fixed.

    ``reports`` are ``B`` DeepPoly reports bounded with ``slopes`` (one
    ``(B, width)`` array per hidden layer).  Each row's relaxation is
    rebuilt from its report's pre-activation bounds, the worst spec row's
    lower back-substitution is replayed storing its coefficients ``Λ`` per
    layer, and the adjoint sweep of the module docstring runs upwards from
    the report's minimising corner.  Returns one ``(B, width)`` gradient per
    hidden layer, zero on stable neurons and on rows without a finite
    ``p̂``.
    """
    num_layers = network.num_relu_layers
    rows = [int(np.argmin(report.spec_row_lower)) for report in reports]
    finite = np.array([report.p_hat is not None and np.isfinite(report.p_hat)
                       for report in reports])
    relaxations = []
    for layer in range(num_layers):
        lower = np.stack([r.pre_activation_bounds[layer].lower for r in reports])
        upper = np.stack([r.pre_activation_bounds[layer].upper for r in reports])
        unstable = (lower < 0.0) & (upper > 0.0) & finite[:, None]
        relaxations.append((unstable, *_relaxation_arrays(
            lower, upper, None, np.clip(slopes[layer], 0.0, 1.0))))
    # Down: the worst row's coefficients over each hidden layer's output.
    coefficients = [None] * num_layers
    lam = spec.coefficients[rows] @ network.weights[-1]
    for layer in range(num_layers - 1, -1, -1):
        coefficients[layer] = lam
        if layer:
            _, ls, us, _ = relaxations[layer]
            lam = (np.maximum(lam, 0.0) * ls
                   + np.minimum(lam, 0.0) * us) @ network.weights[layer]
    # Up: the adjoint of each layer's relaxed coefficients.
    adjoint = np.stack([report.candidate_input for report in reports])
    gradients = []
    for layer in range(num_layers):
        lam = coefficients[layer]
        unstable, ls, us, ui = relaxations[layer]
        adjoint = adjoint @ network.weights[layer].T + network.biases[layer]
        gradients.append(np.where(unstable, np.maximum(lam, 0.0) * adjoint, 0.0))
        adjoint = (adjoint * np.where(lam > 0.0, ls, np.where(lam < 0.0, us, 0.0))
                   + np.where(lam < 0.0, ui, 0.0))
    return gradients


class AlphaCrownAnalyzer:
    """CROWN analyser with gradient-optimised lower slopes."""

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
    def _starting_pass(self, box: InputBox,
                       splits_list: Sequence[SplitAssignment],
                       spec: LinearOutputSpec,
                       parents: Optional[Sequence[Optional[SplitAssignment]]]
                       ) -> Tuple[List[np.ndarray], List[BoundReport]]:
        """Starting slopes and the reports they give.

        Warm rows are bounded with their parents' corrected slopes; cold rows
        with DeepPoly's default slopes, which their reports' bounds then
        reproduce as explicit slopes.
        """
        num_layers = self.network.num_relu_layers
        warm: List[Optional[List[np.ndarray]]] = [None] * len(splits_list)
        if parents is not None:
            for index, splits in enumerate(splits_list):
                warm[index] = self._warm_slopes(parents[index], splits)
        starts = list(warm)
        reports: List[Optional[BoundReport]] = [None] * len(splits_list)
        cold_rows = [index for index, slopes in enumerate(warm) if slopes is None]
        if cold_rows:
            cold_reports = self._inner.analyze_batch(
                box, [splits_list[i] for i in cold_rows], spec=spec)
            for index, report in zip(cold_rows, cold_reports):
                reports[index] = report
                starts[index] = [default_lower_slope(bounds.lower, bounds.upper)
                                 for bounds in report.pre_activation_bounds]
        warm_rows = [index for index, slopes in enumerate(warm) if slopes is not None]
        if warm_rows:
            warm_reports = self._inner.analyze_batch(
                box, [splits_list[i] for i in warm_rows], spec=spec,
                lower_slopes=[np.stack([warm[i][layer] for i in warm_rows])
                              for layer in range(num_layers)])
            for index, report in zip(warm_rows, warm_reports):
                reports[index] = report
        slopes = [np.stack([start[layer] for start in starts])
                  for layer in range(num_layers)]
        return slopes, reports

    def analyze(self, box: InputBox, splits: Optional[SplitAssignment] = None,
                spec: Optional[LinearOutputSpec] = None,
                parent: Optional[SplitAssignment] = None) -> BoundReport:
        """Bounds of one sub-problem with optimised slopes: the batched
        optimisation at ``B = 1`` (falls back to DeepPoly without a spec)."""
        return self._optimise(box, [splits], spec, [parent])[0]

    def analyze_batch(self, box: InputBox,
                      splits_list: Sequence[Optional[SplitAssignment]],
                      spec: Optional[LinearOutputSpec] = None,
                      parents: Optional[Sequence[Optional[SplitAssignment]]] = None
                      ) -> List[BoundReport]:
        """Optimise slopes for ``B`` sub-problems in stacked passes.

        Each iteration runs one one-row adjoint and one stacked
        :meth:`DeepPolyAnalyzer.analyze_batch` pass over the whole batch.
        ``parents`` (index-aligned, ``None`` entries allowed) enables the
        per-element parent warm start.
        """
        return self._optimise(box, splits_list, spec, parents)

    def _optimise(self, box: InputBox,
                  splits_list: Sequence[Optional[SplitAssignment]],
                  spec: Optional[LinearOutputSpec],
                  parents: Optional[Sequence[Optional[SplitAssignment]]]
                  ) -> List[BoundReport]:
        """The projected gradient ascent behind :meth:`analyze` and
        :meth:`analyze_batch`."""
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

        slopes, reports = self._starting_pass(box, splits_list, spec, parents)
        best_reports = list(reports)
        best_slopes = [s.copy() for s in slopes]
        best_value = np.array([report.p_hat for report in reports])
        for iteration in range(self.config.iterations):
            gradients = spec_row_gradient(self.network, spec, reports, slopes)
            scale = np.zeros(len(splits_list))
            for gradient in gradients:
                scale = np.maximum(scale, np.abs(gradient).max(axis=1))
            if not np.any(scale > 0.0):
                break
            step = (self.config.step_size / np.sqrt(iteration + 1.0)
                    / np.where(scale > 0.0, scale, 1.0))
            slopes = [np.clip(s + step[:, None] * g, 0.0, 1.0)
                      for s, g in zip(slopes, gradients)]
            reports = self._inner.analyze_batch(box, splits_list, spec=spec,
                                                lower_slopes=slopes)
            value = np.array([report.p_hat for report in reports])
            improved = value > best_value
            best_value = np.where(improved, value, best_value)
            for index in np.flatnonzero(improved):
                best_reports[index] = reports[index]
            for layer, candidate in enumerate(slopes):
                best_slopes[layer] = np.where(improved[:, None], candidate,
                                              best_slopes[layer])

        if self.config.warm_start:
            for index, splits in enumerate(splits_list):
                self._store_slopes(splits, [s[index] for s in best_slopes])
        for report in best_reports:
            report.method = "alpha-crown"
        return best_reports


def alpha_crown_bounds(network: LoweredNetwork, box: InputBox,
                       splits: Optional[SplitAssignment] = None,
                       spec: Optional[LinearOutputSpec] = None,
                       config: Optional[AlphaCrownConfig] = None) -> BoundReport:
    """Convenience wrapper around :meth:`AlphaCrownAnalyzer.analyze`."""
    return AlphaCrownAnalyzer(network, config).analyze(box, splits=splits, spec=spec)
