"""ReLU branching heuristics (the heuristic ``H`` of Alg. 1).

Given a sub-problem whose AppVer bound raised a false alarm, the heuristic
selects the unstable ReLU neuron to split on.  The paper is orthogonal to
this choice (§III, §VI) and simply adopts a state-of-the-art heuristic
(DeepSplit) for both ABONN and the BaB baseline; this module provides that
heuristic along with the classical alternatives used in the ablation
benchmarks:

* ``widest``   — split the neuron with the widest pre-activation interval;
* ``babsr``    — BaB-SR (Bunel et al.): relaxation-gap × output-sensitivity;
* ``deepsplit``— DeepSplit-like indirect-effect score: BaB-SR's direct term
  plus the neuron's effect on downstream unstable relaxations, for all
  neurons at once by one backward vector pass per later layer (O(L²)
  vector-matrix products per call for ``L`` ReLU layers);
* ``fsb``      — filtered smart branching: shortlist by BaB-SR, then score
  each shortlisted neuron by the actual bound improvement of its two
  children (costs extra AppVer calls);
* ``random``   — uniform choice among unstable neurons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bounds.report import BoundReport
from repro.bounds.splits import ACTIVE, INACTIVE, ReluSplit, SplitAssignment
from repro.nn.network import LoweredNetwork
from repro.specs.properties import LinearOutputSpec
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import require

Neuron = Tuple[int, int]


@dataclass
class BranchingContext:
    """Everything a heuristic may inspect when choosing a split neuron."""

    network: LoweredNetwork
    spec: LinearOutputSpec
    report: BoundReport
    splits: SplitAssignment
    #: Optional callback evaluating a hypothetical child sub-problem and
    #: returning its ``p̂`` (used by look-ahead heuristics such as FSB; the
    #: caller is responsible for charging any budget).
    evaluate_split: Optional[Callable[[SplitAssignment], float]] = None

    def unstable_neurons(self) -> List[Neuron]:
        """Undecided neurons whose bounds straddle zero, ``(layer, unit)`` ascending."""
        return self.report.unstable_neurons(self.splits)


class BranchingHeuristic:
    """Base class: pick one unstable neuron to split (or ``None`` at a leaf)."""

    name = "heuristic"

    def select(self, context: BranchingContext) -> Optional[Neuron]:
        """The highest-scoring unstable neuron (first on ties), or ``None``."""
        unstable = context.unstable_neurons()
        if not unstable:
            return None
        scores = self.scores(context, unstable)
        require(len(scores) == len(unstable), "heuristic returned wrong number of scores")
        return unstable[int(np.argmax(scores))]

    def scores(self, context: BranchingContext,
               unstable: Sequence[Neuron]) -> np.ndarray:
        """One score per neuron of ``unstable``; higher means split first."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Shared sensitivity machinery
# ---------------------------------------------------------------------------

def _relaxation_slopes(report: BoundReport) -> List[np.ndarray]:
    """Per-layer upper-relaxation slopes implied by the report's bounds."""
    slopes = []
    for bounds in report.pre_activation_bounds:
        lower, upper = bounds.lower, bounds.upper
        unstable = (lower < 0.0) & (upper > 0.0)
        slopes.append(np.where(unstable, upper / np.where(unstable, upper - lower, 1.0),
                               np.where(upper <= 0.0, 0.0, 1.0)))
    return slopes


def output_sensitivities(network: LoweredNetwork, spec: LinearOutputSpec,
                         report: BoundReport) -> List[np.ndarray]:
    """Estimated |d margin / d h_layer| for every hidden layer.

    Propagates the specification coefficients backwards through the affine
    layers, passing ReLU layers with their upper-relaxation slope, and
    aggregates absolute values over the specification rows.
    """
    slopes = _relaxation_slopes(report)
    coefficients = spec.coefficients @ network.weights[-1]
    sensitivities: List[np.ndarray] = [np.abs(coefficients).max(axis=0)]
    for layer in range(network.num_relu_layers - 1, 0, -1):
        coefficients = (coefficients * slopes[layer]) @ network.weights[layer]
        sensitivities.append(np.abs(coefficients).max(axis=0))
    sensitivities.reverse()
    return sensitivities


def _gap_weights(context: BranchingContext) -> List[np.ndarray]:
    """Per-layer relaxation gap ``u(-l)/(u-l)`` (0 when stable) × output sensitivity."""
    sensitivities = output_sensitivities(context.network, context.spec, context.report)
    gap_weights = []
    for bounds, sensitivity in zip(context.report.pre_activation_bounds, sensitivities):
        lower, upper = bounds.lower, bounds.upper
        unstable = (lower < 0.0) & (upper > 0.0)
        denominator = np.where(unstable, upper - lower, 1.0)
        gap_weights.append(np.where(unstable, upper * (-lower) / denominator, 0.0)
                           * sensitivity)
    return gap_weights


def _gather(per_layer: Sequence[np.ndarray], neurons: Sequence[Neuron]) -> np.ndarray:
    """``per_layer[layer][unit]`` for every ``(layer, unit)`` in ``neurons``."""
    offsets = np.cumsum([0] + [values.size for values in per_layer])
    index = np.asarray(neurons, dtype=np.intp).reshape(-1, 2)
    return np.concatenate(per_layer)[offsets[index[:, 0]] + index[:, 1]]


# ---------------------------------------------------------------------------
# Concrete heuristics
# ---------------------------------------------------------------------------

class WidestHeuristic(BranchingHeuristic):
    """Split the unstable neuron with the widest pre-activation interval."""

    name = "widest"

    def scores(self, context: BranchingContext,
               unstable: Sequence[Neuron]) -> np.ndarray:
        """Pre-activation interval width of each neuron."""
        widths = [bounds.upper - bounds.lower
                  for bounds in context.report.pre_activation_bounds]
        return _gather(widths, unstable)


class BaBSRHeuristic(BranchingHeuristic):
    """BaB-SR: relaxation gap weighted by estimated output sensitivity."""

    name = "babsr"

    def scores(self, context: BranchingContext,
               unstable: Sequence[Neuron]) -> np.ndarray:
        """``gap × sensitivity`` of each neuron (one gap vector per layer)."""
        return _gather(_gap_weights(context), unstable)


class DeepSplitHeuristic(BranchingHeuristic):
    """DeepSplit-like indirect-effect analysis.

    A neuron's score is its *direct* effect on the output bound (the BaB-SR
    term) plus ``indirect_weight`` times its *indirect* effect: how much it
    feeds the gaps ``g_t = gap_t ⊙ sensitivity_t`` of each later layer ``t``
    through ``|W_t| diag(s_{t-1}) |W_{t-1}| …`` (``s``: upper-relaxation
    slopes).  Each ``g_t`` is pushed backwards once as a vector — ``v = g_t
    |W_t|``, then ``v = (v ⊙ s_l) |W_l|`` — scoring all neurons together: at
    most ``L(L-1)/2`` vector-matrix products per call for ``L`` ReLU layers,
    whatever the number of unstable neurons.
    """

    name = "deepsplit"

    def __init__(self, indirect_weight: float = 0.5) -> None:
        require(indirect_weight >= 0.0, "indirect_weight must be non-negative")
        self.indirect_weight = indirect_weight

    def scores(self, context: BranchingContext,
               unstable: Sequence[Neuron]) -> np.ndarray:
        """``direct + indirect_weight × indirect`` for each neuron."""
        slopes = _relaxation_slopes(context.report)
        gap_weights = _gap_weights(context)
        absolute = [np.abs(weight) for weight in context.network.weights[1:-1]]
        indirect = [np.zeros_like(gap_weight) for gap_weight in gap_weights]
        for later in range(1, len(gap_weights)):
            if not np.any(gap_weights[later]):
                continue
            vector = gap_weights[later] @ absolute[later - 1]
            indirect[later - 1] += vector
            for source in range(later - 1, 0, -1):
                vector = (vector * slopes[source]) @ absolute[source - 1]
                indirect[source - 1] += vector
        return (_gather(gap_weights, unstable)
                + self.indirect_weight * _gather(indirect, unstable))


class FSBHeuristic(BranchingHeuristic):
    """Filtered smart branching: BaB-SR shortlist + exact look-ahead scoring."""

    name = "fsb"

    def __init__(self, shortlist_size: int = 3) -> None:
        require(shortlist_size >= 1, "shortlist_size must be positive")
        self.shortlist_size = shortlist_size
        self._fallback = BaBSRHeuristic()

    def select(self, context: BranchingContext) -> Optional[Neuron]:
        """Shortlisted neuron with the best worse-child ``p̂`` (no callback: BaB-SR's top)."""
        unstable = context.unstable_neurons()
        if not unstable:
            return None
        babsr_scores = self._fallback.scores(context, unstable)
        order = np.argsort(babsr_scores)[::-1][:self.shortlist_size]
        shortlist = [unstable[int(i)] for i in order]
        if context.evaluate_split is None or len(shortlist) == 1:
            return shortlist[0]
        best_neuron = shortlist[0]
        best_score = -np.inf
        for layer, unit in shortlist:
            improvements = []
            for phase in (ACTIVE, INACTIVE):
                child = context.splits.with_split(ReluSplit(layer, unit, phase))
                improvements.append(context.evaluate_split(child))
            score = min(improvements)
            if score > best_score:
                best_score = score
                best_neuron = (layer, unit)
        return best_neuron

    def scores(self, context: BranchingContext,
               unstable: Sequence[Neuron]) -> np.ndarray:  # pragma: no cover
        """The BaB-SR shortlist scores (the look-ahead lives in :meth:`select`)."""
        return self._fallback.scores(context, unstable)


class RandomHeuristic(BranchingHeuristic):
    """Uniformly random choice among unstable neurons (ablation baseline)."""

    name = "random"

    def __init__(self, seed: SeedLike = 0) -> None:
        self._rng = as_rng(seed)

    def scores(self, context: BranchingContext,
               unstable: Sequence[Neuron]) -> np.ndarray:
        """Uniform draws from the heuristic's seeded generator."""
        return self._rng.random(len(unstable))


_HEURISTICS: Dict[str, Callable[[], BranchingHeuristic]] = {
    "widest": WidestHeuristic,
    "babsr": BaBSRHeuristic,
    "deepsplit": DeepSplitHeuristic,
    "fsb": FSBHeuristic,
    "random": RandomHeuristic,
}


def make_heuristic(name: str) -> BranchingHeuristic:
    """Instantiate a branching heuristic by name."""
    require(name in _HEURISTICS,
            f"unknown branching heuristic {name!r}; available: {sorted(_HEURISTICS)}")
    return _HEURISTICS[name]()


def available_heuristics() -> Tuple[str, ...]:
    """Registered heuristic names, sorted."""
    return tuple(sorted(_HEURISTICS))
