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

**One flat pass.**  :meth:`BranchingHeuristic.select` reads the report's
hidden bounds as the flat layer-major row the report stores
(:class:`~repro.bounds.report.FlatBounds`; nothing is concatenated per
call), builds one boolean candidate mask (bounds straddle zero and
the neuron is undecided), scores every hidden neuron in one vector per
heuristic and returns the first maximum among the candidates — the same
first-max rule as a sorted ``(layer, unit)`` list.  Slopes, gaps and their
denominators are computed once on the flat vectors; the sensitivity and
indirect passes run on per-layer views of them.

**Per-run constants.**  ``|W|`` of the hidden-to-hidden weights, the
specification pulled through the last affine layer and its column abs-max
are computed once and kept on the heuristic instance, tied to the identity
of the network and spec objects (every verifier builds one heuristic per
run; a heuristic handed other objects recomputes them).

**Bit-identical scores.**  Every element goes through the same operations in
the same order as a per-layer implementation, so scores, split choices,
verdicts and node charges do not depend on the flat layout.

**``select`` is the entry point.**  Subclasses implement :meth:`scores_at`
and leave :meth:`select` alone (FSB's look-ahead is the one exception):
instrumentation that times branching wraps exactly these two methods, so an
override elsewhere would silently drop its calls from a trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bounds.report import BoundReport, FlatBounds
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
    #: Optional callback bounding the child that adds one split to
    #: ``splits`` and returning its ``p̂`` (used by look-ahead heuristics
    #: such as FSB; the caller bounds the child against this context's
    #: report, exactly as the real expansion would, and charges any budget).
    evaluate_split: Optional[Callable[[ReluSplit], float]] = None

    def unstable_neurons(self) -> List[Neuron]:
        """Undecided neurons whose bounds straddle zero, ``(layer, unit)`` ascending."""
        return self.report.unstable_neurons(self.splits)


class BranchingHeuristic:
    """Base class: pick one unstable neuron to split (or ``None`` at a leaf).

    Subclasses implement :meth:`scores_at`; :meth:`select` is the one
    selection entry point and is not overridden (FSB's look-ahead aside).
    """

    name = "heuristic"

    def select(self, context: BranchingContext) -> Optional[Neuron]:
        """The highest-scoring unstable neuron (first on ties), or ``None``."""
        flat = context.report.flat_bounds()
        candidates = np.flatnonzero(flat.unstable_mask(context.splits))
        if not candidates.size:
            return None
        scores = self.scores_at(context, flat, candidates)
        require(len(scores) == len(candidates), "heuristic returned wrong number of scores")
        return flat.neuron(int(candidates[int(np.argmax(scores))]))

    def scores(self, context: BranchingContext,
               neurons: Sequence[Neuron]) -> np.ndarray:
        """One score per neuron of ``neurons``; higher means split first."""
        flat = context.report.flat_bounds()
        return self.scores_at(context, flat, flat.index_of(neurons))

    def scores_at(self, context: BranchingContext, flat: FlatBounds,
                  index: np.ndarray) -> np.ndarray:
        """One score per flat neuron index of ``index`` (layer-major order)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Shared sensitivity machinery
# ---------------------------------------------------------------------------

class _RunConstants:
    """What the sensitivity pass reuses across a run's calls.

    ``|W|`` of the hidden-to-hidden weights, the specification pulled
    through the last affine layer and that product's column abs-max.  Held
    with the network and spec they came from, so a heuristic handed other
    objects recomputes them.
    """

    __slots__ = ("network", "spec", "absolute", "head", "head_sensitivity")

    def __init__(self, network: LoweredNetwork, spec: LinearOutputSpec) -> None:
        self.network = network
        self.spec = spec
        self.absolute = [np.abs(weight) for weight in network.weights[1:-1]]
        self.head = spec.coefficients @ network.weights[-1]
        self.head_sensitivity = np.abs(self.head).max(axis=0)


def _relaxation(flat: FlatBounds) -> Tuple[np.ndarray, np.ndarray]:
    """Flat upper-relaxation slopes and relaxation gaps ``u(-l)/(u-l)`` (0 when stable)."""
    lower, upper = flat.lower, flat.upper
    straddles = (lower < 0.0) & (upper > 0.0)
    denominator = np.where(straddles, upper - lower, 1.0)
    slopes = np.where(straddles, upper / denominator, np.where(upper <= 0.0, 0.0, 1.0))
    gaps = np.where(straddles, upper * (-lower) / denominator, 0.0)
    return slopes, gaps


def _sensitivities(constants: _RunConstants, flat: FlatBounds,
                   slopes: np.ndarray) -> List[np.ndarray]:
    """Per-layer |d margin / d h_layer| given the flat relaxation slopes."""
    network = constants.network
    coefficients = constants.head
    sensitivities: List[np.ndarray] = [constants.head_sensitivity]
    for layer in range(network.num_relu_layers - 1, 0, -1):
        coefficients = (coefficients * flat.layer(slopes, layer)) @ network.weights[layer]
        sensitivities.append(np.abs(coefficients).max(axis=0))
    sensitivities.reverse()
    return sensitivities


def output_sensitivities(network: LoweredNetwork, spec: LinearOutputSpec,
                         report: BoundReport) -> List[np.ndarray]:
    """Estimated |d margin / d h_layer| for every hidden layer.

    Propagates the specification coefficients backwards through the affine
    layers, passing ReLU layers with their upper-relaxation slope, and
    aggregates absolute values over the specification rows.
    """
    flat = report.flat_bounds()
    slopes, _ = _relaxation(flat)
    return _sensitivities(_RunConstants(network, spec), flat, slopes)


class _GapHeuristic(BranchingHeuristic):
    """Shared flat pass of the gap-based heuristics (BaB-SR, DeepSplit)."""

    _constants: Optional[_RunConstants] = None

    def _gap_pass(self, context: BranchingContext,
                  flat: FlatBounds) -> Tuple[np.ndarray, np.ndarray]:
        """Flat slopes and ``gap × output sensitivity`` for every hidden neuron."""
        constants = self._constants
        if (constants is None or constants.network is not context.network
                or constants.spec is not context.spec):
            constants = self._constants = _RunConstants(context.network, context.spec)
        slopes, gaps = _relaxation(flat)
        sensitivity = np.concatenate(_sensitivities(constants, flat, slopes))
        return slopes, gaps * sensitivity


# ---------------------------------------------------------------------------
# Concrete heuristics
# ---------------------------------------------------------------------------

class WidestHeuristic(BranchingHeuristic):
    """Split the unstable neuron with the widest pre-activation interval."""

    name = "widest"

    def scores_at(self, context: BranchingContext, flat: FlatBounds,
                  index: np.ndarray) -> np.ndarray:
        """Pre-activation interval width of each neuron."""
        return (flat.upper - flat.lower)[index]


class BaBSRHeuristic(_GapHeuristic):
    """BaB-SR: relaxation gap weighted by estimated output sensitivity."""

    name = "babsr"

    def scores_at(self, context: BranchingContext, flat: FlatBounds,
                  index: np.ndarray) -> np.ndarray:
        """``gap × sensitivity`` of each neuron."""
        return self._gap_pass(context, flat)[1][index]


class DeepSplitHeuristic(_GapHeuristic):
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

    def scores_at(self, context: BranchingContext, flat: FlatBounds,
                  index: np.ndarray) -> np.ndarray:
        """``direct + indirect_weight × indirect`` for each neuron."""
        slopes, gap_weights = self._gap_pass(context, flat)
        absolute = self._constants.absolute
        indirect = np.zeros_like(gap_weights)
        indirect_layers = [flat.layer(indirect, layer) for layer in range(flat.num_layers)]
        for later in range(1, flat.num_layers):
            gap_weight = flat.layer(gap_weights, later)
            if not gap_weight.any():
                continue
            vector = gap_weight @ absolute[later - 1]
            indirect_layers[later - 1] += vector
            for source in range(later - 1, 0, -1):
                vector = (vector * flat.layer(slopes, source)) @ absolute[source - 1]
                indirect_layers[source - 1] += vector
        return gap_weights[index] + self.indirect_weight * indirect[index]


class FSBHeuristic(BranchingHeuristic):
    """Filtered smart branching: BaB-SR shortlist + exact look-ahead scoring."""

    name = "fsb"

    def __init__(self, shortlist_size: int = 3) -> None:
        require(shortlist_size >= 1, "shortlist_size must be positive")
        self.shortlist_size = shortlist_size
        self._fallback = BaBSRHeuristic()

    def select(self, context: BranchingContext) -> Optional[Neuron]:
        """Shortlisted neuron with the best worse-child ``p̂`` (no callback: BaB-SR's top)."""
        flat = context.report.flat_bounds()
        candidates = np.flatnonzero(flat.unstable_mask(context.splits))
        if not candidates.size:
            return None
        babsr_scores = self._fallback.scores_at(context, flat, candidates)
        order = np.argsort(babsr_scores)[::-1][:self.shortlist_size]
        shortlist = [flat.neuron(int(candidates[i])) for i in order]
        if context.evaluate_split is None or len(shortlist) == 1:
            return shortlist[0]
        best_neuron = shortlist[0]
        best_score = -np.inf
        for layer, unit in shortlist:
            improvements = []
            for phase in (ACTIVE, INACTIVE):
                improvements.append(context.evaluate_split(ReluSplit(layer, unit, phase)))
            score = min(improvements)
            if score > best_score:
                best_score = score
                best_neuron = (layer, unit)
        return best_neuron

    def scores_at(self, context: BranchingContext, flat: FlatBounds,
                  index: np.ndarray) -> np.ndarray:
        """The BaB-SR shortlist scores (the look-ahead lives in :meth:`select`)."""
        return self._fallback.scores_at(context, flat, index)


class RandomHeuristic(BranchingHeuristic):
    """Uniformly random choice among unstable neurons (ablation baseline)."""

    name = "random"

    def __init__(self, seed: SeedLike = 0) -> None:
        self._rng = as_rng(seed)

    def scores_at(self, context: BranchingContext, flat: FlatBounds,
                  index: np.ndarray) -> np.ndarray:
        """One uniform draw per neuron, in order, from the seeded generator."""
        return self._rng.random(len(index))


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
