"""Common result type returned by all bound-propagation analysers."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bounds.linear_form import ScalarBounds
from repro.bounds.splits import ReluSplit, SplitAssignment, flat_offsets


class FlatBounds:
    """All hidden pre-activation bounds of a report, concatenated layer-major.

    ``lower`` and ``upper`` hold every hidden neuron once, layer after
    layer; layer ``l`` occupies ``offsets[l]:offsets[l + 1]``.  Branching
    heuristics score neurons on these flat vectors, so one numpy call
    covers every layer.  The constructor concatenates per-layer bounds;
    a bound kernel hands over rows it already holds through :meth:`wrap`.
    """

    __slots__ = ("lower", "upper", "offsets")

    def __init__(self, layers: Sequence[ScalarBounds]) -> None:
        self.offsets: List[int] = flat_offsets([bounds.size for bounds in layers])
        if layers:
            self.lower = np.concatenate([bounds.lower for bounds in layers])
            self.upper = np.concatenate([bounds.upper for bounds in layers])
        else:
            self.lower = self.upper = np.empty(0)

    @classmethod
    def wrap(cls, lower: np.ndarray, upper: np.ndarray,
             offsets: List[int]) -> "FlatBounds":
        """Trusted constructor for the bound kernels' hot path.

        ``lower`` and ``upper`` are equal-length 1-D float rows (typically
        views into a batch's ``(count, H)`` arrays) laid out by ``offsets``,
        which siblings share.  Nothing is copied or checked.
        """
        flat = object.__new__(cls)
        flat.lower = lower
        flat.upper = upper
        flat.offsets = offsets
        return flat

    @property
    def num_layers(self) -> int:
        """Number of hidden layers."""
        return len(self.offsets) - 1

    def layer(self, values: np.ndarray, layer: int) -> np.ndarray:
        """The view of flat ``values`` (along the last axis, so stacked
        rows work too) that belongs to ``layer``."""
        return values[..., self.offsets[layer]:self.offsets[layer + 1]]

    def bounds(self, layer: int) -> ScalarBounds:
        """Layer ``layer``'s bounds, as views of the flat row."""
        return ScalarBounds.wrap(self.layer(self.lower, layer),
                                 self.layer(self.upper, layer))

    def unstable_mask(self, splits: Optional[SplitAssignment] = None,
                      tolerance: float = 0.0) -> np.ndarray:
        """Flat mask of the undecided neurons whose bounds straddle zero."""
        mask = (self.lower < -tolerance) & (self.upper > tolerance)
        if splits is not None:
            mask &= splits.row == 0
        return mask

    def neuron(self, index: int) -> Tuple[int, int]:
        """The ``(layer, unit)`` address of flat index ``index``."""
        layer = bisect_right(self.offsets, index) - 1
        return layer, index - self.offsets[layer]

    def neurons(self, index: np.ndarray) -> List[Tuple[int, int]]:
        """Plain-``int`` ``(layer, unit)`` addresses of the flat indices ``index``."""
        offsets = np.asarray(self.offsets)
        layers = np.searchsorted(offsets, index, side="right") - 1
        return list(zip(layers.tolist(), (index - offsets[layers]).tolist()))

    def index_of(self, neurons: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Flat indices of the ``(layer, unit)`` addresses ``neurons``."""
        pairs = np.asarray(neurons, dtype=np.intp).reshape(-1, 2)
        return np.asarray(self.offsets, dtype=np.intp)[pairs[:, 0]] + pairs[:, 1]


@dataclass
class BoundReport:
    """The outcome of one bound computation (one AppVer call).

    A report holds what the search reads and no more: the hidden bounds as
    one flat row, the spec rows' lower bounds, ``p̂`` and the candidate.

    Attributes
    ----------
    hidden_bounds:
        Every hidden layer's scalar pre-activation bounds (after
        intersecting with the sub-problem's split constraints) as one
        layer-major :class:`FlatBounds` row; a batched analysis hands each
        sub-problem a view of its row of the batch's arrays.
    spec_row_lower:
        Lower bound of each output-spec constraint row over the sub-problem.
    p_hat:
        The paper's ``p̂``: the minimum of ``spec_row_lower`` (a sound lower
        bound of the specification margin over the sub-problem).
    candidate_input:
        A concrete input in the box that the analyser believes is closest to
        violating the property (the counterexample candidate ``x̂``).
    infeasible:
        True when the split constraints are unsatisfiable within the input
        box — the sub-problem is vacuously verified.
    path:
        The report's identity in a bound cache: a root tag (the back-end
        that bounded the root of its search path) followed by the
        ``(layer, unit, phase)`` splits in the order they were made.  A
        child bounded against its parent's report inherits the parent's
        bounds, so its report depends on that path and not only on its
        split set.  ``None`` when no path reproduces the report.
    """

    hidden_bounds: FlatBounds
    spec_row_lower: np.ndarray
    p_hat: float
    candidate_input: np.ndarray
    infeasible: bool = False
    method: str = "unknown"
    path: Optional[Tuple] = None

    def shallow_copy(self) -> "BoundReport":
        """A copy sharing every array but owning its own shell.

        Lives next to the field list so a new field cannot be forgotten
        (``dataclasses.replace`` would copy it automatically but costs
        several microseconds per call on the cache hot path).
        """
        return BoundReport(
            hidden_bounds=self.hidden_bounds,
            spec_row_lower=self.spec_row_lower,
            p_hat=self.p_hat,
            candidate_input=self.candidate_input,
            infeasible=self.infeasible,
            method=self.method,
            path=self.path)

    @property
    def pre_activation_bounds(self) -> Tuple[ScalarBounds, ...]:
        """Per hidden layer, the bounds as views of the flat row.

        Built on each access; a tuple, so a layer cannot be replaced in
        place.  Loops over the layers read it once.
        """
        flat = self.hidden_bounds
        return tuple(flat.bounds(layer) for layer in range(flat.num_layers))

    def flat_bounds(self) -> FlatBounds:
        """The hidden pre-activation bounds as flat layer-major vectors."""
        return self.hidden_bounds

    def unstable_neurons(self, splits: Optional[SplitAssignment] = None,
                         tolerance: float = 0.0) -> List[Tuple[int, int]]:
        """Neurons whose phase is still ambiguous in this sub-problem.

        A neuron is unstable when its pre-activation bounds straddle zero
        (beyond ``tolerance``) and its phase has not been fixed by a split.
        The list is sorted by ``(layer, unit)``.
        """
        flat = self.flat_bounds()
        return flat.neurons(np.flatnonzero(flat.unstable_mask(splits, tolerance)))

    @property
    def num_unstable(self) -> int:
        """Number of unstable neurons when no split is decided."""
        return int(np.count_nonzero(self.flat_bounds().unstable_mask()))

    @property
    def verified(self) -> bool:
        """True when the bound alone proves the property on this sub-problem."""
        return self.infeasible or self.p_hat > 0.0


#: A child's reference for bound propagation: its parent's report and the
#: split that turns the parent's region into the child's.
Parent = Tuple[BoundReport, ReluSplit]
