"""Common result type returned by all bound-propagation analysers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.bounds.linear_form import ScalarBounds
from repro.bounds.splits import SplitAssignment


@dataclass
class BoundReport:
    """The outcome of one bound computation (one AppVer call).

    Attributes
    ----------
    pre_activation_bounds:
        Per hidden layer, scalar bounds on the pre-activation vector
        (after intersecting with the sub-problem's split constraints).
    output_bounds:
        Scalar bounds on the network output (logits).
    spec_row_lower:
        Lower bound of each output-spec constraint row over the sub-problem,
        or ``None`` when no specification was supplied.
    p_hat:
        The paper's ``p̂``: the minimum of ``spec_row_lower`` (a sound lower
        bound of the specification margin over the sub-problem).
    candidate_input:
        A concrete input in the box that the analyser believes is closest to
        violating the property (the counterexample candidate ``x̂``).
    infeasible:
        True when the split constraints are unsatisfiable within the input
        box — the sub-problem is vacuously verified.
    """

    pre_activation_bounds: List[ScalarBounds]
    output_bounds: ScalarBounds
    spec_row_lower: Optional[np.ndarray] = None
    p_hat: Optional[float] = None
    candidate_input: Optional[np.ndarray] = None
    infeasible: bool = False
    method: str = "unknown"

    def shallow_copy(self) -> "BoundReport":
        """A copy sharing every array but owning its own list and shell.

        Lives next to the field list so a new field cannot be forgotten
        (``dataclasses.replace`` would copy it automatically but costs
        several microseconds per call on the cache hot path).
        """
        return BoundReport(
            pre_activation_bounds=list(self.pre_activation_bounds),
            output_bounds=self.output_bounds,
            spec_row_lower=self.spec_row_lower,
            p_hat=self.p_hat,
            candidate_input=self.candidate_input,
            infeasible=self.infeasible,
            method=self.method)

    def unstable_neurons(self, splits: Optional[SplitAssignment] = None,
                         tolerance: float = 0.0) -> List[Tuple[int, int]]:
        """Neurons whose phase is still ambiguous in this sub-problem.

        A neuron is unstable when its pre-activation bounds straddle zero
        (beyond ``tolerance``) and its phase has not been fixed by a split.
        The list is sorted by ``(layer, unit)``.
        """
        masks = [(bounds.lower < -tolerance) & (bounds.upper > tolerance)
                 for bounds in self.pre_activation_bounds]
        for layer, unit in splits.decided_neurons() if splits else ():
            if layer < len(masks) and unit < masks[layer].size:
                masks[layer][unit] = False
        return [(layer, unit) for layer, mask in enumerate(masks)
                for unit in np.flatnonzero(mask).tolist()]

    @property
    def num_unstable(self) -> int:
        """Number of unstable neurons when no split is decided."""
        return len(self.unstable_neurons())

    @property
    def verified(self) -> bool:
        """True when the bound alone proves the property on this sub-problem."""
        if self.infeasible:
            return True
        return self.p_hat is not None and self.p_hat > 0.0
