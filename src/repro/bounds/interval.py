"""Interval bound propagation (IBP).

The coarsest approximated verifier in the library: every intermediate
quantity is tracked by an axis-aligned interval.  IBP is cheap but loose; it
is used as a sanity baseline, inside branching-heuristic scores, and in
tests as an independent soundness cross-check for the tighter DeepPoly
analyser.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.bounds.linear_form import ScalarBounds
from repro.bounds.report import BoundReport
from repro.bounds.splits import (
    ACTIVE,
    INACTIVE,
    SplitAssignment,
    clip_bounds_with_phases,
    stacked_phase_array,
)
from repro.nn.network import LoweredNetwork
from repro.specs.properties import InputBox, LinearOutputSpec
from repro.utils.validation import require


def _affine_interval(weight: np.ndarray, bias: np.ndarray,
                     lower: np.ndarray, upper: np.ndarray) -> ScalarBounds:
    """Interval image of ``W @ h + b`` for ``h`` in ``[lower, upper]``."""
    positive = np.maximum(weight, 0.0)
    negative = np.minimum(weight, 0.0)
    new_lower = positive @ lower + negative @ upper + bias
    new_upper = positive @ upper + negative @ lower + bias
    return ScalarBounds(new_lower, new_upper)


def _apply_split_clipping(bounds: ScalarBounds, layer: int,
                          splits: SplitAssignment) -> ScalarBounds:
    """Intersect pre-activation bounds with the layer's split constraints."""
    lower = bounds.lower.copy()
    upper = bounds.upper.copy()
    for unit, phase in splits.layer_phases(layer, bounds.size).items():
        if phase == ACTIVE:
            lower[unit] = max(lower[unit], 0.0)
        elif phase == INACTIVE:
            upper[unit] = min(upper[unit], 0.0)
    return ScalarBounds(lower, upper)


def interval_bounds(network: LoweredNetwork, box: InputBox,
                    splits: Optional[SplitAssignment] = None,
                    spec: Optional[LinearOutputSpec] = None) -> BoundReport:
    """Run IBP on ``network`` over ``box`` under the given split constraints.

    Returns a :class:`BoundReport`; when ``spec`` is provided the report
    carries ``p̂`` (the minimum spec-row lower bound) and a candidate
    counterexample (the box centre, IBP does not produce a sharper witness).
    """
    require(box.dimension == network.input_dim,
            "input box dimension does not match the network")
    splits = splits or SplitAssignment.empty()

    lower = box.lower
    upper = box.upper
    pre_activation_bounds: List[ScalarBounds] = []
    infeasible = False
    for layer in range(network.num_relu_layers):
        pre = _affine_interval(network.weights[layer], network.biases[layer], lower, upper)
        pre = _apply_split_clipping(pre, layer, splits)
        if not pre.is_consistent():
            infeasible = True
            pre = ScalarBounds(np.minimum(pre.lower, pre.upper),
                               np.maximum(pre.lower, pre.upper))
        pre_activation_bounds.append(pre)
        lower = np.maximum(pre.lower, 0.0)
        upper = np.maximum(pre.upper, 0.0)

    output_bounds = _affine_interval(network.weights[-1], network.biases[-1], lower, upper)

    spec_row_lower = None
    p_hat = None
    candidate = None
    if spec is not None:
        require(spec.output_dim == network.output_dim,
                "specification output dimension does not match the network")
        spec_bounds = _affine_interval(spec.coefficients, spec.offsets,
                                       output_bounds.lower, output_bounds.upper)
        spec_row_lower = spec_bounds.lower
        p_hat = float("inf") if infeasible else float(np.min(spec_row_lower))
        candidate = box.center

    return BoundReport(pre_activation_bounds=pre_activation_bounds,
                       output_bounds=output_bounds,
                       spec_row_lower=spec_row_lower,
                       p_hat=p_hat,
                       candidate_input=candidate,
                       infeasible=infeasible,
                       method="ibp")


def _affine_interval_batch(weight: np.ndarray, bias: np.ndarray,
                           lower: np.ndarray, upper: np.ndarray):
    """Batched :func:`_affine_interval`: ``lower``/``upper`` are ``(B, dim)``."""
    positive = np.maximum(weight, 0.0)
    negative = np.minimum(weight, 0.0)
    new_lower = lower @ positive.T + upper @ negative.T + bias
    new_upper = upper @ positive.T + lower @ negative.T + bias
    return new_lower, new_upper


def interval_bounds_batch(network: LoweredNetwork, box: InputBox,
                          splits_list: Sequence[Optional[SplitAssignment]],
                          spec: Optional[LinearOutputSpec] = None) -> List[BoundReport]:
    """Run IBP on ``B`` sub-problems of the same box in one batched pass.

    Equivalent to ``[interval_bounds(network, box, s, spec) for s in
    splits_list]`` but carries a leading batch axis through the layer loop,
    so the affine images of all sub-problems are computed by shared matmuls.
    """
    require(box.dimension == network.input_dim,
            "input box dimension does not match the network")
    splits_list = [s or SplitAssignment.empty() for s in splits_list]
    batch_size = len(splits_list)
    if batch_size == 0:
        return []

    lower = np.broadcast_to(box.lower, (batch_size, box.dimension))
    upper = np.broadcast_to(box.upper, (batch_size, box.dimension))
    lower_layers: List[np.ndarray] = []
    upper_layers: List[np.ndarray] = []
    infeasible = np.zeros(batch_size, dtype=bool)
    for layer in range(network.num_relu_layers):
        pre_lower, pre_upper = _affine_interval_batch(
            network.weights[layer], network.biases[layer], lower, upper)
        phases = stacked_phase_array(splits_list, layer, pre_lower.shape[1])
        pre_lower, pre_upper, inconsistent = clip_bounds_with_phases(
            pre_lower, pre_upper, phases)
        infeasible |= inconsistent
        lower_layers.append(pre_lower)
        upper_layers.append(pre_upper)
        lower = np.maximum(pre_lower, 0.0)
        upper = np.maximum(pre_upper, 0.0)

    output_lower, output_upper = _affine_interval_batch(
        network.weights[-1], network.biases[-1], lower, upper)

    spec_lower = None
    if spec is not None:
        require(spec.output_dim == network.output_dim,
                "specification output dimension does not match the network")
        spec_lower, _ = _affine_interval_batch(spec.coefficients, spec.offsets,
                                               output_lower, output_upper)

    reports: List[BoundReport] = []
    for row in range(batch_size):
        pre_bounds = [ScalarBounds(lower_layers[layer][row], upper_layers[layer][row])
                      for layer in range(network.num_relu_layers)]
        spec_row_lower = None
        p_hat = None
        candidate = None
        if spec is not None:
            spec_row_lower = spec_lower[row]
            p_hat = (float("inf") if infeasible[row]
                     else float(np.min(spec_row_lower)))
            candidate = box.center
        reports.append(BoundReport(pre_activation_bounds=pre_bounds,
                                   output_bounds=ScalarBounds(output_lower[row],
                                                              output_upper[row]),
                                   spec_row_lower=spec_row_lower,
                                   p_hat=p_hat,
                                   candidate_input=candidate,
                                   infeasible=bool(infeasible[row]),
                                   method="ibp"))
    return reports
