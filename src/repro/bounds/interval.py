"""Interval bound propagation (IBP).

The coarsest approximated verifier in the library: every intermediate
quantity is tracked by an axis-aligned interval.  IBP is cheap but loose; it
is used as a sanity baseline and in tests as an independent soundness
cross-check for the tighter DeepPoly analyser.

:func:`interval_bounds_batch` propagates ``B`` sub-problems of the same box
at once, with a leading batch axis on every interval; :func:`interval_bounds`
is that pass at ``B = 1``.  The rows share one interval until the first
layer at which some sub-problem decides a neuron, so a batch pays for its
shared prefix once.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bounds.linear_form import ScalarBounds
from repro.bounds.report import BoundReport, FlatBounds, flat_offsets
from repro.bounds.splits import (
    SplitAssignment,
    clip_bounds_with_phases,
    layer_rows,
    stack_rows,
)
from repro.nn.network import LoweredNetwork
from repro.specs.properties import InputBox, LinearOutputSpec
from repro.utils.validation import require


def interval_bounds(network: LoweredNetwork, box: InputBox,
                    splits: Optional[SplitAssignment] = None,
                    spec: Optional[LinearOutputSpec] = None) -> BoundReport:
    """Run IBP on ``network`` over ``box`` under the given split constraints.

    :func:`interval_bounds_batch` at ``B = 1``.  Returns a
    :class:`BoundReport`; when ``spec`` is provided the report carries
    ``p̂`` (the minimum spec-row lower bound) and a candidate counterexample
    (the box centre, IBP does not produce a sharper witness).
    """
    return interval_bounds_batch(network, box, [splits], spec=spec)[0]


def _interval_image(weight: np.ndarray, bias: np.ndarray,
                    lower: np.ndarray, upper: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Interval image of ``W @ h + b`` for rows of ``h`` in ``[lower, upper]``."""
    positive = np.maximum(weight, 0.0).T
    negative = np.minimum(weight, 0.0).T
    new_lower = lower.dot(positive) + upper.dot(negative) + bias
    new_upper = upper.dot(positive) + lower.dot(negative) + bias
    return new_lower, new_upper


def _rows(values: np.ndarray, batch_size: int) -> np.ndarray:
    """``(B, width)`` rows of a possibly still shared ``(1, width)`` array."""
    if len(values) == batch_size:
        return values
    return np.broadcast_to(values, (batch_size,) + values.shape[1:])


def interval_bounds_batch(network: LoweredNetwork, box: InputBox,
                          splits_list: Sequence[Optional[SplitAssignment]],
                          spec: Optional[LinearOutputSpec] = None) -> List[BoundReport]:
    """Run IBP on ``B`` sub-problems of the same box in one batched pass.

    Returns one :class:`BoundReport` per entry of ``splits_list``, in order
    (``None`` entries mean no splits).
    """
    require(box.dimension == network.input_dim,
            "input box dimension does not match the network")
    batch_size = len(splits_list)
    if batch_size == 0:
        return []
    if spec is not None:
        require(spec.output_dim == network.output_dim,
                "specification output dimension does not match the network")
    sizes = network.relu_layer_sizes()
    phase_rows = stack_rows(splits_list, SplitAssignment.empty(sizes))
    offsets = flat_offsets(sizes)
    rows = range(batch_size)

    # Until a layer decides a neuron the intervals have one shared row; the
    # flat (B, H) hidden bounds broadcast it into every sub-problem's row.
    lower = box.lower[None]
    upper = box.upper[None]
    flat_lower = np.empty((batch_size, offsets[-1]))
    flat_upper = np.empty((batch_size, offsets[-1]))
    infeasible = np.zeros(batch_size, dtype=bool)
    for layer in range(network.num_relu_layers):
        pre_lower, pre_upper = _interval_image(
            network.weights[layer], network.biases[layer], lower, upper)
        pre_lower, pre_upper, inconsistent = clip_bounds_with_phases(
            pre_lower, pre_upper, layer_rows(phase_rows, offsets, layer))
        infeasible |= inconsistent
        flat_lower[:, offsets[layer]:offsets[layer + 1]] = pre_lower
        flat_upper[:, offsets[layer]:offsets[layer + 1]] = pre_upper
        lower = np.maximum(pre_lower, 0.0)
        upper = np.maximum(pre_upper, 0.0)

    output_lower, output_upper = _interval_image(
        network.weights[-1], network.biases[-1], lower, upper)
    if spec is not None:
        spec_lower, _ = _interval_image(spec.coefficients, spec.offsets,
                                         output_lower, output_upper)
        spec_lower = _rows(spec_lower, batch_size)

    output_lower = _rows(output_lower, batch_size)
    output_upper = _rows(output_upper, batch_size)
    reports: List[BoundReport] = []
    for row in rows:
        spec_row_lower = None
        p_hat = None
        candidate = None
        if spec is not None:
            spec_row_lower = spec_lower[row]
            p_hat = (float("inf") if infeasible[row]
                     else float(spec_row_lower.min()))
            candidate = box.center
        reports.append(BoundReport(
            hidden_bounds=FlatBounds.wrap(flat_lower[row], flat_upper[row], offsets),
            output_bounds=ScalarBounds.wrap(output_lower[row], output_upper[row]),
            spec_row_lower=spec_row_lower,
            p_hat=p_hat,
            candidate_input=candidate,
            infeasible=bool(infeasible[row]),
            method="ibp"))
    return reports
