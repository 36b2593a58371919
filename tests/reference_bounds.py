"""Cache-free textbook DeepPoly and IBP: the oracle for the bound kernels.

A direct transcription of both analyses for one sub-problem at a time: no
batch axis, no cache, no parent reuse, and one backward pass per bounded
quantity (the output rows and the specification rows are substituted
separately).  ``reference_deeppoly`` also takes an optional parent report:
every layer is then bounded by DeepPoly in full, each neuron unstable in
the parent is intersected with the parent's interval, and every other
neuron keeps the parent's interval.  It shares nothing with ``repro.bounds`` but the result
containers, so a kernel that agrees with it is not agreeing with itself.
Kernel and reference differ only by floating-point reassociation, far
below ``TOLERANCE``; verdict-grade fields (flags, corners) agree exactly.
"""

from __future__ import annotations

import numpy as np

from repro.bounds.linear_form import ScalarBounds
from repro.bounds.report import BoundReport, FlatBounds
from repro.bounds.splits import ACTIVE, INACTIVE, SplitAssignment

#: Agreement required between a bound kernel and this reference.
TOLERANCE = 1e-9


def _clip(lower, upper, phases):
    """Intersect with the decided phases; re-sort and flag an empty result."""
    lower = np.where(phases == ACTIVE, np.maximum(lower, 0.0), lower)
    upper = np.where(phases == INACTIVE, np.minimum(upper, 0.0), upper)
    empty = not np.all(lower <= upper + 1e-12)
    if empty:
        lower, upper = np.minimum(lower, upper), np.maximum(lower, upper)
    return lower, upper, empty


def _relaxation(lower, upper, phases, lower_slope=None):
    """Triangle relaxation: ``ls*z <= ReLU(z) <= us*z + ui`` on ``[lower, upper]``."""
    active = (phases == ACTIVE) | (lower >= 0.0)
    inactive = ~active & ((phases == INACTIVE) | (upper <= 0.0))
    unstable = ~active & ~inactive
    if lower_slope is None:
        lower_slope = (upper > -lower).astype(float)
    slope = np.where(unstable, upper / np.where(unstable, upper - lower, 1.0), 0.0)
    return (np.where(active, 1.0, np.where(unstable, np.clip(lower_slope, 0.0, 1.0), 0.0)),
            np.where(active, 1.0, slope),
            np.where(unstable, -slope * lower, 0.0))


def _back_substitute(network, A, c, relaxations, minimize):
    """``A @ h_last + c`` rewritten over the input through every relaxation."""
    for layer in reversed(range(len(relaxations))):
        ls, us, ui = relaxations[layer]
        positive, negative = np.maximum(A, 0.0), np.minimum(A, 0.0)
        if minimize:
            A, c = positive * ls + negative * us, c + negative @ ui
        else:
            A, c = positive * us + negative * ls, c + positive @ ui
        c = c + A @ network.biases[layer]
        A = A @ network.weights[layer]
    return A, c


def _deeppoly_bounds(network, A, c, relaxations, box):
    """Lower/upper bounds of ``A @ h_last + c`` and the lower forms' coefficients."""
    lower_A, lower_c = _back_substitute(network, A, c, relaxations, True)
    upper_A, upper_c = _back_substitute(network, A, c, relaxations, False)
    lower = np.maximum(lower_A, 0.0) @ box.lower + np.minimum(lower_A, 0.0) @ box.upper + lower_c
    upper = np.maximum(upper_A, 0.0) @ box.upper + np.minimum(upper_A, 0.0) @ box.lower + upper_c
    return lower, upper, lower_A


def _against_parent(lower, upper, parent_bounds):
    """Intersect with the parent where it is unstable (NaN counts as
    unstable and never wins); keep the parent's interval elsewhere."""
    parent_lower, parent_upper = parent_bounds.lower, parent_bounds.upper
    unstable = ~((parent_lower >= 0.0) | (parent_upper <= 0.0))
    return (np.where(unstable, np.fmax(parent_lower, lower), parent_lower),
            np.where(unstable, np.fmin(parent_upper, upper), parent_upper))


def _layer_phases(splits, layer, width):
    """One layer's decided phases, read neuron by neuron (0 = undecided)."""
    return np.array([splits.phase_of(layer, unit) for unit in range(width)], dtype=int)


def reference_deeppoly(network, box, splits=None, spec=None, lower_slopes=None,
                       parent=None):
    """DeepPoly of one sub-problem; ``lower_slopes`` is one array per hidden
    layer, and ``parent`` an optional report the child is bounded against."""
    splits = splits or SplitAssignment.empty(network.relu_layer_sizes())
    relaxations, pre_activation, infeasible = [], [], False
    for layer in range(network.num_relu_layers):
        lower, upper, _ = _deeppoly_bounds(network, network.weights[layer],
                                           network.biases[layer], relaxations, box)
        if parent is not None:
            lower, upper = _against_parent(lower, upper,
                                           parent.pre_activation_bounds[layer])
        phases = _layer_phases(splits, layer, len(lower))
        lower, upper, empty = _clip(lower, upper, phases)
        infeasible = infeasible or empty
        pre_activation.append(ScalarBounds(lower, upper))
        relaxations.append(_relaxation(lower, upper, phases,
                                       None if lower_slopes is None else lower_slopes[layer]))
    output_lower, output_upper, _ = _deeppoly_bounds(
        network, network.weights[-1], network.biases[-1], relaxations, box)
    report = BoundReport(FlatBounds(pre_activation),
                         ScalarBounds(output_lower, output_upper),
                         infeasible=infeasible, method="reference-deeppoly")
    if spec is not None:
        spec_lower, _, spec_A = _deeppoly_bounds(
            network, spec.coefficients @ network.weights[-1],
            spec.coefficients @ network.biases[-1] + spec.offsets, relaxations, box)
        worst = int(np.argmin(spec_lower))
        report.spec_row_lower = spec_lower
        report.candidate_input = np.where(spec_A[worst] > 0, box.lower, box.upper)
        report.p_hat = float("inf") if infeasible else float(spec_lower[worst])
    return report


def _interval_image(weight, bias, lower, upper):
    positive, negative = np.maximum(weight, 0.0), np.minimum(weight, 0.0)
    return (positive @ lower + negative @ upper + bias,
            positive @ upper + negative @ lower + bias)


def reference_ibp(network, box, splits=None, spec=None):
    """Interval bound propagation of one sub-problem."""
    splits = splits or SplitAssignment.empty(network.relu_layer_sizes())
    lower, upper = box.lower, box.upper
    pre_activation, infeasible = [], False
    for layer in range(network.num_relu_layers):
        pre_lower, pre_upper = _interval_image(network.weights[layer],
                                               network.biases[layer], lower, upper)
        pre_lower, pre_upper, empty = _clip(
            pre_lower, pre_upper, _layer_phases(splits, layer, len(pre_lower)))
        infeasible = infeasible or empty
        pre_activation.append(ScalarBounds(pre_lower, pre_upper))
        lower, upper = np.maximum(pre_lower, 0.0), np.maximum(pre_upper, 0.0)
    output_lower, output_upper = _interval_image(network.weights[-1],
                                                 network.biases[-1], lower, upper)
    report = BoundReport(FlatBounds(pre_activation),
                         ScalarBounds(output_lower, output_upper),
                         infeasible=infeasible, method="reference-ibp")
    if spec is not None:
        spec_lower, _ = _interval_image(spec.coefficients, spec.offsets,
                                        output_lower, output_upper)
        report.spec_row_lower = spec_lower
        report.candidate_input = box.center
        report.p_hat = float("inf") if infeasible else float(np.min(spec_lower))
    return report


def assert_report_matches(got, want, tolerance=TOLERANCE):
    """``got`` equals ``want`` to ``tolerance``; flags and corners exactly.

    The hidden bounds are compared always (a spec does not change them).
    With a spec, the spec rows, ``p̂`` and the candidate are compared, and
    the output bounds only when ``got`` has them (IBP keeps them; DeepPoly
    and α-CROWN bound the spec rows instead); without one, the output
    bounds are.
    """
    assert got.infeasible == want.infeasible
    if want.p_hat is None or want.p_hat == float("inf"):
        assert got.p_hat == want.p_hat
    else:
        assert abs(got.p_hat - want.p_hat) <= tolerance
    assert len(got.pre_activation_bounds) == len(want.pre_activation_bounds)
    pairs = list(zip(got.pre_activation_bounds, want.pre_activation_bounds))
    if want.spec_row_lower is None or got.output_bounds is not None:
        pairs.append((got.output_bounds, want.output_bounds))
    for got_bounds, want_bounds in pairs:
        np.testing.assert_allclose(got_bounds.lower, want_bounds.lower, rtol=0, atol=tolerance)
        np.testing.assert_allclose(got_bounds.upper, want_bounds.upper, rtol=0, atol=tolerance)
    if want.spec_row_lower is None:
        assert got.spec_row_lower is None and got.candidate_input is None
    else:
        np.testing.assert_allclose(got.spec_row_lower, want.spec_row_lower,
                                   rtol=0, atol=tolerance)
        np.testing.assert_array_equal(got.candidate_input, want.candidate_input)
