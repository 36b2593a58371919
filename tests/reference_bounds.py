"""Cache-free textbook DeepPoly and IBP: the oracle for the bound kernels.

A direct transcription of both analyses for one sub-problem at a time: no
batch axis, no cache, no parent reuse, and one backward pass per bounded
quantity.  Like the kernels, both bound a required output specification;
:func:`logit_spec` gives the rows ``[I; −I]`` whose lower bounds are the
logits' lower bounds and negated upper bounds.  ``reference_deeppoly``
also takes an optional parent report:
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
from repro.specs.properties import LinearOutputSpec

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


def logit_spec(output_dim):
    """The spec rows ``[I; −I]``: their lower bounds are the logits' lower
    bounds followed by their negated upper bounds."""
    identity = np.eye(output_dim)
    return LinearOutputSpec(np.vstack([identity, -identity]), np.zeros(2 * output_dim),
                            description="logit bounds")


def logit_bounds(report):
    """``(lower, upper)`` logit bounds of a report bounded on :func:`logit_spec`."""
    lower, negated_upper = np.split(report.spec_row_lower, 2)
    return lower, -negated_upper


def _spec_report(pre_activation, infeasible, spec_lower, candidate, method):
    return BoundReport(FlatBounds(pre_activation), spec_row_lower=spec_lower,
                       p_hat=float("inf") if infeasible else float(np.min(spec_lower)),
                       candidate_input=candidate, infeasible=infeasible, method=method)


def reference_deeppoly(network, box, splits, spec, lower_slopes=None, parent=None):
    """DeepPoly of one sub-problem (``splits=None`` is the root);
    ``lower_slopes`` is one array per hidden layer, and ``parent`` an
    optional report the child is bounded against."""
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
    spec_lower, _, spec_A = _deeppoly_bounds(
        network, spec.coefficients @ network.weights[-1],
        spec.coefficients @ network.biases[-1] + spec.offsets, relaxations, box)
    worst = int(np.argmin(spec_lower))
    return _spec_report(pre_activation, infeasible, spec_lower,
                        np.where(spec_A[worst] > 0, box.lower, box.upper),
                        "reference-deeppoly")


def _interval_image(weight, bias, lower, upper):
    positive, negative = np.maximum(weight, 0.0), np.minimum(weight, 0.0)
    return (positive @ lower + negative @ upper + bias,
            positive @ upper + negative @ lower + bias)


def reference_ibp(network, box, splits, spec):
    """Interval bound propagation of one sub-problem (``splits=None`` is the
    root); its candidate is the box centre."""
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
    spec_lower, _ = _interval_image(spec.coefficients, spec.offsets,
                                    output_lower, output_upper)
    return _spec_report(pre_activation, infeasible, spec_lower, box.center,
                        "reference-ibp")


def assert_report_matches(got, want, tolerance=TOLERANCE):
    """``got`` equals ``want`` to ``tolerance``; flags and corners exactly:
    the hidden bounds, the spec rows, ``p̂`` and the candidate."""
    assert got.infeasible == want.infeasible
    if want.p_hat == float("inf"):
        assert got.p_hat == want.p_hat
    else:
        assert abs(got.p_hat - want.p_hat) <= tolerance
    assert len(got.pre_activation_bounds) == len(want.pre_activation_bounds)
    for got_bounds, want_bounds in zip(got.pre_activation_bounds,
                                       want.pre_activation_bounds):
        np.testing.assert_allclose(got_bounds.lower, want_bounds.lower, rtol=0, atol=tolerance)
        np.testing.assert_allclose(got_bounds.upper, want_bounds.upper, rtol=0, atol=tolerance)
    np.testing.assert_allclose(got.spec_row_lower, want.spec_row_lower,
                               rtol=0, atol=tolerance)
    np.testing.assert_array_equal(got.candidate_input, want.candidate_input)
