"""Live-column back-substitution edge cases against the textbook oracle.

:class:`~repro.bounds.deeppoly.DeepPolyAnalyzer` substitutes only through
the ReLU columns that some row of the batch keeps: a column whose lower
slope, upper slope and upper intercept are zero in every row is dropped
together with its weight row.  Dropping such a column changes no bound,
so every case here must agree with the cache-free DeepPoly of
``tests/reference_bounds.py`` to 1e-9, with flags and corners exact.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import make_random_dense_problem
from reference_bounds import assert_report_matches, reference_deeppoly

from repro.bounds.cache import BoundCache
from repro.bounds.deeppoly import DeepPolyAnalyzer, _live_step
from repro.bounds.splits import ACTIVE, INACTIVE, ReluSplit, SplitAssignment
from repro.nn import dense_network
from repro.nn.network import LoweredNetwork
from repro.specs.robustness import local_robustness_spec


def _shifted(network: LoweredNetwork, shifts) -> LoweredNetwork:
    """``network`` with ``shifts[l]`` added to hidden layer ``l``'s biases."""
    biases = [bias + shift for bias, shift in zip(network.biases, shifts)]
    biases += list(network.biases[len(shifts):])
    return LoweredNetwork(tuple(network.weights), tuple(biases), network.input_shape)


def _assert_batch_matches_reference(network, spec, batch, lower_slopes=None):
    analyzer = DeepPolyAnalyzer(network)
    box = spec.input_box
    reports = analyzer.analyze_batch(box, batch, spec=spec.output_spec,
                                     lower_slopes=lower_slopes)
    for row, (splits, report) in enumerate(zip(batch, reports)):
        row_slopes = (None if lower_slopes is None
                      else [slopes[row] for slopes in lower_slopes])
        assert_report_matches(report, reference_deeppoly(
            network, box, splits, spec.output_spec, lower_slopes=row_slopes))
    return reports


def _splits(*decisions):
    return SplitAssignment.from_splits([ReluSplit(*decision) for decision in decisions])


class TestLiveStep:
    def test_drops_exactly_the_columns_zero_in_every_row(self):
        relaxation = np.zeros((3, 2, 5))
        relaxation[0, 0, 1] = 1.0      # live through one row's lower slope
        relaxation[1, 1, 3] = 0.5      # α = 0 on an unstable neuron: upper slope only
        relaxation[2, 0, 4] = np.nan   # an overflowed intercept is never dead
        weight = np.arange(15.0).reshape(5, 3)
        bias = np.arange(5.0)
        (ls, us, ui, live_weight, live_bias), live = _live_step(relaxation, weight, bias)
        np.testing.assert_array_equal(live, [1, 3, 4])
        np.testing.assert_array_equal(live_weight, weight[[1, 3, 4]])
        np.testing.assert_array_equal(live_bias, bias[[1, 3, 4]])
        assert ls.shape == us.shape == (2, 1, 3)
        assert ui.shape == (2, 3, 1)
        np.testing.assert_array_equal(us[1, 0], [0.0, 0.5, 0.0])

    def test_all_live_keeps_the_arrays(self):
        relaxation = np.ones((3, 1, 4))
        weight = np.ones((4, 2))
        bias = np.zeros(4)
        (ls, _, _, live_weight, live_bias), live = _live_step(relaxation, weight, bias)
        assert live is None
        assert live_weight is weight and live_bias is bias
        assert np.shares_memory(ls, relaxation)

    def test_all_dead_gives_an_empty_step(self):
        (ls, _, ui, live_weight, live_bias), live = _live_step(
            np.zeros((3, 2, 4)), np.ones((4, 3)), np.ones(4))
        assert len(live) == 0
        assert ls.shape == (2, 1, 0) and ui.shape == (2, 0, 1)
        assert live_weight.shape == (0, 3) and live_bias.shape == (0,)


class TestLiveColumnsMatchReference:
    def test_network_without_hidden_layer(self):
        network = dense_network([4, 3], seed=5, name="affine").lowered()
        assert network.num_relu_layers == 0
        reference = np.array([0.3, 0.6, 0.5, 0.2])
        spec = local_robustness_spec(reference, 0.1, 0, 3)
        reports = _assert_batch_matches_reference(network, spec, [None, None])
        assert_report_matches(DeepPolyAnalyzer(network).analyze(
            spec.input_box, spec=spec.output_spec), reports[0])

    def test_layer_dead_in_every_row(self):
        network, spec = make_random_dense_problem(3, 3, 5, 0.2)
        network = _shifted(network, [0.0, -1e3])
        report = reference_deeppoly(network, spec.input_box, None, spec.output_spec)
        assert np.all(report.pre_activation_bounds[1].upper <= 0.0)
        free = [(0, unit) for unit in range(5)]
        batch = [None, _splits((*free[0], ACTIVE)), _splits((*free[1], INACTIVE))]
        _assert_batch_matches_reference(network, spec, batch)

    def test_rows_with_disjoint_dead_sets(self):
        """Each row kills a different neuron: a column dead in one row only
        stays live, the two dead in every row go, and every row still
        equals the reference and its own ``B = 1`` call."""
        network, spec = make_random_dense_problem(13, 2, 6, 0.3)
        network = _shifted(network, [np.r_[np.full(2, -1e3), np.zeros(4)]])
        root = reference_deeppoly(network, spec.input_box, None, spec.output_spec)
        layer0 = root.pre_activation_bounds[0]
        assert np.all(layer0.upper[:2] <= 0.0) and np.all(layer0.upper[2:] > 0.0)
        batch = [_splits((0, unit, INACTIVE)) for unit in range(2, 6)]
        reports = _assert_batch_matches_reference(network, spec, batch)
        analyzer = DeepPolyAnalyzer(network)
        for splits, report in zip(batch, reports):
            assert_report_matches(report, analyzer.analyze(
                spec.input_box, splits, spec=spec.output_spec))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 3),
           width=st.integers(2, 6))
    def test_zero_alpha_on_unstable_neurons(self, seed, depth, width):
        """α = 0 zeroes an unstable neuron's lower slope; its upper slope
        keeps the column live, so the upper bounds stay exact."""
        network, spec = make_random_dense_problem(seed, depth, width, 0.3)
        root = reference_deeppoly(network, spec.input_box, None, spec.output_spec)
        assume(root.unstable_neurons())
        batch = [None, None]
        slopes = [np.zeros((2, size)) for size in network.relu_layer_sizes()]
        slopes[0][1] = 1.0
        _assert_batch_matches_reference(network, spec, batch, lower_slopes=slopes)


def _random_batch(rng, network, size: int):
    """``size`` assignments of up to three random splits each."""
    neurons = [(layer, unit) for layer, width in enumerate(network.relu_layer_sizes())
               for unit in range(width)]
    batch = []
    for _ in range(size):
        count = min(int(rng.integers(0, 4)), len(neurons))
        chosen = rng.choice(len(neurons), size=count, replace=False)
        batch.append(_splits(*[(*neurons[int(index)],
                                ACTIVE if rng.random() < 0.5 else INACTIVE)
                               for index in chosen]))
    return batch


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), depth=st.integers(1, 3),
       width=st.integers(2, 7), size=st.integers(1, 6),
       shift=st.floats(0.0, 2.0), epsilon=st.floats(0.01, 0.4))
def test_negative_biases_match_reference(seed, depth, width, size, shift, epsilon):
    """Biases shifted down make dead columns common; every row of the
    batch still equals the reference."""
    network, spec = make_random_dense_problem(seed, depth, width, epsilon)
    network = _shifted(network, [-shift] * depth)
    batch = _random_batch(np.random.default_rng(seed), network, size)
    _assert_batch_matches_reference(network, spec, batch)


@pytest.mark.parametrize("phase", [ACTIVE, INACTIVE])
def test_incremental_child_of_a_partly_dead_layer(phase):
    """A child resolved through its parent's cached layer equals the
    reference when the parent's batch dropped columns."""
    network, spec = make_random_dense_problem(21, 2, 6, 0.3)
    network = _shifted(network, [np.r_[np.full(3, -1e3), np.zeros(3)]])
    analyzer = DeepPolyAnalyzer(network)
    box = spec.input_box
    cache = BoundCache()
    parent = SplitAssignment.empty()
    analyzer.analyze(box, parent, spec=spec.output_spec, cache=cache)
    children = [parent.with_split(ReluSplit(0, unit, phase)) for unit in range(3, 6)]
    reports = analyzer.analyze_batch(box, children, spec=spec.output_spec, cache=cache,
                                     parents=[parent] * len(children))
    for child, report in zip(children, reports):
        assert_report_matches(report, reference_deeppoly(network, box, child,
                                                         spec.output_spec))
