"""Tests for repro.bab.heuristics (ReLU branching heuristics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bab.heuristics import (
    BaBSRHeuristic,
    BranchingContext,
    BranchingHeuristic,
    DeepSplitHeuristic,
    FSBHeuristic,
    RandomHeuristic,
    WidestHeuristic,
    available_heuristics,
    make_heuristic,
    output_sensitivities,
)
from repro.bounds.linear_form import ScalarBounds
from repro.bounds.report import BoundReport, FlatBounds
from repro.bounds.splits import ACTIVE, INACTIVE, ReluSplit, SplitAssignment
from repro.nn.network import LoweredNetwork
from repro.specs.properties import LinearOutputSpec
from repro.specs.robustness import local_robustness_spec
from repro.verifiers.appver import ApproximateVerifier

ALL_HEURISTICS = ["widest", "babsr", "deepsplit", "fsb", "random"]


@pytest.fixture()
def context(small_network):
    reference = np.array([0.4, 0.5, 0.6, 0.3])
    label = int(small_network.predict(reference.reshape(1, -1))[0])
    spec = local_robustness_spec(reference, 0.25, label, 3)
    appver = ApproximateVerifier(small_network, spec)
    outcome = appver.evaluate()
    splits = appver.root_splits
    return BranchingContext(network=appver.lowered, spec=spec.output_spec,
                            report=outcome.report, splits=splits,
                            evaluate_split=lambda split: appver.evaluate(
                                splits.with_split(split),
                                parent=(outcome.report, split)).p_hat)


class TestRegistry:
    def test_all_heuristics_registered(self):
        assert set(available_heuristics()) == set(ALL_HEURISTICS)

    @pytest.mark.parametrize("name", ALL_HEURISTICS)
    def test_make_heuristic(self, name):
        assert make_heuristic(name).name == name

    def test_unknown_heuristic_rejected(self):
        with pytest.raises(ValueError):
            make_heuristic("smartest")


class TestSelection:
    @pytest.mark.parametrize("name", ALL_HEURISTICS)
    def test_selects_an_unstable_neuron(self, name, context):
        neuron = make_heuristic(name).select(context)
        assert neuron in context.unstable_neurons()

    @pytest.mark.parametrize("name", ALL_HEURISTICS)
    def test_returns_none_when_everything_is_decided(self, name, context):
        splits = context.splits
        for layer, unit in context.report.unstable_neurons():
            splits = splits.with_split(ReluSplit(layer, unit, ACTIVE))
        leaf_context = BranchingContext(network=context.network, spec=context.spec,
                                        report=context.report, splits=splits)
        assert make_heuristic(name).select(leaf_context) is None

    def test_deterministic_heuristics_are_stable(self, context):
        for name in ("widest", "babsr", "deepsplit"):
            heuristic = make_heuristic(name)
            assert heuristic.select(context) == heuristic.select(context)

    def test_widest_picks_maximal_interval(self, context):
        neuron = WidestHeuristic().select(context)
        widths = {}
        for layer, unit in context.unstable_neurons():
            bounds = context.report.pre_activation_bounds[layer]
            widths[(layer, unit)] = bounds.upper[unit] - bounds.lower[unit]
        assert widths[neuron] == pytest.approx(max(widths.values()))

    def test_fsb_without_evaluator_falls_back(self, context):
        bare = BranchingContext(network=context.network, spec=context.spec,
                                report=context.report, splits=context.splits)
        neuron = FSBHeuristic(shortlist_size=3).select(bare)
        assert neuron in bare.unstable_neurons()

    def test_fsb_with_evaluator_picks_from_shortlist(self, context):
        heuristic = FSBHeuristic(shortlist_size=2)
        shortlist_scores = BaBSRHeuristic().scores(context, context.unstable_neurons())
        order = np.argsort(shortlist_scores)[::-1][:2]
        shortlist = {context.unstable_neurons()[int(i)] for i in order}
        assert heuristic.select(context) in shortlist

    def test_random_heuristic_is_seedable(self, context):
        a = RandomHeuristic(seed=1).select(context)
        b = RandomHeuristic(seed=1).select(context)
        assert a == b


class TestScores:
    def test_babsr_scores_nonnegative(self, context):
        scores = BaBSRHeuristic().scores(context, context.unstable_neurons())
        assert np.all(scores >= 0.0)

    def test_deepsplit_scores_at_least_direct_term(self, context):
        unstable = context.unstable_neurons()
        direct = DeepSplitHeuristic(indirect_weight=0.0).scores(context, unstable)
        combined = DeepSplitHeuristic(indirect_weight=1.0).scores(context, unstable)
        assert np.all(combined >= direct - 1e-12)

    def test_negative_indirect_weight_rejected(self):
        with pytest.raises(ValueError):
            DeepSplitHeuristic(indirect_weight=-0.5)

    def test_output_sensitivities_shapes(self, context):
        sensitivities = output_sensitivities(context.network, context.spec, context.report)
        assert len(sensitivities) == context.network.num_relu_layers
        for layer, sizes in enumerate(context.network.relu_layer_sizes()):
            assert sensitivities[layer].shape == (sizes,)
            assert np.all(sensitivities[layer] >= 0.0)


# ---------------------------------------------------------------------------
# Oracles: the per-neuron formulas the vectorised code replaced
# ---------------------------------------------------------------------------

def oracle_deepsplit_scores(network, spec, report, unstable, indirect_weight):
    """DeepSplit via one |d z_later / d h_layer| matrix chain per neuron."""
    slopes, gaps = [], []
    for bounds in report.pre_activation_bounds:
        lower, upper = bounds.lower, bounds.upper
        straddles = (lower < 0.0) & (upper > 0.0)
        denominator = np.where(straddles, upper - lower, 1.0)
        slopes.append(np.where(straddles, upper / denominator,
                               np.where(upper <= 0.0, 0.0, 1.0)))
        gaps.append(np.where(straddles, upper * (-lower) / denominator, 0.0))
    sensitivities = output_sensitivities(network, spec, report)

    def chain(target, source):
        coefficients = network.weights[target]
        for layer in range(target - 1, source, -1):
            coefficients = (np.abs(coefficients) * slopes[layer]) \
                @ np.abs(network.weights[layer])
        return np.abs(coefficients)

    scores = np.empty(len(unstable))
    for index, (layer, unit) in enumerate(unstable):
        direct = gaps[layer][unit] * sensitivities[layer][unit]
        indirect = 0.0
        for later in range(layer + 1, network.num_relu_layers):
            later_gap_weight = gaps[later] * sensitivities[later]
            if np.any(later_gap_weight):
                indirect += float(later_gap_weight @ chain(later, layer)[:, unit])
        scores[index] = direct + indirect_weight * indirect
    return scores


def oracle_unstable_neurons(report, splits=None, tolerance=0.0):
    """The per-unit double loop ``BoundReport.unstable_neurons`` replaced."""
    unstable = []
    for layer, bounds in enumerate(report.pre_activation_bounds):
        for unit in range(bounds.size):
            if splits is not None and splits.is_decided(layer, unit):
                continue
            if bounds.lower[unit] < -tolerance and bounds.upper[unit] > tolerance:
                unstable.append((layer, unit))
    return unstable


def random_problem(seed, num_relu_layers=None, stable_layer=None):
    """A random lowered network, spec, bound report and split assignment.

    ``stable_layer`` makes every neuron of that layer stable, so its
    ``gap * sensitivity`` vector is all zero.
    """
    rng = np.random.default_rng(seed)
    if num_relu_layers is None:
        num_relu_layers = int(rng.integers(1, 5))
    widths = [int(rng.integers(2, 5))] \
        + [int(rng.integers(2, 9)) for _ in range(num_relu_layers)] + [3]
    weights = tuple(rng.normal(size=(widths[i + 1], widths[i]))
                    for i in range(len(widths) - 1))
    biases = tuple(rng.normal(size=width) for width in widths[1:])
    network = LoweredNetwork(weights, biases, (widths[0],))
    spec = LinearOutputSpec(rng.normal(size=(2, 3)), rng.normal(size=2))
    bounds = []
    for layer, width in enumerate(widths[1:-1]):
        centre = rng.normal(size=width)
        radius = rng.uniform(0.0, 1.5, size=width)
        if layer == stable_layer:
            centre = np.where(centre >= 0.0, 1.0, -1.0) * (radius + 0.1)
        bounds.append(ScalarBounds(centre - radius, centre + radius))
    report = BoundReport(hidden_bounds=FlatBounds(bounds),
                         spec_row_lower=-np.ones(2), p_hat=-1.0,
                         candidate_input=np.zeros(widths[0]))
    splits = SplitAssignment.empty(widths[1:-1])
    for layer, unit in report.unstable_neurons():
        if rng.random() < 0.25:
            phase = ACTIVE if rng.random() < 0.5 else INACTIVE
            splits = splits.with_split(ReluSplit(layer, unit, phase))
    return network, spec, report, splits


ORACLE_CASES = ([(seed, None, None) for seed in range(40)]
                + [(100 + seed, 1, None) for seed in range(5)]
                + [(200 + seed, 4, stable) for seed, stable in enumerate((0, 1, 2, 3))])


class TestVectorisedOracles:
    @pytest.mark.parametrize("seed,num_relu_layers,stable_layer", ORACLE_CASES)
    @pytest.mark.parametrize("indirect_weight", [0.5, 1.0])
    def test_deepsplit_matches_matrix_chain(self, seed, num_relu_layers, stable_layer,
                                            indirect_weight):
        network, spec, report, splits = random_problem(seed, num_relu_layers, stable_layer)
        context = BranchingContext(network=network, spec=spec, report=report, splits=splits)
        unstable = context.unstable_neurons()
        scores = DeepSplitHeuristic(indirect_weight).scores(context, unstable)
        oracle = oracle_deepsplit_scores(network, spec, report, unstable, indirect_weight)
        np.testing.assert_allclose(scores, oracle, rtol=1e-12, atol=0.0)
        if len(unstable) >= 2:
            top, runner_up = np.sort(oracle)[::-1][:2]
            if top - runner_up > 1e-9 * abs(top):
                assert np.argmax(scores) == np.argmax(oracle)

    @pytest.mark.parametrize("seed", range(10))
    def test_babsr_and_widest_bit_identical_to_per_neuron_loop(self, seed):
        network, spec, report, splits = random_problem(seed)
        context = BranchingContext(network=network, spec=spec, report=report, splits=splits)
        unstable = context.unstable_neurons()
        oracle = oracle_deepsplit_scores(network, spec, report, unstable, 0.0)
        babsr = BaBSRHeuristic().scores(context, unstable)
        assert babsr.tobytes() == oracle.tobytes()
        widest = WidestHeuristic().scores(context, unstable)
        expected = [report.pre_activation_bounds[layer].upper[unit]
                    - report.pre_activation_bounds[layer].lower[unit]
                    for layer, unit in unstable]
        assert widest.tolist() == expected

    def test_stable_layer_contributes_no_indirect_effect(self):
        network, spec, report, splits = random_problem(7, 3, stable_layer=2)
        context = BranchingContext(network=network, spec=spec, report=report, splits=splits)
        unstable = context.unstable_neurons()
        assert all(layer != 2 for layer, _ in unstable)
        assert any(layer == 1 for layer, _ in unstable)
        direct = DeepSplitHeuristic(0.0).scores(context, unstable)
        combined = DeepSplitHeuristic(1.0).scores(context, unstable)
        # Layer 1 only feeds the all-stable layer 2: no indirect term.
        for index, (layer, _) in enumerate(unstable):
            if layer == 1:
                assert combined[index] == direct[index]

    def test_empty_neuron_list_scores_empty(self, context):
        for name in ("widest", "babsr", "deepsplit"):
            assert make_heuristic(name).scores(context, []).shape == (0,)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("tolerance", [0.0, 0.3])
    def test_unstable_neurons_matches_loop(self, seed, tolerance):
        _, _, report, splits = random_problem(seed)
        root = SplitAssignment.empty(np.diff(report.flat_bounds().offsets).tolist())
        for assignment in (None, root, splits):
            assert report.unstable_neurons(assignment, tolerance) == \
                oracle_unstable_neurons(report, assignment, tolerance)

    def test_out_of_range_splits_are_rejected(self):
        """A flat phase row has no place for a neuron outside its layers, so
        building such an assignment raises instead of wrapping the index."""
        _, _, report, splits = random_problem(3, 2)
        sizes = np.diff(report.flat_bounds().offsets).tolist()
        for far in (ReluSplit(0, 10_000, ACTIVE), ReluSplit(7, 0, INACTIVE),
                    ReluSplit(len(sizes), 0, ACTIVE), ReluSplit(0, sizes[0], INACTIVE)):
            with pytest.raises(ValueError, match="outside"):
                splits.with_split(far)
            with pytest.raises(ValueError, match="outside"):
                SplitAssignment.from_splits(sizes, [far])

    def test_unstable_neurons_are_plain_int_pairs(self):
        _, _, report, _ = random_problem(5)
        for layer, unit in report.unstable_neurons():
            assert type(layer) is int and type(unit) is int

    def test_point_box_has_no_unstable_neurons(self, small_network):
        reference = np.array([0.4, 0.5, 0.6, 0.3])
        label = int(small_network.predict(reference.reshape(1, -1))[0])
        spec = local_robustness_spec(reference, 0.0, label, 3)
        report = ApproximateVerifier(small_network, spec).evaluate().report
        assert report.unstable_neurons() == oracle_unstable_neurons(report) == []
        assert report.num_unstable == 0
        appver = ApproximateVerifier(small_network, spec)
        context = BranchingContext(network=appver.lowered, spec=spec.output_spec,
                                   report=report, splits=appver.root_splits)
        for name in ALL_HEURISTICS:
            assert make_heuristic(name).select(context) is None


# ---------------------------------------------------------------------------
# Reference: the per-layer scoring code the flat pass replaced, verbatim
# ---------------------------------------------------------------------------

def reference_relaxation_slopes(report):
    """Per-layer upper-relaxation slopes implied by the report's bounds."""
    slopes = []
    for bounds in report.pre_activation_bounds:
        lower, upper = bounds.lower, bounds.upper
        unstable = (lower < 0.0) & (upper > 0.0)
        slopes.append(np.where(unstable, upper / np.where(unstable, upper - lower, 1.0),
                               np.where(upper <= 0.0, 0.0, 1.0)))
    return slopes


def reference_output_sensitivities(network, spec, report):
    """Estimated |d margin / d h_layer| for every hidden layer."""
    slopes = reference_relaxation_slopes(report)
    coefficients = spec.coefficients @ network.weights[-1]
    sensitivities = [np.abs(coefficients).max(axis=0)]
    for layer in range(network.num_relu_layers - 1, 0, -1):
        coefficients = (coefficients * slopes[layer]) @ network.weights[layer]
        sensitivities.append(np.abs(coefficients).max(axis=0))
    sensitivities.reverse()
    return sensitivities


def reference_gap_weights(context):
    """Per-layer relaxation gap ``u(-l)/(u-l)`` (0 when stable) × output sensitivity."""
    sensitivities = reference_output_sensitivities(context.network, context.spec,
                                                   context.report)
    gap_weights = []
    for bounds, sensitivity in zip(context.report.pre_activation_bounds, sensitivities):
        lower, upper = bounds.lower, bounds.upper
        unstable = (lower < 0.0) & (upper > 0.0)
        denominator = np.where(unstable, upper - lower, 1.0)
        gap_weights.append(np.where(unstable, upper * (-lower) / denominator, 0.0)
                           * sensitivity)
    return gap_weights


def reference_gather(per_layer, neurons):
    """``per_layer[layer][unit]`` for every ``(layer, unit)`` in ``neurons``."""
    offsets = np.cumsum([0] + [values.size for values in per_layer])
    index = np.asarray(neurons, dtype=np.intp).reshape(-1, 2)
    return np.concatenate(per_layer)[offsets[index[:, 0]] + index[:, 1]]


def reference_deepsplit_scores(context, unstable, indirect_weight):
    """``direct + indirect_weight × indirect`` for each neuron."""
    slopes = reference_relaxation_slopes(context.report)
    gap_weights = reference_gap_weights(context)
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
    return (reference_gather(gap_weights, unstable)
            + indirect_weight * reference_gather(indirect, unstable))


def reference_scores(name, context, unstable):
    """The replaced code's scores of heuristic ``name`` (``deepsplit-W``: weight W)."""
    if name.startswith("deepsplit-"):
        return reference_deepsplit_scores(context, unstable, float(name.split("-")[1]))
    if name == "babsr":
        return reference_gather(reference_gap_weights(context), unstable)
    widths = [bounds.upper - bounds.lower for bounds in context.report.pre_activation_bounds]
    return reference_gather(widths, unstable)


def flat_heuristic(name):
    """The heuristic under test for a :func:`reference_scores` name."""
    if name.startswith("deepsplit-"):
        return DeepSplitHeuristic(float(name.split("-")[1]))
    return make_heuristic(name)


def reference_choice(scores, unstable):
    """The replaced ``select``: first maximum over the sorted unstable list."""
    return unstable[int(np.argmax(scores))] if unstable else None


def rescaled_problem(network, spec, seed):
    """Same shapes as ``network``/``spec``, different values."""
    rng = np.random.default_rng(seed)
    weights = tuple(weight * rng.uniform(0.5, 2.0, size=weight.shape)
                    for weight in network.weights)
    other = LoweredNetwork(weights, network.biases, network.input_shape)
    return other, LinearOutputSpec(rng.normal(size=spec.coefficients.shape), spec.offsets)


FLAT_NAMES = ["deepsplit-0.0", "deepsplit-0.5", "deepsplit-1.0", "babsr", "widest"]


class TestFlatPassBitExact:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           num_relu_layers=st.sampled_from([None, 1, 2, 4]),
           stable_layer=st.sampled_from([None, 0, 1]),
           split=st.booleans())
    def test_scores_and_choice_equal_reference(self, seed, num_relu_layers, stable_layer,
                                               split):
        network, spec, report, splits = random_problem(seed, num_relu_layers, stable_layer)
        if not split:
            splits = SplitAssignment.empty(network.relu_layer_sizes())
        context = BranchingContext(network=network, spec=spec, report=report, splits=splits)
        unstable = context.unstable_neurons()
        for name in FLAT_NAMES:
            reference = reference_scores(name, context, unstable)
            heuristic = flat_heuristic(name)
            scores = heuristic.scores(context, unstable)
            assert scores.tobytes() == reference.tobytes(), name
            assert np.array_equal(scores, reference), name
            assert heuristic.select(context) == reference_choice(reference, unstable), name

    def test_seeded_random_draws_one_number_per_candidate(self):
        heuristic = RandomHeuristic(seed=3)
        rng = np.random.default_rng(3)
        for seed in range(12):
            network, spec, report, splits = random_problem(seed)
            context = BranchingContext(network=network, spec=spec, report=report,
                                       splits=splits)
            unstable = context.unstable_neurons()
            expected = reference_choice(rng.random(len(unstable)), unstable)
            assert heuristic.select(context) == expected

    @pytest.mark.parametrize("name", FLAT_NAMES)
    def test_one_instance_alternating_problems_never_reuses_constants(self, name):
        network, spec, report, splits = random_problem(21, 3)
        other_network, other_spec = rescaled_problem(network, spec, 5)
        heuristic = flat_heuristic(name)
        # Consecutive pairs change only the spec, then only the network.
        pairs = [(network, spec), (network, other_spec),
                 (other_network, other_spec), (other_network, spec)] * 2
        for pair_network, pair_spec in pairs:
            context = BranchingContext(network=pair_network, spec=pair_spec,
                                       report=report, splits=splits)
            unstable = context.unstable_neurons()
            reference = reference_scores(name, context, unstable)
            assert heuristic.scores(context, unstable).tobytes() == reference.tobytes()
            assert heuristic.select(context) == reference_choice(reference, unstable)

    def test_alternating_problems_pick_different_neurons(self):
        # The alternation above is only a leak check if the two problems disagree.
        network, spec, report, splits = random_problem(21, 3)
        other_network, other_spec = rescaled_problem(network, spec, 5)
        choices = set()
        for pair in ((network, spec), (other_network, other_spec)):
            context = BranchingContext(network=pair[0], spec=pair[1], report=report,
                                       splits=splits)
            unstable = context.unstable_neurons()
            choices.add(reference_choice(
                reference_scores("deepsplit-0.5", context, unstable), unstable))
        assert len(choices) == 2

    @pytest.mark.parametrize("name", ALL_HEURISTICS)
    def test_only_fsb_overrides_select(self, name):
        overrides = type(make_heuristic(name)).select is not BranchingHeuristic.select
        assert overrides == (name == "fsb")
