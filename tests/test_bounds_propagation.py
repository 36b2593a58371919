"""Soundness and tightness tests for DeepPoly and α-CROWN bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_bounds import logit_bounds, logit_spec, reference_ibp

from repro.bounds.alpha_crown import AlphaCrownAnalyzer, AlphaCrownConfig
from repro.bounds.deeppoly import DeepPolyAnalyzer, default_lower_slope
from repro.bounds.splits import ACTIVE, INACTIVE, ReluSplit, SplitAssignment
from repro.nn.network import dense_network
from repro.specs.robustness import local_robustness_spec
from repro.specs.properties import InputBox


def robustness_problem(network, reference, epsilon):
    reference = np.asarray(reference, dtype=float)
    label = int(network.predict(reference.reshape(1, -1))[0])
    return local_robustness_spec(reference, epsilon, label, network.output_dim)


def deeppoly_report(lowered, box, splits=None, spec=None, lower_slopes=None):
    """DeepPoly of one sub-problem, on the logit rows when no spec is given."""
    spec = logit_spec(lowered.output_dim) if spec is None else spec
    return DeepPolyAnalyzer(lowered).analyze(box, splits, spec=spec,
                                             lower_slopes=lower_slopes)


def alpha_crown_report(lowered, box, spec, config):
    return AlphaCrownAnalyzer(lowered, config).analyze(box, spec=spec)


class TestLogitRows:
    def test_logit_bounds_contain_samples(self, small_network):
        spec = robustness_problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.1)
        lowered = small_network.lowered()
        logits = deeppoly_report(lowered, spec.input_box)
        report = deeppoly_report(lowered, spec.input_box, spec=spec.output_spec)
        lower, upper = logit_bounds(logits)
        for sample in spec.input_box.sample(0, count=200):
            output = lowered.forward(sample)[0]
            assert np.all(lower <= output + 1e-9) and np.all(output <= upper + 1e-9)
            assert spec.output_spec.margin(output) >= report.p_hat - 1e-9

    def test_pre_activation_bounds_contain_samples(self, small_network):
        spec = robustness_problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.1)
        lowered = small_network.lowered()
        report = deeppoly_report(lowered, spec.input_box)
        for sample in spec.input_box.sample(1, count=50):
            for layer, pre in enumerate(lowered.pre_activations(sample)):
                assert report.pre_activation_bounds[layer].contains(pre, tolerance=1e-9)

    def test_degenerate_box_is_exact(self, small_network):
        point = np.array([0.3, 0.7, 0.2, 0.9])
        lowered = small_network.lowered()
        box = InputBox(point, point)
        lower, upper = logit_bounds(deeppoly_report(lowered, box))
        output = lowered.forward(point)[0]
        np.testing.assert_allclose(lower, output, atol=1e-9)
        np.testing.assert_allclose(upper, output, atol=1e-9)

    def test_infeasible_split_detected(self, small_network):
        lowered = small_network.lowered()
        point = np.array([0.3, 0.7, 0.2, 0.9])
        box = InputBox(point, point)
        pre = lowered.pre_activations(point)[0]
        # Force a neuron into the phase it certainly does not have.
        unit = int(np.argmax(np.abs(pre)))
        wrong_phase = INACTIVE if pre[unit] > 0 else ACTIVE
        splits = SplitAssignment.from_splits(lowered.relu_layer_sizes(), [ReluSplit(0, unit, wrong_phase)])
        report = deeppoly_report(lowered, box, splits=splits)
        assert report.infeasible


class TestDeepPoly:
    def test_soundness_on_spec_margin(self, small_network):
        spec = robustness_problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.15)
        lowered = small_network.lowered()
        report = deeppoly_report(lowered, spec.input_box, spec=spec.output_spec)
        for sample in spec.input_box.sample(2, count=300):
            margin = spec.output_spec.margin(lowered.forward(sample)[0])
            assert margin >= report.p_hat - 1e-7

    def test_at_least_as_tight_as_interval(self, small_network):
        spec = robustness_problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.1)
        lowered = small_network.lowered()
        dp = deeppoly_report(lowered, spec.input_box, spec=spec.output_spec)
        ibp = reference_ibp(lowered, spec.input_box, None, spec.output_spec)
        assert dp.p_hat >= ibp.p_hat - 1e-9
        for layer in range(lowered.num_relu_layers):
            assert np.all(dp.pre_activation_bounds[layer].lower
                          >= ibp.pre_activation_bounds[layer].lower - 1e-7)
            assert np.all(dp.pre_activation_bounds[layer].upper
                          <= ibp.pre_activation_bounds[layer].upper + 1e-7)

    def test_candidate_is_inside_box(self, small_network):
        spec = robustness_problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.2)
        report = deeppoly_report(small_network.lowered(), spec.input_box,
                                 spec=spec.output_spec)
        assert spec.input_box.contains(report.candidate_input)

    def test_split_removes_the_neuron_from_the_unstable_set(self, small_network):
        spec = robustness_problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.25)
        lowered = small_network.lowered()
        analyzer = DeepPolyAnalyzer(lowered)
        root = analyzer.analyze(spec.input_box, spec=spec.output_spec)
        unstable = root.unstable_neurons()
        assert unstable, "test requires at least one unstable neuron"
        layer, unit = unstable[0]
        for phase in (ACTIVE, INACTIVE):
            splits = SplitAssignment.from_splits(lowered.relu_layer_sizes(), [ReluSplit(layer, unit, phase)])
            child = analyzer.analyze(spec.input_box, splits=splits, spec=spec.output_spec)
            assert (layer, unit) not in child.unstable_neurons(splits)
            assert np.isfinite(child.p_hat)

    def test_split_clips_pre_activation_bounds(self, small_network):
        spec = robustness_problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.25)
        lowered = small_network.lowered()
        analyzer = DeepPolyAnalyzer(lowered)
        root = analyzer.analyze(spec.input_box, spec=spec.output_spec)
        layer, unit = root.unstable_neurons()[0]
        active = analyzer.analyze(spec.input_box, spec=spec.output_spec,
                                  splits=analyzer.root_splits.with_split(
                                      ReluSplit(layer, unit, ACTIVE)))
        inactive = analyzer.analyze(spec.input_box, spec=spec.output_spec,
                                    splits=analyzer.root_splits.with_split(
                                        ReluSplit(layer, unit, INACTIVE)))
        assert active.pre_activation_bounds[layer].lower[unit] >= -1e-12
        assert inactive.pre_activation_bounds[layer].upper[unit] <= 1e-12

    def test_split_soundness_over_restricted_region(self, small_network):
        """The split bound must hold for inputs that satisfy the split constraints."""
        spec = robustness_problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.25)
        lowered = small_network.lowered()
        analyzer = DeepPolyAnalyzer(lowered)
        root = analyzer.analyze(spec.input_box, spec=spec.output_spec)
        unstable = root.unstable_neurons()
        layer, unit = unstable[0]
        for phase in (ACTIVE, INACTIVE):
            splits = SplitAssignment.from_splits(lowered.relu_layer_sizes(), [ReluSplit(layer, unit, phase)])
            report = analyzer.analyze(spec.input_box, splits=splits, spec=spec.output_spec)
            if report.infeasible:
                continue
            for sample in spec.input_box.sample(layer + phase + 5, count=300):
                pre = lowered.pre_activations(sample)
                if not splits.satisfied_by(pre):
                    continue
                margin = spec.output_spec.margin(lowered.forward(sample)[0])
                assert margin >= report.p_hat - 1e-7

    def test_fully_split_problem_has_no_unstable_neurons_and_stays_sound(self):
        network = dense_network([3, 4, 4, 2], seed=9)
        spec = robustness_problem(network, [0.5, 0.5, 0.5], 0.3)
        lowered = network.lowered()
        analyzer = DeepPolyAnalyzer(lowered)
        splits = analyzer.root_splits
        report = analyzer.analyze(spec.input_box, spec=spec.output_spec)
        # Greedily fix every unstable neuron to its ACTIVE phase.
        while report.unstable_neurons(splits):
            layer, unit = report.unstable_neurons(splits)[0]
            splits = splits.with_split(ReluSplit(layer, unit, ACTIVE))
            report = analyzer.analyze(spec.input_box, splits=splits, spec=spec.output_spec)
        assert report.unstable_neurons(splits) == []
        # The bound remains sound over the inputs that satisfy the splits.
        if not report.infeasible:
            for sample in spec.input_box.sample(11, count=400):
                pre = lowered.pre_activations(sample)
                if not splits.satisfied_by(pre):
                    continue
                margin = spec.output_spec.margin(lowered.forward(sample)[0])
                assert margin >= report.p_hat - 1e-7

    def test_custom_lower_slopes_remain_sound(self, small_network):
        spec = robustness_problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.2)
        lowered = small_network.lowered()
        rng = np.random.default_rng(4)
        slopes = [rng.random(size) for size in lowered.relu_layer_sizes()]
        report = deeppoly_report(lowered, spec.input_box, spec=spec.output_spec,
                                 lower_slopes=slopes)
        for sample in spec.input_box.sample(5, count=200):
            margin = spec.output_spec.margin(lowered.forward(sample)[0])
            assert margin >= report.p_hat - 1e-7

    def test_default_lower_slope(self):
        slopes = default_lower_slope(np.array([-1.0, -3.0]), np.array([2.0, 1.0]))
        np.testing.assert_allclose(slopes, [1.0, 0.0])

    def test_wrong_box_dimension_rejected(self, small_network):
        with pytest.raises(ValueError):
            deeppoly_report(small_network.lowered(), InputBox([0.0], [1.0]))

    def test_spec_is_required(self, small_network):
        spec = robustness_problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.1)
        analyzer = DeepPolyAnalyzer(small_network.lowered())
        with pytest.raises(TypeError):
            analyzer.analyze(spec.input_box)
        with pytest.raises(TypeError):
            analyzer.analyze_batch(spec.input_box, [None])


class TestAlphaCrown:
    def test_never_looser_than_deeppoly(self, small_network):
        spec = robustness_problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.2)
        lowered = small_network.lowered()
        dp = deeppoly_report(lowered, spec.input_box, spec=spec.output_spec)
        alpha = alpha_crown_report(lowered, spec.input_box, spec=spec.output_spec,
                                   config=AlphaCrownConfig(iterations=5))
        assert alpha.p_hat >= dp.p_hat - 1e-9

    def test_soundness(self, small_network):
        spec = robustness_problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.2)
        lowered = small_network.lowered()
        report = alpha_crown_report(lowered, spec.input_box, spec=spec.output_spec,
                                    config=AlphaCrownConfig(iterations=4))
        for sample in spec.input_box.sample(6, count=200):
            margin = spec.output_spec.margin(lowered.forward(sample)[0])
            assert margin >= report.p_hat - 1e-7

    def test_spec_is_required(self, small_network):
        spec = robustness_problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.1)
        analyzer = AlphaCrownAnalyzer(small_network.lowered())
        with pytest.raises(TypeError):
            analyzer.analyze(spec.input_box)
        with pytest.raises(TypeError):
            analyzer.analyze_batch(spec.input_box, [None])

    def test_zero_iterations_equals_deeppoly(self, small_network):
        spec = robustness_problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.1)
        lowered = small_network.lowered()
        dp = deeppoly_report(lowered, spec.input_box, spec=spec.output_spec)
        alpha = alpha_crown_report(lowered, spec.input_box, spec=spec.output_spec,
                                   config=AlphaCrownConfig(iterations=0))
        assert alpha.p_hat == pytest.approx(dp.p_hat)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            AlphaCrownConfig(iterations=-1)
        with pytest.raises(ValueError):
            AlphaCrownConfig(step_size=0.0)

    def test_optimiser_is_deterministic_without_seed(self, small_network):
        """The exact-gradient ascent draws nothing: no seed or perturbation."""
        for field in ("seed", "perturbation"):
            with pytest.raises(TypeError):
                AlphaCrownConfig(**{field: 0.1})
        spec = robustness_problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.2)
        lowered = small_network.lowered()
        first, second = (alpha_crown_report(lowered, spec.input_box,
                                            spec.output_spec, None)
                         for _ in range(2))
        assert first.p_hat == second.p_hat


class TestBoundReport:
    def test_unstable_neurons_excludes_decided(self, small_network):
        spec = robustness_problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.3)
        lowered = small_network.lowered()
        report = deeppoly_report(lowered, spec.input_box, spec=spec.output_spec)
        unstable = report.unstable_neurons()
        assert unstable
        layer, unit = unstable[0]
        splits = SplitAssignment.from_splits(lowered.relu_layer_sizes(), [ReluSplit(layer, unit, ACTIVE)])
        remaining = report.unstable_neurons(splits)
        assert (layer, unit) not in remaining
        assert len(remaining) == len(unstable) - 1

    def test_verified_flag(self, small_network):
        spec = robustness_problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.001)
        report = deeppoly_report(small_network.lowered(), spec.input_box,
                                 spec=spec.output_spec)
        assert report.verified == (report.p_hat > 0)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5000),
       epsilon=st.floats(min_value=0.01, max_value=0.4))
def test_deeppoly_soundness_property(seed, epsilon):
    """Property: DeepPoly's p̂ is a sound lower bound of the margin for random networks."""
    rng = np.random.default_rng(seed)
    network = dense_network([3, 5, 4, 2], seed=seed)
    lowered = network.lowered()
    reference = rng.random(3)
    label = int(network.predict(reference.reshape(1, -1))[0])
    spec = local_robustness_spec(reference, epsilon, label, 2)
    report = deeppoly_report(lowered, spec.input_box, spec=spec.output_spec)
    samples = spec.input_box.sample(rng, count=60)
    margins = [spec.output_spec.margin(lowered.forward(s)[0]) for s in samples]
    assert min(margins) >= report.p_hat - 1e-7
