"""Tests for repro.verifiers.attack (FGSM / PGD falsification substrate)."""

from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import Conv2d, Dense, Flatten, ReLU
from repro.nn.network import LoweredNetwork, Network, dense_network
from repro.nn.zoo import build_trained_model
from repro.specs.properties import Specification
from repro.specs.robustness import local_robustness_spec
from repro.utils.rng import SeedLike, as_rng
from repro.verifiers import attack
from repro.verifiers.attack import (
    AttackConfig,
    AttackResult,
    empirical_robustness_radius,
    fgsm,
    margin_and_gradient,
    pgd_attack,
)


def problem(network, reference, epsilon):
    reference = np.asarray(reference, dtype=float)
    label = int(network.predict(reference.reshape(1, -1))[0])
    return local_robustness_spec(reference, epsilon, label, network.output_dim)


def _reference_margin_and_gradient(network, spec, point):
    """The layer-by-layer margin and input gradient (real forward/backward)."""
    point = np.asarray(point, dtype=float).reshape(1, -1)
    output = network.forward(point)[0]
    values = spec.constraint_values(output)
    worst_row = int(np.argmin(values))
    grad_output = np.zeros((1, spec.output_dim))
    grad_output[0] = spec.coefficients[worst_row]
    grad_input = network.backward(grad_output).reshape(-1)
    return float(values[worst_row]), grad_input


def _checked_margin_and_gradient(network, spec, point):
    """The one-row re-checked evaluation the sequential reference steps with."""
    margin, gradient = margin_and_gradient(network, spec.output_spec, point)
    if margin < 0.0:
        margin = spec.margin(network, point)
    return margin, gradient


def sequential_pgd_attack(network: Network, spec: Specification,
                          config: Optional[AttackConfig] = None,
                          start: Optional[np.ndarray] = None,
                          rng: SeedLike = None) -> AttackResult:
    """The restart-by-restart PGD loop the lockstep attack must reproduce.

    A verbatim copy of the sequential ``pgd_attack``: each restart runs
    alone, one single-row evaluation per step.
    """
    config = config or AttackConfig()
    rng = as_rng(config.seed if rng is None else rng)
    box = spec.input_box
    step = config.step_fraction * np.maximum(box.upper - box.lower, 1e-12)

    best_point = box.center
    best_margin, _ = _checked_margin_and_gradient(network, spec, best_point)
    iterations = 0

    starts = []
    if start is not None:
        starts.append(box.clip(start))
    starts.append(box.center)
    while len(starts) < config.restarts:
        starts.append(box.sample(rng, 1)[0])

    for start_point in starts[:config.restarts]:
        point = start_point.copy()
        for _ in range(config.steps):
            margin, gradient = _checked_margin_and_gradient(network, spec, point)
            iterations += 1
            if margin < best_margin:
                best_margin, best_point = margin, point.copy()
            if margin < 0.0:
                return AttackResult(point.copy(), margin, iterations)
            point = box.clip(point - step * np.sign(gradient))
        margin, _ = _checked_margin_and_gradient(network, spec, point)
        iterations += 1
        if margin < best_margin:
            best_margin, best_point = margin, point.copy()
        if best_margin < 0.0:
            break
    return AttackResult(best_point, best_margin, iterations)


def strided_conv_network(seed=0):
    layers = [Conv2d(2, 3, kernel_size=3, stride=2, padding=1, seed=seed), ReLU(),
              Conv2d(3, 2, kernel_size=3, stride=1, padding=1, seed=seed + 1), ReLU(),
              Flatten(), Dense(2 * 4 * 4, 6, seed=seed + 2), ReLU(),
              Dense(6, 3, seed=seed + 3)]
    return Network(layers, (2, 7, 7), name="conv-strided")


def assert_matches_reference(network, spec, points):
    for point in points:
        margin, gradient = margin_and_gradient(network, spec.output_spec, point)
        expected_margin, expected_gradient = _reference_margin_and_gradient(
            network, spec.output_spec, point)
        assert gradient.shape == (network.input_dim,)
        assert abs(margin - expected_margin) <= 1e-12
        np.testing.assert_allclose(gradient, expected_gradient, rtol=1e-9, atol=1e-12)


class TestMarginAndGradient:
    def test_margin_matches_spec(self, small_network):
        spec = problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.1)
        point = spec.input_box.center
        margin, _ = margin_and_gradient(small_network, spec.output_spec, point)
        output = small_network.forward(point.reshape(1, -1))[0]
        assert margin == pytest.approx(spec.output_spec.margin(output))

    def test_gradient_matches_numerical(self, small_network):
        spec = problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.1)
        point = spec.input_box.center + 1e-3  # avoid kinks right at the centre
        _, gradient = margin_and_gradient(small_network, spec.output_spec, point)
        numeric = np.zeros_like(point)
        eps = 1e-6
        for index in range(point.size):
            perturbed = point.copy()
            perturbed[index] += eps
            up, _ = margin_and_gradient(small_network, spec.output_spec, perturbed)
            perturbed[index] -= 2 * eps
            down, _ = margin_and_gradient(small_network, spec.output_spec, perturbed)
            numeric[index] = (up - down) / (2 * eps)
        np.testing.assert_allclose(gradient, numeric, atol=1e-4)

    def test_lowered_matches_layer_path_on_dense(self, small_network, trained_network):
        spec = problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.3)
        points = spec.input_box.sample(0, 10)
        assert_matches_reference(small_network, spec, points)
        network, dataset = trained_network
        image, label = dataset.sample(2)
        spec = local_robustness_spec(image.reshape(-1), 0.2, label, dataset.num_classes)
        assert_matches_reference(network, spec, spec.input_box.sample(1, 10))

    def test_lowered_matches_layer_path_on_strided_conv(self):
        network = strided_conv_network()
        reference = np.random.default_rng(3).random(network.input_dim)
        spec = problem(network, reference, 0.3)
        assert_matches_reference(network, spec, spec.input_box.sample(2, 10))

    def test_lowered_matches_layer_path_on_trained_cifar_base(self):
        network, dataset = build_trained_model("CIFAR_BASE", seed=0)
        image, label = dataset.sample(0)
        spec = local_robustness_spec(image.reshape(-1), 0.05, label, dataset.num_classes)
        assert_matches_reference(network, spec, spec.input_box.sample(3, 10))


class TestPgdAttack:
    def test_finds_counterexample_on_fragile_problem(self, trained_network):
        network, dataset = trained_network
        image, label = dataset.sample(0)
        reference = image.reshape(-1)
        # A huge radius always contains an adversarial example for a
        # multi-class classifier that is not constant.
        spec = local_robustness_spec(reference, 0.9, label, dataset.num_classes)
        result = pgd_attack(network, spec, AttackConfig(steps=40, restarts=4, seed=0))
        assert result.is_counterexample
        assert spec.input_box.contains(result.best_input)
        assert spec.is_counterexample(network, result.best_input)

    def test_reports_best_margin_even_when_robust(self, small_network):
        spec = problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.01)
        result = pgd_attack(small_network, spec, AttackConfig(steps=5, restarts=2))
        assert result.best_margin >= 0.0
        assert spec.input_box.contains(result.best_input)

    def test_result_stays_in_box(self, small_network):
        spec = problem(small_network, [0.05, 0.95, 0.5, 0.2], 0.3)
        result = pgd_attack(small_network, spec, AttackConfig(steps=15, restarts=3))
        assert spec.input_box.contains(result.best_input)

    def test_deterministic_for_seed(self, small_network):
        spec = problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.2)
        a = pgd_attack(small_network, spec, AttackConfig(steps=10, restarts=2, seed=3))
        b = pgd_attack(small_network, spec, AttackConfig(steps=10, restarts=2, seed=3))
        np.testing.assert_allclose(a.best_input, b.best_input)
        assert a.best_margin == pytest.approx(b.best_margin)

    def test_lowered_only_violation_is_not_a_counterexample(self, monkeypatch):
        network = dense_network([4, 8, 6, 3], seed=1)
        spec = problem(network, [0.4, 0.5, 0.6, 0.3], 0.01)
        label = int(np.argmax(spec.output_spec.coefficients[0]))
        real = network.lowered()
        biases = list(real.biases)
        biases[-1] = biases[-1].copy()
        biases[-1][label] -= 1e3  # the lowered form loses the label everywhere
        lowered = LoweredNetwork(real.weights, tuple(biases), real.input_shape)
        monkeypatch.setattr(network, "lowered", lambda: lowered)
        margin, _ = margin_and_gradient(network, spec.output_spec, spec.input_box.center)
        assert margin < 0.0 < spec.margin(network, spec.input_box.center)

        result = pgd_attack(network, spec, AttackConfig(steps=5, restarts=2))
        assert not result.is_counterexample
        assert result.best_margin >= 0.0
        assert not spec.is_counterexample(network, result.best_input)
        assert not fgsm(network, spec).is_counterexample

    def test_counterexample_margin_is_the_real_margin(self, trained_network):
        network, dataset = trained_network
        image, label = dataset.sample(0)
        spec = local_robustness_spec(image.reshape(-1), 0.9, label, dataset.num_classes)
        result = pgd_attack(network, spec, AttackConfig(steps=40, restarts=4, seed=0))
        assert result.is_counterexample
        assert result.best_margin == spec.margin(network, result.best_input)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            AttackConfig(steps=0)
        with pytest.raises(ValueError):
            AttackConfig(restarts=0)


SCHEDULES = [(1, 1), (5, 2), (20, 2), (25, 3), (40, 4)]


def assert_same_attack(network, spec, config, start=None):
    expected = sequential_pgd_attack(network, spec, config, start)
    result = pgd_attack(network, spec, config, start)
    assert result.is_counterexample == expected.is_counterexample
    assert result.iterations == expected.iterations
    assert abs(result.best_margin - expected.best_margin) <= 1e-9
    np.testing.assert_allclose(result.best_input, expected.best_input,
                               rtol=1e-9, atol=1e-12)
    assert spec.input_box.contains(result.best_input)
    return result


def _one_input_network(threshold):
    """A linear two-class network whose class-0 margin is ``x - threshold``."""
    layer = Dense(1, 2, weight=np.array([[1.0], [0.0]]),
                  bias=np.array([0.0, threshold]))
    return Network([layer], (1,), name="one-input")


class TestLockstepMatchesSequential:
    """The lockstep restarts return what the restart-by-restart loop does."""

    @pytest.mark.parametrize("steps,restarts", SCHEDULES)
    @pytest.mark.parametrize("with_start", [False, True])
    def test_trained_fixture(self, trained_network, steps, restarts, with_start):
        network, dataset = trained_network
        outcomes = set()
        for index, epsilon in [(0, 0.05), (1, 0.2), (2, 0.4), (3, 0.9), (5, 0.3)]:
            image, label = dataset.sample(index)
            reference = image.reshape(-1)
            spec = local_robustness_spec(reference, epsilon, label,
                                         dataset.num_classes)
            start = (np.random.default_rng(index).random(network.input_dim)
                     if with_start else None)
            config = AttackConfig(steps=steps, restarts=restarts, seed=index)
            outcomes.add(assert_same_attack(network, spec, config, start)
                         .is_counterexample)
        if steps >= 5:
            assert outcomes == {False, True}  # both branches are compared

    @pytest.mark.parametrize("steps,restarts", SCHEDULES)
    @pytest.mark.parametrize("with_start", [False, True])
    def test_strided_conv(self, steps, restarts, with_start):
        for seed, epsilon in [(0, 0.05), (1, 0.3), (2, 0.8)]:
            network = strided_conv_network(seed)
            rng = np.random.default_rng(seed)
            spec = problem(network, rng.random(network.input_dim), epsilon)
            start = rng.random(network.input_dim) if with_start else None
            assert_same_attack(network, spec,
                               AttackConfig(steps=steps, restarts=restarts, seed=seed),
                               start)

    @pytest.mark.parametrize("steps,restarts", SCHEDULES)
    @pytest.mark.parametrize("with_start", [False, True])
    def test_small_network(self, small_network, steps, restarts, with_start):
        for seed, epsilon in [(0, 0.01), (1, 0.2), (2, 0.5)]:
            spec = problem(small_network, [0.4, 0.5, 0.6, 0.3], epsilon)
            start = (np.random.default_rng(seed).random(4) if with_start else None)
            assert_same_attack(small_network, spec,
                               AttackConfig(steps=steps, restarts=restarts, seed=seed),
                               start)

    def test_first_restart_wins_over_a_faster_later_one(self):
        # Margin x - 0.3 on [0, 1]: the centre restart needs two steps
        # (0.5, 0.35, 0.2), while seed 2's first sample (0.26) violates at
        # once.  Only the first restart's success counts.
        network = _one_input_network(0.3)
        spec = local_robustness_spec(np.array([0.5]), 0.5, 0, 2)
        config = AttackConfig(steps=10, restarts=2, seed=2)
        later_start = spec.input_box.sample(as_rng(2), 1)[0]
        later = pgd_attack(network, spec, AttackConfig(steps=10, restarts=1),
                           start=later_start)
        assert later.is_counterexample and later.iterations == 1

        result = assert_same_attack(network, spec, config)
        assert result.is_counterexample
        assert result.iterations == 3
        np.testing.assert_allclose(result.best_input, [0.2])

    def test_centre_counterexample_after_a_failing_start(self):
        # The centre (0.5) violates x - 0.6.  The start restart comes first
        # and stays above 0.6 (1.0, 0.85, 0.7), so the attack returns the
        # centre as soon as that restart finishes, not at the centre
        # restart's first step.
        network = _one_input_network(0.6)
        spec = local_robustness_spec(np.array([0.5]), 0.5, 0, 2)
        config = AttackConfig(steps=2, restarts=3)
        result = assert_same_attack(network, spec, config, start=np.array([1.0]))
        assert result.is_counterexample
        assert result.iterations == 3
        np.testing.assert_allclose(result.best_input, [0.5])

    @pytest.mark.parametrize("with_start", [False, True])
    @pytest.mark.parametrize("restarts", [1, 3])
    def test_one_batched_pass_per_step(self, small_network, monkeypatch,
                                       restarts, with_start):
        spec = problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.01)
        steps = 10
        config = AttackConfig(steps=steps, restarts=restarts)
        start = np.array([0.41, 0.49, 0.6, 0.3]) if with_start else None
        kernel = attack._margins_and_gradients
        rows = []

        def counting(network, output_spec, points):
            rows.append(len(points))
            return kernel(network, output_spec, points)

        monkeypatch.setattr(attack, "_margins_and_gradients", counting)
        result = pgd_attack(small_network, spec, config, start)
        assert not result.is_counterexample
        assert len(rows) == steps + 1
        assert max(rows) <= restarts + 1
        rows.clear()
        sequential_pgd_attack(small_network, spec, config, start)
        assert len(rows) == restarts * (steps + 1) + 1


class TestFgsm:
    def test_does_not_increase_margin(self, small_network):
        spec = problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.2)
        start_margin, _ = margin_and_gradient(small_network, spec.output_spec,
                                              spec.input_box.center)
        result = fgsm(small_network, spec)
        assert result.best_margin <= start_margin + 1e-9

    def test_output_in_box(self, small_network):
        spec = problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.2)
        assert spec.input_box.contains(fgsm(small_network, spec).best_input)


class TestEmpiricalRadius:
    def test_radius_is_consistent_with_attack(self, trained_network):
        network, dataset = trained_network
        image, label = dataset.sample(1)
        reference = image.reshape(-1)
        radius = empirical_robustness_radius(network, reference, label,
                                             dataset.num_classes, upper=0.9,
                                             tolerance=5e-3,
                                             config=AttackConfig(steps=30, restarts=3))
        # The bisection found a radius below its cap, not the "never
        # falsified" fallback.
        assert 0.0 < radius < 0.9
        # The bisection's own attack succeeds at the radius it returns.
        spec_at = local_robustness_spec(reference, radius, label, dataset.num_classes)
        assert pgd_attack(network, spec_at,
                          AttackConfig(steps=30, restarts=3)).is_counterexample
        # A stronger attack succeeds slightly above the radius.
        spec_above = local_robustness_spec(reference, min(radius * 1.2 + 1e-3, 1.0),
                                           label, dataset.num_classes)
        attack = pgd_attack(network, spec_above, AttackConfig(steps=40, restarts=4))
        assert attack.is_counterexample

    def test_robust_network_returns_upper(self, small_network):
        # With a tiny radius cap the attack cannot flip a confident prediction.
        reference = np.array([0.4, 0.5, 0.6, 0.3])
        label = int(small_network.predict(reference.reshape(1, -1))[0])
        radius = empirical_robustness_radius(small_network, reference, label,
                                             small_network.output_dim, upper=1e-4)
        assert radius == pytest.approx(1e-4)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       conv=st.booleans(),
       epsilon=st.floats(min_value=0.0, max_value=1.0))
def test_attack_verdict_rechecks_on_real_network_property(seed, conv, epsilon):
    """PGD's verdict always agrees with the real network at its best input."""
    if conv:
        network = strided_conv_network(seed)
    else:
        network = dense_network([5, 7, 6, 3], seed=seed)
    rng = np.random.default_rng(seed)
    reference = rng.random(network.input_dim)
    label = int(rng.integers(3))
    spec = local_robustness_spec(reference, epsilon, label, 3)
    result = pgd_attack(network, spec, AttackConfig(steps=8, restarts=2, seed=seed))
    assert spec.input_box.contains(result.best_input)
    assert result.is_counterexample == spec.is_counterexample(network, result.best_input)
