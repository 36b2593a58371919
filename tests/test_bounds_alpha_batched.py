"""α-CROWN's exact-gradient slope ascent, batched and alone.

``AlphaCrownAnalyzer.analyze_batch`` runs projected gradient ascent on the
exact ``∂p̂/∂α`` with per-row gradients, steps and best-so-far tracking,
and ``analyze`` is the same optimisation at ``B = 1`` — so a sub-problem
follows the same trajectory whether bounded alone or in a batch.  These
tests pin that equivalence (within batched-matmul float noise), the
soundness of the batched bounds, their relation to the textbook DeepPoly
of ``tests/reference_bounds.py``, and the adjoint gradient against a
central difference of the same back-substitution replayed by that
reference with the intermediate bounds held fixed.
"""

import numpy as np
import pytest
from conftest import make_random_dense_problem
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_bounds import _relaxation, reference_deeppoly

from repro.bounds.alpha_crown import AlphaCrownAnalyzer, AlphaCrownConfig, spec_row_gradient
from repro.bounds.deeppoly import DeepPolyAnalyzer
from repro.bounds.splits import ACTIVE, INACTIVE, ReluSplit, SplitAssignment
from repro.nn.network import LoweredNetwork
from repro.specs.robustness import local_robustness_spec
from repro.verifiers.appver import ApproximateVerifier

TOLERANCE = 1e-7


def _problem(network, reference, epsilon):
    reference = np.asarray(reference, dtype=float)
    label = int(network.predict(reference.reshape(1, -1))[0])
    return local_robustness_spec(reference, epsilon, label, network.output_dim)


def _split_workload(network, spec, include_infeasible=True):
    """The empty assignment, single splits on unstable neurons, and (optionally)
    an infeasible split forcing a stable-off neuron ACTIVE."""
    probe = ApproximateVerifier(network, spec, use_cache=False)
    report = probe.evaluate().report
    sizes = probe.lowered.relu_layer_sizes()
    splits_list = [probe.root_splits]
    for layer, unit in report.unstable_neurons()[:3]:
        for phase in (ACTIVE, INACTIVE):
            splits_list.append(SplitAssignment.from_splits(
                sizes, [ReluSplit(layer, unit, phase)]))
    if include_infeasible:
        for layer, bounds in enumerate(report.pre_activation_bounds):
            negative = np.where(bounds.upper < 0)[0]
            if len(negative):
                splits_list.append(SplitAssignment.from_splits(
                    sizes, [ReluSplit(layer, int(negative[0]), ACTIVE)]))
                break
    return splits_list


class TestAlphaCrownBatched:
    def test_matches_per_element_loop(self, small_network):
        spec = _problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.15)
        analyzer = AlphaCrownAnalyzer(small_network.lowered(),
                                      AlphaCrownConfig(iterations=8))
        splits_list = _split_workload(small_network, spec)
        sequential = [analyzer.analyze(spec.input_box, splits=splits,
                                       spec=spec.output_spec)
                      for splits in splits_list]
        batched = analyzer.analyze_batch(spec.input_box, splits_list,
                                         spec=spec.output_spec)
        assert len(batched) == len(sequential)
        for loop_report, batch_report in zip(sequential, batched):
            assert batch_report.method == "alpha-crown"
            assert batch_report.infeasible == loop_report.infeasible
            if loop_report.infeasible:
                assert batch_report.p_hat == loop_report.p_hat == float("inf")
            else:
                assert batch_report.p_hat == pytest.approx(loop_report.p_hat,
                                                           abs=TOLERANCE)

    def test_batched_improves_on_deeppoly(self, small_network):
        """Optimised slopes must never be looser than the DeepPoly default."""
        spec = _problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.15)
        lowered = small_network.lowered()
        analyzer = AlphaCrownAnalyzer(lowered, AlphaCrownConfig(iterations=8))
        splits_list = _split_workload(small_network, spec,
                                      include_infeasible=False)
        batched = analyzer.analyze_batch(spec.input_box, splits_list,
                                         spec=spec.output_spec)
        for splits, report in zip(splits_list, batched):
            baseline = reference_deeppoly(lowered, spec.input_box, splits,
                                          spec.output_spec)
            assert report.p_hat >= baseline.p_hat - TOLERANCE

    def test_zero_iterations_fall_back(self, small_network):
        spec = _problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.1)
        lowered = small_network.lowered()
        splits_list = _split_workload(small_network, spec,
                                      include_infeasible=False)[:3]
        frozen = AlphaCrownAnalyzer(lowered, AlphaCrownConfig(iterations=0))
        batched = frozen.analyze_batch(spec.input_box, splits_list,
                                       spec=spec.output_spec)
        for splits, report in zip(splits_list, batched):
            loop = reference_deeppoly(lowered, spec.input_box, splits,
                                      spec.output_spec)
            assert report.p_hat == pytest.approx(loop.p_hat, abs=TOLERANCE)

    def test_empty_batch(self, small_network):
        spec = _problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.1)
        analyzer = AlphaCrownAnalyzer(small_network.lowered())
        assert analyzer.analyze_batch(spec.input_box, [],
                                      spec=spec.output_spec) == []

    def test_p_hat_remains_sound(self, small_network):
        """Fuzz: the batched optimised bound stays below the true margin."""
        spec = _problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.12)
        analyzer = AlphaCrownAnalyzer(small_network.lowered(),
                                      AlphaCrownConfig(iterations=6))
        report = analyzer.analyze_batch(
            spec.input_box, [SplitAssignment.empty(small_network.lowered().relu_layer_sizes())],
            spec=spec.output_spec)[0]
        for sample in spec.input_box.sample(0, count=200):
            assert spec.margin(small_network, sample) >= report.p_hat - 1e-7


class TestAppVerAlphaBatched:
    def test_evaluate_batch_matches_evaluate(self, small_network):
        spec = _problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.15)
        verifier = ApproximateVerifier(small_network, spec, "alpha-crown")
        splits_list = _split_workload(small_network, spec)
        sequential = [verifier.evaluate(splits) for splits in splits_list]
        batched = verifier.evaluate_batch(splits_list)
        for loop_outcome, batch_outcome in zip(sequential, batched):
            if np.isfinite(loop_outcome.p_hat):
                assert batch_outcome.p_hat == pytest.approx(loop_outcome.p_hat,
                                                            abs=TOLERANCE)
            else:
                assert batch_outcome.p_hat == loop_outcome.p_hat
            assert (batch_outcome.is_valid_counterexample
                    == loop_outcome.is_valid_counterexample)
        assert verifier.num_calls == 2 * len(splits_list)

    def test_batch_histogram_records_realised_sizes(self, small_network):
        spec = _problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.1)
        verifier = ApproximateVerifier(small_network, spec)
        verifier.evaluate_batch([verifier.root_splits] * 3)
        verifier.evaluate_batch([verifier.root_splits] * 3)
        verifier.evaluate_batch([verifier.root_splits] * 5)
        verifier.evaluate_batch([])  # empty batches are not recorded
        stats = verifier.batch_stats()
        assert stats["batch_histogram"] == {3: 2, 5: 1}
        assert stats["batched_calls"] == 3
        assert stats["mean_realised_batch"] == pytest.approx(11 / 3)
        assert verifier.cache_stats()["mean_realised_batch"] == pytest.approx(11 / 3)


def _worst_row_lower(network, box, spec, report, splits, slopes, row):
    """Spec row ``row``'s DeepPoly lower bound over the report's fixed
    pre-activation bounds, and the sign pattern of its coefficients."""
    lam = spec.coefficients[row] @ network.weights[-1]
    constant = spec.coefficients[row] @ network.biases[-1] + spec.offsets[row]
    signs = []
    for layer in reversed(range(network.num_relu_layers)):
        bounds = report.pre_activation_bounds[layer]
        ls, us, ui = _relaxation(bounds.lower, bounds.upper,
                                 report.hidden_bounds.layer(splits.row, layer),
                                 slopes[layer])
        signs.append(tuple(np.sign(lam)))
        positive, negative = np.maximum(lam, 0.0), np.minimum(lam, 0.0)
        lam = positive * ls + negative * us
        constant = constant + negative @ ui + lam @ network.biases[layer]
        lam = lam @ network.weights[layer]
    corner = np.where(lam > 0, box.lower, box.upper)
    signs.append(tuple(np.sign(lam)))
    return lam @ corner + constant, signs


def _random_split(network, spec, seed):
    """The empty assignment or one split on an unstable neuron, by seed."""
    report = DeepPolyAnalyzer(network).analyze(spec.input_box, spec=spec.output_spec)
    unstable = report.unstable_neurons()
    sizes = network.relu_layer_sizes()
    if seed % 3 == 0 or not unstable:
        return SplitAssignment.empty(sizes)
    layer, unit = unstable[seed % len(unstable)]
    return SplitAssignment.from_splits(
        sizes, [ReluSplit(layer, unit, ACTIVE if seed % 2 else INACTIVE)])


class TestExactGradient:
    STEP = 1e-6

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 3),
           width=st.integers(2, 7))
    def test_adjoint_matches_central_difference(self, seed, depth, width):
        network, spec = make_random_dense_problem(seed, depth, width, 0.15)
        rng = np.random.default_rng(seed)
        # The layers start with zero biases; the adjoint must carry them.
        network = LoweredNetwork(network.weights, tuple(
            bias + rng.normal(scale=0.2, size=bias.shape) for bias in network.biases),
            network.input_shape)
        box, output_spec = spec.input_box, spec.output_spec
        splits = _random_split(network, spec, seed)
        slopes = [rng.uniform(0.0, 1.0, size=(1, weight.shape[0]))
                  for weight in network.weights[:-1]]
        report = DeepPolyAnalyzer(network).analyze_batch(
            box, [splits], spec=output_spec, lower_slopes=slopes)[0]
        assume(np.isfinite(report.p_hat))
        row = int(np.argmin(report.spec_row_lower))
        base = [s[0] for s in slopes]
        value, _ = _worst_row_lower(network, box, output_spec, report, splits, base, row)
        assert value == pytest.approx(report.p_hat, abs=1e-9)

        gradient = spec_row_gradient(network, output_spec, [report], slopes)
        for layer, bounds in enumerate(report.pre_activation_bounds):
            unstable = (bounds.lower < 0.0) & (bounds.upper > 0.0)
            assert np.all(gradient[layer][0][~unstable] == 0.0)
            for unit in np.flatnonzero(unstable):
                shifted = []
                for sign in (1.0, -1.0):
                    point = [s.copy() for s in base]
                    point[layer][unit] += sign * self.STEP
                    shifted.append(_worst_row_lower(network, box, output_spec,
                                                    report, splits, point, row))
                (plus, plus_signs), (minus, minus_signs) = shifted
                if plus_signs != minus_signs:
                    continue  # a coefficient changes sign: not differentiable
                central = (plus - minus) / (2.0 * self.STEP)
                assert gradient[layer][0, unit] == pytest.approx(central, abs=1e-6)

    def test_batched_gradient_matches_rows_alone(self, small_network):
        spec = _problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.15)
        lowered = small_network.lowered()
        splits_list = _split_workload(small_network, spec, include_infeasible=False)
        rng = np.random.default_rng(0)
        slopes = [rng.uniform(0.0, 1.0, size=(len(splits_list), weight.shape[0]))
                  for weight in lowered.weights[:-1]]
        reports = DeepPolyAnalyzer(lowered).analyze_batch(
            spec.input_box, splits_list, spec=spec.output_spec, lower_slopes=slopes)
        batched = spec_row_gradient(lowered, spec.output_spec, reports, slopes)
        for index, report in enumerate(reports):
            alone = spec_row_gradient(lowered, spec.output_spec, [report],
                                      [s[index:index + 1] for s in slopes])
            for layer, gradient in enumerate(alone):
                np.testing.assert_allclose(batched[layer][index], gradient[0],
                                           rtol=0, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 3),
           width=st.integers(2, 7))
    def test_never_looser_than_deeppoly_on_every_row(self, seed, depth, width):
        network, spec = make_random_dense_problem(seed, depth, width, 0.15)
        box, output_spec = spec.input_box, spec.output_spec
        splits_list = [SplitAssignment.empty(network.relu_layer_sizes())] + [
            _random_split(network, spec, seed + offset) for offset in (1, 2, 4, 5)]
        deeppoly = DeepPolyAnalyzer(network).analyze_batch(box, splits_list,
                                                           spec=output_spec)
        alpha = AlphaCrownAnalyzer(network, AlphaCrownConfig(iterations=4)) \
            .analyze_batch(box, splits_list, spec=output_spec)
        for optimised, default in zip(alpha, deeppoly):
            assert optimised.p_hat >= default.p_hat

    def test_cold_analysis_takes_one_pass_per_iteration_plus_one(self, small_network):
        spec = _problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.15)
        analyzer = AlphaCrownAnalyzer(small_network.lowered(),
                                      AlphaCrownConfig(iterations=6))
        inner = analyzer._inner.analyze_batch
        passes = []

        def counted(*args, **kwargs):
            passes.append(kwargs.get("lower_slopes") is None)
            return inner(*args, **kwargs)

        analyzer._inner.analyze_batch = counted
        analyzer.analyze(spec.input_box, spec=spec.output_spec)
        # The start pass runs DeepPoly's default slopes; no final re-pass.
        assert passes == [True] + [False] * 6
