"""Batched α-CROWN must match one-at-a-time α-CROWN.

``AlphaCrownAnalyzer.analyze_batch`` shares one perturbation draw per
iteration across the batch, and ``analyze`` is the same optimisation at
``B = 1`` with a freshly seeded RNG — so every sub-problem draws identical
direction sequences whether bounded alone or in a batch.  These tests pin
that equivalence (within batched-matmul float noise), the soundness of the
batched bounds, and their relation to the textbook DeepPoly of
``tests/reference_bounds.py``.
"""

import numpy as np
import pytest
from reference_bounds import reference_deeppoly

from repro.bounds.alpha_crown import AlphaCrownAnalyzer, AlphaCrownConfig
from repro.bounds.splits import ACTIVE, INACTIVE, ReluSplit, SplitAssignment
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
    splits_list = [SplitAssignment.empty()]
    for layer, unit in report.unstable_neurons()[:3]:
        for phase in (ACTIVE, INACTIVE):
            splits_list.append(SplitAssignment.from_splits(
                [ReluSplit(layer, unit, phase)]))
    if include_infeasible:
        for layer, bounds in enumerate(report.pre_activation_bounds):
            negative = np.where(bounds.upper < 0)[0]
            if len(negative):
                splits_list.append(SplitAssignment.from_splits(
                    [ReluSplit(layer, int(negative[0]), ACTIVE)]))
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

    def test_no_spec_and_zero_iterations_fall_back(self, small_network):
        spec = _problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.1)
        lowered = small_network.lowered()
        splits_list = _split_workload(small_network, spec,
                                      include_infeasible=False)[:3]
        no_spec = AlphaCrownAnalyzer(lowered).analyze_batch(
            spec.input_box, splits_list)
        assert all(report.method == "alpha-crown" for report in no_spec)
        assert all(report.p_hat is None for report in no_spec)
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
        report = analyzer.analyze_batch(spec.input_box,
                                        [SplitAssignment.empty()],
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
        verifier.evaluate_batch([SplitAssignment.empty()] * 3)
        verifier.evaluate_batch([SplitAssignment.empty()] * 3)
        verifier.evaluate_batch([SplitAssignment.empty()] * 5)
        verifier.evaluate_batch([])  # empty batches are not recorded
        stats = verifier.batch_stats()
        assert stats["batch_histogram"] == {3: 2, 5: 1}
        assert stats["batched_calls"] == 3
        assert stats["mean_realised_batch"] == pytest.approx(11 / 3)
        assert verifier.cache_stats()["mean_realised_batch"] == pytest.approx(11 / 3)
