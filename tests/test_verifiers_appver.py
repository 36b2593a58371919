"""Tests for repro.verifiers.appver (the AppVer oracle of Alg. 1)."""

import numpy as np
import pytest
from reference_bounds import reference_ibp

from repro.bounds.splits import ACTIVE, ReluSplit
from repro.specs.robustness import local_robustness_spec
from repro.verifiers import appver
from repro.verifiers.appver import ApproximateVerifier


def problem(network, reference, epsilon):
    reference = np.asarray(reference, dtype=float)
    label = int(network.predict(reference.reshape(1, -1))[0])
    return local_robustness_spec(reference, epsilon, label, network.output_dim)


class TestApproximateVerifier:
    def test_small_epsilon_verifies(self, small_network):
        spec = problem(small_network, [0.4, 0.5, 0.6, 0.3], 1e-4)
        outcome = ApproximateVerifier(small_network, spec).evaluate()
        assert outcome.verified
        assert not outcome.falsified
        assert not outcome.needs_split

    def test_huge_epsilon_falsifies_or_needs_split(self, trained_network):
        network, dataset = trained_network
        image, label = dataset.sample(2)
        spec = local_robustness_spec(image.reshape(-1), 0.9, label, dataset.num_classes)
        outcome = ApproximateVerifier(network, spec).evaluate()
        assert not outcome.verified
        if outcome.falsified:
            assert spec.is_counterexample(network, outcome.candidate)

    def test_p_hat_is_sound_lower_bound(self, small_network):
        spec = problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.12)
        outcome = ApproximateVerifier(small_network, spec).evaluate()
        for sample in spec.input_box.sample(0, count=200):
            assert spec.margin(small_network, sample) >= outcome.p_hat - 1e-7

    def test_counts_calls(self, small_network):
        spec = problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.1)
        verifier = ApproximateVerifier(small_network, spec)
        verifier.evaluate()
        verifier.evaluate(verifier.root_splits.with_split(ReluSplit(0, 0, ACTIVE)))
        assert verifier.num_calls == 2

    def test_methods_are_ordered_by_tightness(self, small_network):
        spec = problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.15)
        ibp = reference_ibp(small_network.lowered(), spec.input_box, None,
                            spec.output_spec)
        deeppoly = ApproximateVerifier(small_network, spec, "deeppoly").evaluate()
        alpha = ApproximateVerifier(small_network, spec, "alpha-crown").evaluate()
        assert ibp.p_hat <= deeppoly.p_hat + 1e-9
        assert deeppoly.p_hat <= alpha.p_hat + 1e-9

    @pytest.mark.parametrize("method, built", [("deeppoly", 0), ("alpha-crown", 1)])
    def test_alpha_crown_analyser_built_only_for_its_method(
            self, small_network, small_spec, monkeypatch, method, built):
        made = []
        real = appver.AlphaCrownAnalyzer
        monkeypatch.setattr(appver, "AlphaCrownAnalyzer",
                            lambda *args: made.append(args) or real(*args))
        verifier = ApproximateVerifier(small_network, small_spec, method=method)
        verifier.evaluate()
        assert len(made) == built
        assert verifier.cache_stats()["alpha_warm_starts"] == 0

    def test_num_relu_neurons(self, small_network, small_spec):
        verifier = ApproximateVerifier(small_network, small_spec)
        assert verifier.num_relu_neurons == small_network.num_relu_neurons

    @pytest.mark.parametrize("method", ["zonotope", "ibp"])
    def test_unknown_method_rejected(self, small_network, small_spec, method):
        with pytest.raises(ValueError):
            ApproximateVerifier(small_network, small_spec, method=method)

    def test_dimension_mismatch_rejected(self, small_network):
        spec = local_robustness_spec(np.zeros(5), 0.1, 0, 3)
        with pytest.raises(ValueError):
            ApproximateVerifier(small_network, spec)

    def test_candidate_validity_flag_matches_spec(self, trained_network):
        network, dataset = trained_network
        image, label = dataset.sample(4)
        spec = local_robustness_spec(image.reshape(-1), 0.6, label, dataset.num_classes)
        outcome = ApproximateVerifier(network, spec).evaluate()
        if outcome.p_hat < 0:
            assert outcome.is_valid_counterexample == spec.is_counterexample(
                network, outcome.candidate)


class TestSingleCallAccounting:
    """``evaluate`` is the batched kernel at ``B = 1`` but stays its own
    entry point: it charges one call, records no realised batch, and never
    goes through ``evaluate_batch`` / ``AlphaCrownAnalyzer.analyze_batch``
    (which profilers time as separate sites)."""

    @pytest.mark.parametrize("method", ["deeppoly", "alpha-crown"])
    def test_evaluate_charges_one_call_and_no_batch(self, small_network, method):
        spec = problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.1)
        verifier = ApproximateVerifier(small_network, spec, method)
        keys = set(verifier.cache_stats())
        verifier.evaluate()
        verifier.evaluate(verifier.root_splits.with_split(ReluSplit(0, 0, ACTIVE)))
        assert verifier.num_calls == 2
        assert verifier.batch_stats() == {"batch_histogram": {}, "batched_calls": 0,
                                          "mean_realised_batch": 0.0}
        stats = verifier.cache_stats()
        assert set(stats) == keys
        assert stats["batch_histogram"] == {}
        verifier.evaluate_batch([None])
        assert verifier.num_calls == 3
        assert verifier.batch_stats()["batch_histogram"] == {1: 1}

    @pytest.mark.parametrize("method", ["deeppoly", "alpha-crown"])
    def test_single_entry_points_bypass_the_batched_ones(self, small_network,
                                                         method, monkeypatch):
        from repro.bounds.alpha_crown import AlphaCrownAnalyzer

        def forbidden(*args, **kwargs):
            raise AssertionError("single-call path entered a batched entry point")

        spec = problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.1)
        verifier = ApproximateVerifier(small_network, spec, method)
        monkeypatch.setattr(ApproximateVerifier, "evaluate_batch", forbidden)
        monkeypatch.setattr(AlphaCrownAnalyzer, "analyze_batch", forbidden)
        outcome = verifier.evaluate()
        assert outcome.report.p_hat == outcome.p_hat
        report = AlphaCrownAnalyzer(small_network.lowered()).analyze(
            spec.input_box, spec=spec.output_spec)
        assert report.method == "alpha-crown"
