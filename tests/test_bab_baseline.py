"""Tests for repro.bab.baseline (the naive BaB verifier)."""

import numpy as np
import pytest

from repro.bab.baseline import BaBBaselineVerifier
from repro.specs.robustness import local_robustness_spec
from repro.utils import Budget
from repro.verifiers.milp import MilpVerifier
from repro.verifiers.result import VerificationStatus


def problem(network, reference, epsilon):
    reference = np.asarray(reference, dtype=float)
    label = int(network.predict(reference.reshape(1, -1))[0])
    return local_robustness_spec(reference, epsilon, label, network.output_dim)


class TestBaBBaseline:
    def test_verifies_small_epsilon(self, small_network):
        spec = problem(small_network, [0.4, 0.5, 0.6, 0.3], 1e-3)
        result = BaBBaselineVerifier().verify(small_network, spec, Budget(max_nodes=200))
        assert result.status == VerificationStatus.VERIFIED

    def test_falsifies_large_epsilon_with_valid_counterexample(self, trained_network):
        network, dataset = trained_network
        image, label = dataset.sample(6)
        spec = local_robustness_spec(image.reshape(-1), 0.9, label, dataset.num_classes)
        result = BaBBaselineVerifier().verify(network, spec, Budget(max_nodes=500))
        assert result.status == VerificationStatus.FALSIFIED
        assert spec.is_counterexample(network, result.counterexample)

    @pytest.mark.parametrize("epsilon", [0.05, 0.15, 0.3])
    def test_agrees_with_milp_oracle(self, epsilon, trained_network):
        network, dataset = trained_network
        image, label = dataset.sample(7)
        spec = local_robustness_spec(image.reshape(-1), epsilon, label,
                                     dataset.num_classes)
        oracle = MilpVerifier().verify(network, spec)
        result = BaBBaselineVerifier().verify(network, spec, Budget(max_nodes=3000))
        if result.solved and oracle.solved:
            assert result.status == oracle.status

    def test_respects_node_budget(self, trained_network):
        network, dataset = trained_network
        image, label = dataset.sample(8)
        spec = local_robustness_spec(image.reshape(-1), 0.2, label, dataset.num_classes)
        result = BaBBaselineVerifier().verify(network, spec, Budget(max_nodes=20))
        assert result.nodes_explored <= 25  # a couple of nodes of slack for the leaf LP

    def test_timeout_reported_when_budget_tiny(self, trained_network):
        network, dataset = trained_network
        results = []
        for index in range(6):
            image, label = dataset.sample(index)
            spec = local_robustness_spec(image.reshape(-1), 0.25, label,
                                         dataset.num_classes)
            result = BaBBaselineVerifier().verify(network, spec, Budget(max_nodes=3))
            results.append(result.status)
        # With a 3-node budget at least one non-trivial problem must time out.
        assert any(status == VerificationStatus.TIMEOUT for status in results) or \
            all(status.is_conclusive for status in results)

    def test_dfs_variant_reaches_same_verdict(self, trained_network):
        network, dataset = trained_network
        image, label = dataset.sample(9)
        spec = local_robustness_spec(image.reshape(-1), 0.12, label, dataset.num_classes)
        bfs = BaBBaselineVerifier(exploration="bfs").verify(network, spec,
                                                            Budget(max_nodes=2000))
        dfs = BaBBaselineVerifier(exploration="dfs").verify(network, spec,
                                                            Budget(max_nodes=2000))
        if bfs.solved and dfs.solved:
            assert bfs.status == dfs.status

    def test_invalid_exploration_rejected(self):
        with pytest.raises(ValueError):
            BaBBaselineVerifier(exploration="best")

    def test_extras_contain_statistics(self, small_network):
        spec = problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.15)
        result = BaBBaselineVerifier().verify(small_network, spec, Budget(max_nodes=300))
        assert "tree_size" in result.extras
        assert result.extras["tree_size"] == result.nodes_explored

    @pytest.mark.parametrize("heuristic", ["widest", "babsr", "deepsplit", "random"])
    def test_heuristics_do_not_change_the_verdict(self, heuristic, trained_network):
        network, dataset = trained_network
        image, label = dataset.sample(10)
        spec = local_robustness_spec(image.reshape(-1), 0.1, label, dataset.num_classes)
        default = BaBBaselineVerifier().verify(network, spec, Budget(max_nodes=2000))
        other = BaBBaselineVerifier(heuristic=heuristic).verify(network, spec,
                                                                Budget(max_nodes=2000))
        if default.solved and other.solved:
            assert default.status == other.status

