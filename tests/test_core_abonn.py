"""Tests for repro.core.abonn (the ABONN verifier, Alg. 1)."""

import gc

import numpy as np
import pytest

from repro.core.abonn import AbonnVerifier
from repro.core.config import AbonnConfig
from repro.core.mcts import MctsNode
from repro.nn import dense_network
from repro.service import ServiceConfig, VerificationService
from repro.specs.robustness import local_robustness_spec
from repro.utils import Budget
from repro.verifiers.milp import MilpVerifier
from repro.verifiers.result import VerificationStatus


def problem(network, reference, epsilon):
    reference = np.asarray(reference, dtype=float)
    label = int(network.predict(reference.reshape(1, -1))[0])
    return local_robustness_spec(reference, epsilon, label, network.output_dim)


class TestAbonnVerdicts:
    def test_verifies_small_epsilon_at_root(self, small_network):
        spec = problem(small_network, [0.4, 0.5, 0.6, 0.3], 1e-3)
        result = AbonnVerifier().verify(small_network, spec, Budget(max_nodes=100))
        assert result.status == VerificationStatus.VERIFIED
        assert result.nodes_explored == 1

    def test_falsifies_with_valid_counterexample(self, trained_network):
        network, dataset = trained_network
        image, label = dataset.sample(12)
        spec = local_robustness_spec(image.reshape(-1), 0.9, label, dataset.num_classes)
        result = AbonnVerifier().verify(network, spec, Budget(max_nodes=500))
        assert result.status == VerificationStatus.FALSIFIED
        assert spec.is_counterexample(network, result.counterexample)

    @pytest.mark.parametrize("epsilon", [0.05, 0.15, 0.3])
    def test_agrees_with_milp_oracle(self, epsilon, trained_network):
        network, dataset = trained_network
        image, label = dataset.sample(13)
        spec = local_robustness_spec(image.reshape(-1), epsilon, label,
                                     dataset.num_classes)
        oracle = MilpVerifier().verify(network, spec)
        result = AbonnVerifier().verify(network, spec, Budget(max_nodes=3000))
        if result.solved and oracle.solved:
            assert result.status == oracle.status

    def test_agrees_with_bab_baseline_verdicts(self, trained_network):
        from repro.bab import BaBBaselineVerifier

        network, dataset = trained_network
        for index in (14, 15, 16):
            image, label = dataset.sample(index)
            spec = local_robustness_spec(image.reshape(-1), 0.12, label,
                                         dataset.num_classes)
            abonn = AbonnVerifier().verify(network, spec, Budget(max_nodes=2000))
            baseline = BaBBaselineVerifier().verify(network, spec, Budget(max_nodes=2000))
            if abonn.solved and baseline.solved:
                assert abonn.status == baseline.status


class TestBudgetsAndStatistics:
    def test_respects_node_budget(self, trained_network):
        network, dataset = trained_network
        image, label = dataset.sample(17)
        spec = local_robustness_spec(image.reshape(-1), 0.2, label, dataset.num_classes)
        result = AbonnVerifier().verify(network, spec, Budget(max_nodes=15))
        assert result.nodes_explored <= 20

    def test_timeout_status_when_budget_exhausted(self, trained_network):
        network, dataset = trained_network
        statuses = []
        for index in range(18, 24):
            image, label = dataset.sample(index)
            spec = local_robustness_spec(image.reshape(-1), 0.25, label,
                                         dataset.num_classes)
            result = AbonnVerifier().verify(network, spec, Budget(max_nodes=3))
            statuses.append(result.status)
        assert all(status in (VerificationStatus.TIMEOUT, VerificationStatus.VERIFIED,
                              VerificationStatus.FALSIFIED) for status in statuses)

    def test_extras_record_hyperparameters(self, small_network):
        spec = problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.15)
        config = AbonnConfig(lam=0.7, exploration=0.3, heuristic="babsr")
        result = AbonnVerifier(config).verify(small_network, spec, Budget(max_nodes=100))
        assert result.extras["lambda"] == pytest.approx(0.7)
        assert result.extras["exploration"] == pytest.approx(0.3)
        assert result.extras["heuristic"] == "babsr"

    def test_tree_size_equals_appver_calls(self, small_network):
        spec = problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.2)
        result = AbonnVerifier().verify(small_network, spec, Budget(max_nodes=200))
        assert result.tree_size == result.nodes_explored


class TestHyperparameters:
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("exploration", [0.0, 0.5])
    def test_verdicts_are_hyperparameter_independent(self, lam, exploration,
                                                     trained_network):
        network, dataset = trained_network
        image, label = dataset.sample(25)
        spec = local_robustness_spec(image.reshape(-1), 0.1, label, dataset.num_classes)
        config = AbonnConfig(lam=lam, exploration=exploration)
        result = AbonnVerifier(config).verify(network, spec, Budget(max_nodes=2000))
        reference = AbonnVerifier().verify(network, spec, Budget(max_nodes=2000))
        if result.solved and reference.solved:
            assert result.status == reference.status

    def test_invalid_lambda_rejected(self):
        with pytest.raises(ValueError):
            AbonnConfig(lam=1.5)

    def test_invalid_exploration_rejected(self):
        with pytest.raises(ValueError):
            AbonnConfig(exploration=-0.1)

    @pytest.mark.parametrize("bound_method", ["deeppoly", "alpha-crown"])
    def test_bound_methods_agree_on_verdict(self, bound_method, trained_network):
        network, dataset = trained_network
        image, label = dataset.sample(27)
        spec = local_robustness_spec(image.reshape(-1), 0.08, label, dataset.num_classes)
        config = AbonnConfig(bound_method=bound_method)
        result = AbonnVerifier(config).verify(network, spec, Budget(max_nodes=3000))
        reference = AbonnVerifier().verify(network, spec, Budget(max_nodes=3000))
        if result.solved and reference.solved:
            assert result.status == reference.status


class TestTreeTeardown:
    """A finished run leaves no MCTS node for the cyclic collector.

    The cases search past the root: on a 6-10-8-4 network around
    ``[0.5] * 6``, ε = 0.1 is verified after 11 nodes and ε = 0.2 falsified
    after 23; ε = 0.15 needs 69 nodes, so a 20-node budget times out.
    """

    NETWORK = dense_network([6, 10, 8, 4], seed=1)

    def spec(self, epsilon):
        return problem(self.NETWORK, [0.5] * 6, epsilon)

    def verify(self, epsilon, max_nodes):
        return AbonnVerifier().verify(self.NETWORK, self.spec(epsilon),
                                      Budget(max_nodes=max_nodes))

    def interrupted(self):
        run = AbonnVerifier().start_run(self.NETWORK, self.spec(0.15),
                                        Budget(max_nodes=200))
        for _ in range(3):
            assert run.step() is None
        result = run.interrupt()
        assert run.step() is result and run.interrupt() is result
        return result

    def service_job(self):
        with VerificationService(ServiceConfig(transport="cooperative")) as service:
            service.submit(self.NETWORK, self.spec(0.15), Budget(max_nodes=200))
            (done,) = service.run_until_complete()
        assert done.ok
        return done.result

    def test_finished_trees_are_not_cyclic_garbage(self):
        gc.collect()
        enabled, debug = gc.isenabled(), gc.get_debug()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            results = [self.verify(0.1, 200), self.verify(0.2, 200),
                       self.verify(0.15, 20), self.interrupted(),
                       self.service_job()]
            gc.collect()
            leaked = sum(isinstance(obj, MctsNode) for obj in gc.garbage)
        finally:
            gc.set_debug(debug)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert leaked == 0
        assert [(result.status, result.nodes_explored) for result in results] == [
            (VerificationStatus.VERIFIED, 11), (VerificationStatus.FALSIFIED, 23),
            (VerificationStatus.TIMEOUT, 20), (VerificationStatus.TIMEOUT, 7),
            (VerificationStatus.FALSIFIED, 69)]
        assert self.spec(0.2).is_counterexample(self.NETWORK, results[1].counterexample)
