"""Tests for repro.specs.robustness."""

import time

import numpy as np
import pytest

from repro.core.abonn import AbonnVerifier
from repro.nn import dense_network
from repro.service import ServiceConfig, VerificationService
from repro.specs.robustness import (
    local_robustness_spec,
    robustness_output_spec,
    robustness_radius_sweep,
    robustness_radius_sweep_service,
)
from repro.utils.timing import Budget
from repro.verifiers.result import VerificationStatus


class TestRobustnessOutputSpec:
    def test_untargeted_has_one_constraint_per_competitor(self):
        spec = robustness_output_spec(num_classes=5, label=2)
        assert spec.num_constraints == 4
        assert spec.output_dim == 5

    def test_targeted_has_single_constraint(self):
        spec = robustness_output_spec(num_classes=5, label=2, target=4)
        assert spec.num_constraints == 1

    def test_margin_is_logit_gap(self):
        spec = robustness_output_spec(num_classes=3, label=0)
        logits = np.array([2.0, 1.5, -1.0])
        assert spec.margin(logits) == pytest.approx(0.5)

    def test_violated_when_other_class_wins(self):
        spec = robustness_output_spec(num_classes=3, label=0)
        assert not spec.satisfied(np.array([0.0, 1.0, -1.0]))

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError):
            robustness_output_spec(num_classes=3, label=3)

    def test_target_equal_to_label_rejected(self):
        with pytest.raises(ValueError):
            robustness_output_spec(num_classes=3, label=1, target=1)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            robustness_output_spec(num_classes=1, label=0)


class TestLocalRobustnessSpec:
    def test_box_is_clipped_linf_ball(self):
        reference = np.array([0.1, 0.9, 0.5])
        spec = local_robustness_spec(reference, 0.2, label=0, num_classes=3)
        np.testing.assert_allclose(spec.input_box.lower, [0.0, 0.7, 0.3])
        np.testing.assert_allclose(spec.input_box.upper, [0.3, 1.0, 0.7])

    def test_metadata_recorded(self):
        reference = np.zeros(4)
        spec = local_robustness_spec(reference, 0.1, label=1, num_classes=3, target=2)
        assert spec.metadata["epsilon"] == pytest.approx(0.1)
        assert spec.metadata["label"] == 1
        assert spec.metadata["target"] == 2
        assert spec.metadata["kind"] == "local_robustness"

    def test_default_name_mentions_epsilon(self):
        spec = local_robustness_spec(np.zeros(2), 0.25, label=0, num_classes=2)
        assert "0.25" in spec.name

    def test_custom_domain(self):
        spec = local_robustness_spec(np.zeros(2), 0.5, label=0, num_classes=2,
                                     domain_lower=-1.0, domain_upper=1.0)
        np.testing.assert_allclose(spec.input_box.lower, [-0.5, -0.5])

    def test_reference_flattened(self):
        reference = np.zeros((2, 2))
        spec = local_robustness_spec(reference, 0.1, label=0, num_classes=2)
        assert spec.input_dim == 4


class TestRadiusSweepBudget:
    """Regression: the sweep handed each run an *unstarted* budget copy.

    A custom verifier that consumes the budget directly (without the
    ``make_budget`` copy-and-start) then saw a wall clock that only began
    at its first ``exhausted()`` check, so time spent before that check
    was free.  The sweep now starts each per-run copy explicitly.
    """

    def test_each_run_receives_a_started_fresh_budget(self):
        seen = []

        class StubVerifier:
            def verify(self, network, spec, budget):
                time.sleep(0.005)
                # The clock must already be running: work done before the
                # verifier's first exhaustion check is on the record.
                seen.append(budget.elapsed_seconds)
                return budget.exhausted()

        results, _ = robustness_radius_sweep(
            lambda cache: StubVerifier(), network=None,
            reference=np.zeros(2), epsilons=[0.05, 0.1], label=0,
            num_classes=2, budget=Budget(max_seconds=0.001))
        assert len(seen) == 2
        assert all(elapsed > 0.0 for elapsed in seen)
        assert all(exhausted is True for _, exhausted in results)

    def test_no_budget_still_passes_none_through(self):
        captured = []

        class StubVerifier:
            def verify(self, network, spec, budget):
                captured.append(budget)
                return None

        robustness_radius_sweep(lambda cache: StubVerifier(), network=None,
                                reference=np.zeros(2), epsilons=[0.05],
                                label=0, num_classes=2)
        assert captured == [None]


#: The sweep's ladder at 60 nodes: verified at the root, verified and
#: falsified after branching, a TIMEOUT, and one radius queried twice (a
#: warm repeat).
SWEEP_NETWORK = dense_network([6, 10, 8, 4], seed=1)
SWEEP_REFERENCE = np.full(6, 0.5)
SWEEP_EPSILONS = [0.05, 0.1, 0.12, 0.15, 0.1]
SWEEP_NODES = 60


def _broken_factory(bundle):
    raise ValueError("no verifier for this sweep")


class TestRadiusSweepService:
    def _sweep(self, **kwargs):
        label = int(SWEEP_NETWORK.predict(SWEEP_REFERENCE.reshape(1, -1))[0])
        results, service = robustness_radius_sweep_service(
            SWEEP_NETWORK, SWEEP_REFERENCE, SWEEP_EPSILONS, label, 4,
            budget=Budget(max_nodes=SWEEP_NODES), **kwargs)
        return label, results, service

    def test_each_radius_equals_a_fresh_solo_run(self):
        label, results, service = self._sweep()
        assert [epsilon for epsilon, _ in results] == SWEEP_EPSILONS
        for epsilon, result in results:
            spec = local_robustness_spec(SWEEP_REFERENCE, epsilon, label, 4)
            solo = AbonnVerifier().verify(SWEEP_NETWORK, spec,
                                          Budget(max_nodes=SWEEP_NODES))
            assert result.status == solo.status
            assert result.nodes_explored == solo.nodes_explored
            assert result.tree_size == solo.tree_size
            assert result.bound == solo.bound
            if solo.counterexample is None:
                assert result.counterexample is None
            else:
                assert (result.counterexample.tobytes()
                        == solo.counterexample.tobytes())
        stats = service.stats()
        assert stats["transport"] == "cooperative"
        assert stats["jobs_completed"] == len(SWEEP_EPSILONS)
        # The repeated radius shares its problem's bundle.
        assert stats["pool"]["fingerprints"] == len(set(SWEEP_EPSILONS))

    def test_a_passed_service_is_the_one_returned(self):
        service = VerificationService()
        _, results, returned = self._sweep(service=service)
        assert returned is service
        assert len(results) == len(SWEEP_EPSILONS)
        assert service.stats()["jobs_completed"] == len(SWEEP_EPSILONS)

    def test_a_failed_job_raises(self):
        service = VerificationService(verifier_factory=_broken_factory)
        with pytest.raises(RuntimeError, match="sweep job .* failed"):
            self._sweep(service=service)

    def test_a_process_service_matches_the_solo_runs(self):
        """A caller who wants another transport passes ``service=``."""
        _, cooperative, _ = self._sweep()
        with VerificationService(ServiceConfig(transport="process")) as svc:
            _, results, returned = self._sweep(service=svc)
        assert returned is svc
        assert svc.stats()["jobs_inline"] == 0
        for (epsilon, result), (_, reference) in zip(results, cooperative):
            assert result.status == reference.status
            assert result.nodes_explored == reference.nodes_explored
            assert result.tree_size == reference.tree_size
            assert result.bound == reference.bound

    def test_the_repeated_radius_reuses_its_bundle(self):
        """The second query at ε = 0.1 is answered from the bound reports
        and leaf LPs its first query cached: no miss, no LP solve."""
        _, _, service = self._sweep()
        first = service.result(f"job-{SWEEP_EPSILONS.index(0.1)}").cache_stats
        repeat = service.result(f"job-{len(SWEEP_EPSILONS) - 1}").cache_stats
        assert repeat["bound_report_misses"] == 0
        assert repeat["bound_report_hits"] == first["bound_report_misses"] > 0
        assert repeat["lp_solves"] == 0
        assert repeat["lp_hits"] == first["lp_solves"]

    def test_an_expired_deadline_times_out_every_radius(self):
        _, results, service = self._sweep(deadline_seconds=1e-9)
        assert [epsilon for epsilon, _ in results] == SWEEP_EPSILONS
        for _, result in results:
            assert result.status is VerificationStatus.TIMEOUT
        assert service.stats()["jobs_failed"] == 0

    def test_the_transport_is_chosen_through_the_service(self):
        with pytest.raises(TypeError, match="transport"):
            self._sweep(transport="process")

    def test_empty_epsilons_rejected(self):
        with pytest.raises(ValueError, match="epsilons must be non-empty"):
            robustness_radius_sweep_service(SWEEP_NETWORK, SWEEP_REFERENCE,
                                            [], 0, 4)
