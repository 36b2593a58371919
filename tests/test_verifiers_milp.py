"""Tests for repro.verifiers.milp (complete MILP verifier and leaf LP)."""

import itertools

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from repro.bounds.deeppoly import DeepPolyAnalyzer
from repro.bounds.splits import ACTIVE, INACTIVE, ReluSplit
from repro.nn import dense_network
from repro.specs.robustness import local_robustness_spec
from repro.utils import Budget
from repro.verifiers.appver import ApproximateVerifier
from repro.verifiers.milp import (
    LEAF_UNKNOWN,
    MilpVerifier,
    classify_leaf_optimum,
    solve_leaf_lp,
)
from repro.verifiers.result import VerificationStatus


def problem(network, reference, epsilon):
    reference = np.asarray(reference, dtype=float)
    label = int(network.predict(reference.reshape(1, -1))[0])
    return local_robustness_spec(reference, epsilon, label, network.output_dim)


def brute_force_min_margin(network, spec, samples=4000, seed=0):
    """Dense random + corner sampling of the true margin (upper bound of the min)."""
    lowered = network.lowered()
    points = spec.input_box.sample(seed, count=samples)
    margins = [spec.output_spec.margin(lowered.forward(p)[0]) for p in points]
    corners = itertools.product(*[(low, high) for low, high
                                  in zip(spec.input_box.lower, spec.input_box.upper)])
    for corner in itertools.islice(corners, 256):
        margins.append(spec.output_spec.margin(lowered.forward(np.array(corner))[0]))
    return min(margins)


class TestMilpVerifier:
    @pytest.mark.parametrize("epsilon", [0.02, 0.1, 0.3])
    def test_verdict_consistent_with_sampling(self, epsilon):
        network = dense_network([3, 6, 5, 3], seed=4)
        spec = problem(network, [0.5, 0.4, 0.6], epsilon)
        result = MilpVerifier().verify(network, spec)
        sampled_min = brute_force_min_margin(network, spec)
        if sampled_min < -1e-6:
            # Sampling found a real counterexample, so MILP must falsify.
            assert result.status == VerificationStatus.FALSIFIED
        if result.status == VerificationStatus.VERIFIED:
            assert sampled_min >= -1e-6

    def test_falsified_returns_valid_counterexample(self, trained_network):
        network, dataset = trained_network
        image, label = dataset.sample(3)
        spec = local_robustness_spec(image.reshape(-1), 0.8, label, dataset.num_classes)
        result = MilpVerifier().verify(network, spec)
        if result.status == VerificationStatus.FALSIFIED:
            assert spec.is_counterexample(network, result.counterexample)

    def test_verified_when_root_bound_suffices(self, small_network):
        spec = problem(small_network, [0.4, 0.5, 0.6, 0.3], 1e-4)
        result = MilpVerifier().verify(small_network, spec)
        assert result.status == VerificationStatus.VERIFIED
        assert result.nodes_explored == 1  # only the DeepPoly pre-pass

    def test_agrees_with_exhaustive_corner_check_tiny_network(self):
        # With one input dimension, the piecewise-linear margin attains its
        # minimum at a breakpoint or an endpoint; dense sampling is reliable.
        network = dense_network([1, 4, 2], seed=2)
        reference = np.array([0.5])
        label = int(network.predict(reference.reshape(1, -1))[0])
        spec = local_robustness_spec(reference, 0.5, label, 2)
        xs = np.linspace(0.0, 1.0, 20001).reshape(-1, 1)
        margins = [spec.output_spec.margin(o) for o in network.forward(xs)]
        truly_violated = min(margins) < -1e-9
        result = MilpVerifier().verify(network, spec)
        assert (result.status == VerificationStatus.FALSIFIED) == truly_violated


def fully_split(network, spec):
    """Split unstable neurons ACTIVE until the leaf is phase-decided."""
    appver = ApproximateVerifier(network, spec)
    outcome = appver.evaluate()
    splits = appver.root_splits
    report = outcome.report
    while report.unstable_neurons(splits):
        layer, unit = report.unstable_neurons(splits)[0]
        splits = splits.with_split(ReluSplit(layer, unit, ACTIVE))
        report = appver.evaluate(splits).report
    return splits, report


def split_at(network, spec, point):
    """Split unstable neurons at ``point``'s own phases until the leaf is
    phase-decided; ``point`` satisfies every split row, so the leaf region
    is non-empty whenever ``point`` lies in the box."""
    appver = ApproximateVerifier(network, spec)
    pre_activations = network.lowered().pre_activations(point)
    splits = appver.root_splits
    report = appver.evaluate().report
    while report.unstable_neurons(splits):
        layer, unit = report.unstable_neurons(splits)[0]
        phase = ACTIVE if pre_activations[layer][unit] >= 0.0 else INACTIVE
        splits = splits.with_split(ReluSplit(layer, unit, phase))
        report = appver.evaluate(splits).report
    return splits, report


class TestLeafLp:
    def test_leaf_lp_requires_full_phase_decision(self, small_network):
        spec = problem(small_network, [0.4, 0.5, 0.6, 0.3], 0.3)
        appver = ApproximateVerifier(small_network, spec)
        outcome = appver.evaluate()
        if outcome.report.unstable_neurons():
            with pytest.raises(ValueError):
                solve_leaf_lp(small_network.lowered(), spec.input_box, spec.output_spec,
                              appver.root_splits, outcome.report)

    def test_leaf_lp_value_is_sound_for_the_leaf_region(self):
        network = dense_network([2, 4, 3, 2], seed=8)
        spec = problem(network, [0.5, 0.5], 0.35)
        splits, report = fully_split(network, spec)
        optimum = solve_leaf_lp(network.lowered(), spec.input_box, spec.output_spec,
                                splits, report)
        if not optimum.feasible:
            return
        lowered = network.lowered()
        for sample in spec.input_box.sample(0, count=500):
            pre = lowered.pre_activations(sample)
            if not splits.satisfied_by(pre):
                continue
            margin = spec.output_spec.margin(lowered.forward(sample)[0])
            assert margin >= optimum.value - 1e-6

    def test_leaf_lp_minimizer_attains_value(self):
        network = dense_network([2, 4, 3, 2], seed=8)
        spec = problem(network, [0.5, 0.5], 0.35)
        splits, report = fully_split(network, spec)
        optimum = solve_leaf_lp(network.lowered(), spec.input_box, spec.output_spec,
                                splits, report)
        if not optimum.feasible or optimum.minimizer is None:
            return
        assert spec.input_box.contains(optimum.minimizer, tolerance=1e-6)
        # The LP value is a lower bound on the true margin at the minimiser
        # (they coincide when the minimiser satisfies the leaf's phase pattern).
        margin = spec.margin(network, spec.input_box.clip(optimum.minimizer))
        assert margin >= optimum.value - 1e-6


class TestSolverStatus:
    """Only a proven optimum or proven infeasibility may carry a verdict."""

    @pytest.fixture()
    def milp_problem(self):
        """A problem whose DeepPoly root bound does not verify, so the MILP
        rows run, plus a box point that is *not* a counterexample."""
        network = dense_network([3, 6, 5, 3], seed=4)
        spec = problem(network, [0.5, 0.4, 0.6], 0.3)
        report = DeepPolyAnalyzer(network.lowered()).analyze(
            spec.input_box, spec=spec.output_spec)
        assert not report.p_hat > 0.0, "root bound must not verify"
        center = (spec.input_box.lower + spec.input_box.upper) / 2.0
        assert not spec.is_counterexample(network, center)
        return network, spec, center

    @staticmethod
    def _fake_milp(monkeypatch, center, status, fun, dual_bound):
        def fake(c, **_):
            x = np.zeros(len(c))
            x[:center.size] = center
            return OptimizeResult(status=status, x=x, fun=fun,
                                  mip_dual_bound=dual_bound)
        monkeypatch.setattr("scipy.optimize.milp", fake)

    def test_time_limited_incumbent_is_no_proof(self, milp_problem, monkeypatch):
        network, spec, center = milp_problem
        self._fake_milp(monkeypatch, center, status=1, fun=1e6, dual_bound=-1e6)
        result = MilpVerifier().verify(network, spec)
        assert result.status == VerificationStatus.TIMEOUT

    def test_negative_dual_bound_is_no_proof(self, milp_problem, monkeypatch):
        network, spec, center = milp_problem
        self._fake_milp(monkeypatch, center, status=0, fun=1e6, dual_bound=-1e6)
        result = MilpVerifier().verify(network, spec)
        assert result.status == VerificationStatus.TIMEOUT

    def test_falsified_needs_a_real_counterexample(self, milp_problem,
                                                   monkeypatch):
        network, spec, center = milp_problem
        self._fake_milp(monkeypatch, center, status=0, fun=-1e6, dual_bound=-1e6)
        result = MilpVerifier().verify(network, spec)
        assert result.status == VerificationStatus.TIMEOUT

    def test_time_limited_leaf_is_unknown(self, milp_problem, monkeypatch):
        network, spec, center = milp_problem
        # Split at the box centre's phases: the region holds ``center``, so
        # no emptiness certificate can close it before the (faked) solver.
        splits, report = split_at(network, spec, center)
        assert splits.satisfied_by(network.lowered().pre_activations(center))
        self._fake_milp(monkeypatch, center, status=1, fun=1e6, dual_bound=None)
        optimum = solve_leaf_lp(network.lowered(), spec.input_box,
                                spec.output_spec, splits, report)
        verdict, counterexample = classify_leaf_optimum(optimum, spec, network)
        assert verdict == LEAF_UNKNOWN
        assert counterexample is None


class TestBudgetHandling:
    def test_timeout_status_when_budget_zero(self, trained_network):
        network, dataset = trained_network
        image, label = dataset.sample(5)
        spec = local_robustness_spec(image.reshape(-1), 0.4, label, dataset.num_classes)
        result = MilpVerifier().verify(network, spec, Budget(max_nodes=1))
        assert result.status in (VerificationStatus.TIMEOUT, VerificationStatus.VERIFIED,
                                 VerificationStatus.FALSIFIED)
