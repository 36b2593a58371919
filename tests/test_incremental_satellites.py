"""Satellite features of the incremental-bounds PR.

Covers the fingerprint-scoped shareable
:class:`~repro.bounds.cache.LpCache`, the robustness-radius sweep helper,
the α-CROWN parent warm start, and the phase-timing accumulator (the
driver's stage timings are tested in ``tests/test_engine_driver.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bounds.alpha_crown import AlphaCrownAnalyzer, AlphaCrownConfig
from repro.bounds.cache import LpCache
from repro.bounds.splits import ACTIVE, INACTIVE, ReluSplit, SplitAssignment
from repro.core.abonn import AbonnVerifier
from repro.core.config import AbonnConfig
from repro.specs.robustness import local_robustness_spec, robustness_radius_sweep
from repro.utils.timing import Budget, PhaseTimings
from repro.verifiers.appver import ApproximateVerifier
from repro.verifiers.milp import (
    problem_fingerprint,
    solve_leaf_lp_batch,
)


def _problem(network, reference, epsilon):
    reference = np.asarray(reference, dtype=float)
    label = int(network.predict(reference.reshape(1, -1))[0])
    return local_robustness_spec(reference, epsilon, label, network.output_dim)


def _decided_leaves(network, spec, count=3, seed=11):
    """Fully phase-decided leaves with their own bound reports."""
    appver = ApproximateVerifier(network, spec, use_cache=False)
    rng = np.random.default_rng(seed)
    leaves = []
    for _ in range(count):
        splits = appver.root_splits
        outcome = appver.evaluate(splits)
        for _ in range(4):
            unstable = outcome.report.unstable_neurons(splits)
            if not unstable:
                break
            for layer, unit in unstable:
                phase = ACTIVE if rng.random() < 0.5 else INACTIVE
                splits = splits.with_split(ReluSplit(layer, unit, phase))
            outcome = appver.evaluate(splits)
        if not outcome.report.unstable_neurons(splits):
            leaves.append((splits, outcome.report))
    assert leaves, "fixture network must admit decided leaves"
    return appver.lowered, leaves


class TestFingerprintScopedLpCache:
    def test_fingerprint_identifies_problem(self, small_network):
        lowered = small_network.lowered()
        spec_a = _problem(small_network, [0.45, 0.55, 0.5, 0.4], 0.12)
        spec_b = _problem(small_network, [0.45, 0.55, 0.5, 0.4], 0.13)
        fp_a = problem_fingerprint(lowered, spec_a.input_box, spec_a.output_spec)
        fp_b = problem_fingerprint(lowered, spec_b.input_box, spec_b.output_spec)
        fp_a2 = problem_fingerprint(lowered, spec_a.input_box, spec_a.output_spec)
        assert fp_a == fp_a2
        assert fp_a != fp_b  # nearby epsilon -> different box -> new scope

    def test_shared_cache_never_crosses_epsilons(self, small_network):
        """The same canonical key at two radii must resolve independently."""
        spec_a = _problem(small_network, [0.45, 0.55, 0.5, 0.4], 0.10)
        spec_b = _problem(small_network, [0.45, 0.55, 0.5, 0.4], 0.14)
        lowered_a, leaves_a = _decided_leaves(small_network, spec_a)
        shared = LpCache()
        fp_a = problem_fingerprint(lowered_a, spec_a.input_box,
                                   spec_a.output_spec)
        fp_b = problem_fingerprint(lowered_a, spec_b.input_box,
                                   spec_b.output_spec)
        splits, _ = leaves_a[0]
        # Decide any neurons the wider box destabilises, so ONE canonical
        # assignment is a valid leaf under BOTH radii; the narrower box can
        # only stabilise further.
        appver_b = ApproximateVerifier(small_network, spec_b, use_cache=False)
        report_b = appver_b.evaluate(splits).report
        for _ in range(4):
            unstable = report_b.unstable_neurons(splits)
            if not unstable:
                break
            for layer, unit in unstable:
                splits = splits.with_split(ReluSplit(layer, unit, ACTIVE))
            report_b = appver_b.evaluate(splits).report
        assert not report_b.unstable_neurons(splits)
        appver_a = ApproximateVerifier(small_network, spec_a, use_cache=False)
        report_a = appver_a.evaluate(splits).report
        assert not report_a.unstable_neurons(splits)
        first = solve_leaf_lp_batch(lowered_a, spec_a.input_box,
                                    spec_a.output_spec, [(splits, report_a)],
                                    cache=shared, fingerprint=fp_a)[0]
        second = solve_leaf_lp_batch(lowered_a, spec_b.input_box,
                                     spec_b.output_spec, [(splits, report_b)],
                                     cache=shared, fingerprint=fp_b)[0]
        assert shared.stats.solves == 2  # no unsound cross-epsilon hit
        unshared = solve_leaf_lp_batch(lowered_a, spec_b.input_box,
                                       spec_b.output_spec,
                                       [(splits, report_b)])[0]
        assert second.feasible == unshared.feasible
        if second.feasible:
            assert second.value == pytest.approx(unshared.value, abs=1e-9)
        # Same problem again: served from the shared cache.
        again = solve_leaf_lp_batch(lowered_a, spec_a.input_box,
                                    spec_a.output_spec, [(splits, report_a)],
                                    cache=shared, fingerprint=fp_a)[0]
        assert again is first
        assert shared.stats.solves == 2


class TestRobustnessRadiusSweep:
    def test_sweep_matches_unshared_runs(self, small_network):
        reference = np.array([0.45, 0.55, 0.5, 0.4])
        label = int(small_network.predict(reference.reshape(1, -1))[0])
        epsilons = (0.06, 0.12, 0.06)
        swept, cache = robustness_radius_sweep(
            lambda lp_cache: AbonnVerifier(AbonnConfig(), lp_cache=lp_cache),
            small_network, reference, epsilons, label, 3,
            budget=Budget(max_nodes=96))
        assert [eps for eps, _ in swept] == [pytest.approx(e) for e in epsilons]
        for (epsilon, shared_result) in swept:
            spec = local_robustness_spec(reference, epsilon, label, 3)
            solo = AbonnVerifier(AbonnConfig()).verify(
                small_network, spec, Budget(max_nodes=96))
            assert shared_result.status == solo.status
            assert shared_result.nodes_explored == solo.nodes_explored
        # The repeated epsilon re-uses the first run's solves when any leaf
        # LP ran at all (hits only possible once something was cached).
        stats = cache.stats
        assert stats.solves >= 0
        if stats.solves:
            assert stats.hits >= 0


class TestAlphaWarmStart:
    def test_warm_start_reuses_parent_slopes(self, small_network):
        spec = _problem(small_network, [0.45, 0.55, 0.5, 0.4], 0.12)
        lowered = small_network.lowered()
        analyzer = AlphaCrownAnalyzer(lowered, AlphaCrownConfig(iterations=2))
        parent = SplitAssignment.empty(lowered.relu_layer_sizes())
        parent_report = analyzer.analyze(spec.input_box, parent,
                                         spec=spec.output_spec)
        unstable = parent_report.unstable_neurons()
        assert unstable
        layer, unit = unstable[0]
        delta = ReluSplit(layer, unit, ACTIVE)
        child = parent.with_split(delta)
        assert analyzer.warm_starts == 0
        child_report = analyzer.analyze(spec.input_box, child,
                                        spec=spec.output_spec,
                                        parent=(parent_report, delta))
        assert analyzer.warm_starts == 1
        # Warm-started bounds stay sound: p_hat is a valid lower bound.
        cold = AlphaCrownAnalyzer(lowered, AlphaCrownConfig(iterations=2))
        cold_report = cold.analyze(spec.input_box, child, spec=spec.output_spec)
        for point in spec.input_box.sample(rng=3, count=16):
            if not child.satisfied_by(lowered.pre_activations(point)):
                continue
            margin = spec.output_spec.margin(
                np.asarray(small_network.forward(point.reshape(1, -1))).reshape(-1))
            assert child_report.p_hat <= margin + 1e-7
            assert cold_report.p_hat <= margin + 1e-7

    def test_warm_start_disabled_by_config(self, small_network):
        spec = _problem(small_network, [0.45, 0.55, 0.5, 0.4], 0.12)
        lowered = small_network.lowered()
        analyzer = AlphaCrownAnalyzer(
            lowered, AlphaCrownConfig(iterations=1, warm_start=False))
        parent = SplitAssignment.empty(lowered.relu_layer_sizes())
        report = analyzer.analyze(spec.input_box, parent, spec=spec.output_spec)
        unstable = report.unstable_neurons()
        assert unstable
        delta = ReluSplit(*unstable[0], ACTIVE)
        child = parent.with_split(delta)
        analyzer.analyze(spec.input_box, child, spec=spec.output_spec,
                         parent=(report, delta))
        assert analyzer.warm_starts == 0

    def test_batched_warm_start_skips_initial_pass(self, small_network):
        spec = _problem(small_network, [0.45, 0.55, 0.5, 0.4], 0.12)
        lowered = small_network.lowered()
        analyzer = AlphaCrownAnalyzer(lowered, AlphaCrownConfig(iterations=1))
        parent = SplitAssignment.empty(lowered.relu_layer_sizes())
        report = analyzer.analyze(spec.input_box, parent, spec=spec.output_spec)
        unstable = report.unstable_neurons()
        assert unstable
        layer, unit = unstable[0]
        deltas = [ReluSplit(layer, unit, phase) for phase in (ACTIVE, INACTIVE)]
        children = [parent.with_split(delta) for delta in deltas]
        reports = analyzer.analyze_batch(spec.input_box, children,
                                         spec=spec.output_spec,
                                         parents=[(report, delta) for delta in deltas])
        assert analyzer.warm_starts == 2
        for child_report in reports:
            assert child_report.method == "alpha-crown"


class TestPhaseTimings:
    def test_phase_timings_accumulate(self):
        timings = PhaseTimings()
        with timings.measure("bound"):
            pass
        timings.record("lp", 0.5, count=2)
        payload = timings.as_dict()
        assert set(payload) == {"bound", "lp"}
        assert payload["lp"]["seconds"] == pytest.approx(0.5)
        assert payload["lp"]["count"] == 2
        assert payload["bound"]["count"] == 1
        assert payload["bound"]["seconds"] >= 0.0
