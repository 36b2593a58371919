"""Equivalence regression tests for the batched bound kernels.

``ApproximateVerifier.evaluate_batch`` must reproduce the cache-free
textbook DeepPoly / IBP of ``tests/reference_bounds.py`` to 1e-9 — for
batch sizes 1, 2 and 17, with and without warmed cache prefixes, and
including infeasible-split reports.  Row ``b`` of a batch must also equal
the same sub-problem bounded alone (``B = 1``), with and without parents.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import make_random_dense_problem
from reference_bounds import (
    assert_report_matches,
    reference_deeppoly,
    reference_ibp,
)

from repro.bounds.cache import BoundCache
from repro.bounds.deeppoly import DeepPolyAnalyzer
from repro.bounds.linear_form import (
    concretize_lower_batch,
    concretize_upper_batch,
    minimizing_corner_batch,
)
from repro.bounds.splits import ACTIVE, INACTIVE, ReluSplit, SplitAssignment
from repro.specs.properties import InputBox
from repro.specs.robustness import local_robustness_spec
from repro.verifiers.appver import ApproximateVerifier

TOLERANCE = 1e-9


@pytest.fixture()
def medium_problem(small_network):
    reference = np.array([0.45, 0.55, 0.5, 0.4])
    label = int(small_network.predict(reference.reshape(1, -1))[0])
    spec = local_robustness_spec(reference, 0.12, label, 3, name="batched-spec")
    return small_network, spec


def _make_splits_pool(network, spec, seed=0):
    """A pool of assignments: empty, single, chained, and infeasible splits."""
    verifier = ApproximateVerifier(network, spec, use_cache=False)
    report = verifier.evaluate().report
    unstable = report.unstable_neurons()
    assert unstable, "fixture problem must have unstable neurons"

    rng = np.random.default_rng(seed)
    pool = [SplitAssignment.empty()]
    for layer, unit in unstable:
        pool.append(SplitAssignment.from_splits([ReluSplit(layer, unit, ACTIVE)]))
        pool.append(SplitAssignment.from_splits([ReluSplit(layer, unit, INACTIVE)]))
    for _ in range(8):
        chosen = rng.choice(len(unstable), size=min(2, len(unstable)), replace=False)
        splits = SplitAssignment.empty()
        for index in chosen:
            layer, unit = unstable[int(index)]
            phase = ACTIVE if rng.random() < 0.5 else INACTIVE
            splits = splits.with_split(ReluSplit(layer, unit, phase))
        pool.append(splits)

    # Force an infeasible sub-problem: a provably-active neuron split INACTIVE.
    stable_active = [(layer, unit)
                     for layer, bounds in enumerate(report.pre_activation_bounds)
                     for unit in range(bounds.size)
                     if bounds.lower[unit] > 1e-6]
    assert stable_active, "fixture problem must have a stably active neuron"
    layer, unit = stable_active[0]
    pool.append(SplitAssignment.from_splits([ReluSplit(layer, unit, INACTIVE)]))
    return pool


def _reference_outcomes(network, spec, batch, method):
    """What AppVer must return for each sub-problem, from the reference."""
    analyse = reference_ibp if method == "ibp" else reference_deeppoly
    outcomes = []
    for splits in batch:
        report = analyse(network.lowered(), spec.input_box, splits, spec.output_spec)
        outcomes.append(SimpleNamespace(
            p_hat=report.p_hat, report=report, candidate=report.candidate_input,
            is_valid_counterexample=(report.p_hat < 0.0 and spec.is_counterexample(
                network, report.candidate_input))))
    return outcomes


def _assert_outcomes_match(batched, sequential):
    assert len(batched) == len(sequential)
    for got, want in zip(batched, sequential):
        if want.p_hat == float("inf"):
            assert got.p_hat == float("inf")
        else:
            assert abs(got.p_hat - want.p_hat) <= TOLERANCE
        assert got.report.infeasible == want.report.infeasible
        assert got.is_valid_counterexample == want.is_valid_counterexample
        assert np.allclose(got.report.spec_row_lower, want.report.spec_row_lower,
                           atol=TOLERANCE)
        assert np.allclose(got.report.output_bounds.lower,
                           want.report.output_bounds.lower, atol=TOLERANCE)
        assert np.allclose(got.report.output_bounds.upper,
                           want.report.output_bounds.upper, atol=TOLERANCE)
        for got_bounds, want_bounds in zip(got.report.pre_activation_bounds,
                                           want.report.pre_activation_bounds):
            assert np.allclose(got_bounds.lower, want_bounds.lower, atol=TOLERANCE)
            assert np.allclose(got_bounds.upper, want_bounds.upper, atol=TOLERANCE)
        assert np.allclose(got.candidate, want.candidate, atol=TOLERANCE)


class TestEvaluateBatchEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 2, 17])
    @pytest.mark.parametrize("method", ["deeppoly", "ibp"])
    def test_matches_reference_without_cache(self, medium_problem, batch_size, method):
        network, spec = medium_problem
        pool = _make_splits_pool(network, spec)
        batch = [pool[index % len(pool)] for index in range(batch_size)]
        sequential = _reference_outcomes(network, spec, batch, method)
        batched = ApproximateVerifier(network, spec, method,
                                      use_cache=False).evaluate_batch(batch)
        _assert_outcomes_match(batched, sequential)

    @pytest.mark.parametrize("batch_size", [1, 2, 17])
    def test_matches_reference_with_cached_prefixes(self, medium_problem, batch_size):
        network, spec = medium_problem
        pool = _make_splits_pool(network, spec)
        batch = [pool[index % len(pool)] for index in range(batch_size)]
        sequential = _reference_outcomes(network, spec, batch, "deeppoly")
        # Warm the cache with the root and a few parents, then batch-evaluate.
        verifier = ApproximateVerifier(network, spec, use_cache=True)
        verifier.evaluate()
        verifier.evaluate(pool[1])
        batched = verifier.evaluate_batch(batch)
        assert verifier.cache.stats.hits > 0
        _assert_outcomes_match(batched, sequential)
        # A second pass is served from the report cache and still matches.
        again = verifier.evaluate_batch(batch)
        _assert_outcomes_match(again, sequential)

    def test_infeasible_split_reports(self, medium_problem):
        network, spec = medium_problem
        pool = _make_splits_pool(network, spec)
        infeasible_splits = pool[-1]
        verifier = ApproximateVerifier(network, spec, use_cache=False)
        outcomes = verifier.evaluate_batch([SplitAssignment.empty(), infeasible_splits])
        assert not outcomes[0].report.infeasible
        assert outcomes[1].report.infeasible
        assert outcomes[1].p_hat == float("inf")
        assert outcomes[1].verified

    def test_empty_batch(self, medium_problem):
        network, spec = medium_problem
        verifier = ApproximateVerifier(network, spec)
        assert verifier.evaluate_batch([]) == []
        assert verifier.num_calls == 0

    def test_batch_charges_one_call_per_subproblem(self, medium_problem):
        network, spec = medium_problem
        pool = _make_splits_pool(network, spec)
        verifier = ApproximateVerifier(network, spec)
        verifier.evaluate_batch(pool[:5])
        assert verifier.num_calls == 5

    def test_none_entries_mean_empty_assignment(self, medium_problem):
        network, spec = medium_problem
        verifier = ApproximateVerifier(network, spec)
        outcome_none, outcome_empty = verifier.evaluate_batch(
            [None, SplitAssignment.empty()])
        assert outcome_none.p_hat == outcome_empty.p_hat

    def test_alpha_crown_batch_falls_back_to_sequential(self, medium_problem):
        network, spec = medium_problem
        pool = _make_splits_pool(network, spec)
        batch = pool[:2]
        sequential = [ApproximateVerifier(network, spec,
                                          "alpha-crown").evaluate(splits)
                      for splits in batch]
        batched = ApproximateVerifier(network, spec,
                                      "alpha-crown").evaluate_batch(batch)
        for got, want in zip(batched, sequential):
            assert got.p_hat == pytest.approx(want.p_hat, abs=TOLERANCE)


class TestBatchedConcretization:
    def test_batched_forms_match_per_element_forms(self):
        rng = np.random.default_rng(3)
        coefficients = rng.standard_normal((4, 3, 5))
        constants = rng.standard_normal((4, 3))
        box = InputBox(np.zeros(5), np.ones(5))
        x = rng.random(5)
        lower = concretize_lower_batch(coefficients, constants, box)
        upper = concretize_upper_batch(coefficients, constants, box)
        rows = np.array([0, 2, 1, 0])
        corners = minimizing_corner_batch(coefficients[np.arange(4), rows], box)
        assert lower.shape == upper.shape == (4, 3)
        assert corners.shape == (4, 5)
        for index in range(4):
            A, c = coefficients[index], constants[index]
            values = A @ x + c
            assert np.all(lower[index] <= values) and np.all(values <= upper[index])
            assert np.allclose(lower[index], np.minimum(A * box.lower, A * box.upper).sum(1) + c)
            assert np.allclose(upper[index], np.maximum(A * box.lower, A * box.upper).sum(1) + c)
            row = A[rows[index]]
            assert np.array_equal(corners[index], np.where(row > 0, box.lower, box.upper))

    def test_shape_validation(self):
        box = InputBox(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError):
            concretize_lower_batch(np.zeros((2, 3)), np.zeros((2, 3)), box)
        with pytest.raises(ValueError):
            concretize_upper_batch(np.zeros((2, 3, 4)), np.zeros((2, 4)), box)


def _random_assignments(rng, network, count: int):
    """``count`` random assignments of up to three splits each, any phase,
    each leaving at least one neuron undecided."""
    neurons = [(layer, unit) for layer, width in enumerate(network.relu_layer_sizes())
               for unit in range(width)]
    assignments = []
    for _ in range(count):
        splits = SplitAssignment.empty()
        size = min(int(rng.integers(0, 4)), len(neurons) - 1)
        for index in rng.choice(len(neurons), size=size, replace=False):
            layer, unit = neurons[int(index)]
            splits = splits.with_split(ReluSplit(layer, unit, ACTIVE if rng.random() < 0.5
                                                 else INACTIVE))
        assignments.append(splits)
    return assignments


class TestBatchRowIndependence:
    """Row ``b`` of ``analyze_batch([s_1..s_B])`` equals ``analyze_batch([s_b])``."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 3),
           width=st.integers(2, 6), size=st.integers(2, 9),
           epsilon=st.floats(0.01, 0.4))
    def test_rows_equal_single_calls(self, seed, depth, width, size, epsilon):
        network, spec = make_random_dense_problem(seed, depth, width, epsilon)
        analyzer = DeepPolyAnalyzer(network)
        box = spec.input_box
        batch = _random_assignments(np.random.default_rng(seed), network, size)
        reports = analyzer.analyze_batch(box, batch, spec=spec.output_spec)
        for splits, report in zip(batch, reports):
            assert_report_matches(report, analyzer.analyze_batch(
                box, [splits], spec=spec.output_spec)[0])
            assert_report_matches(report, reference_deeppoly(
                network, box, splits, spec.output_spec))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 3),
           width=st.integers(2, 6), epsilon=st.floats(0.01, 0.4))
    def test_rows_equal_single_calls_with_parents(self, seed, depth, width, epsilon):
        """Children bounded together through their parents' cached passes
        equal each child bounded alone through its own parent."""
        network, spec = make_random_dense_problem(seed, depth, width, epsilon)
        analyzer = DeepPolyAnalyzer(network)
        box = spec.input_box
        rng = np.random.default_rng(seed)
        parents = _random_assignments(rng, network, 3)
        children, child_parents = [], []
        for parent in parents:
            free = [(layer, unit) for layer, width in enumerate(network.relu_layer_sizes())
                    for unit in range(width) if not parent.is_decided(layer, unit)]
            layer, unit = free[int(rng.integers(len(free)))]
            for phase in (ACTIVE, INACTIVE):
                children.append(parent.with_split(ReluSplit(layer, unit, phase)))
                child_parents.append(parent)
        alone = []
        for child, parent in zip(children, child_parents):
            cache = BoundCache()
            analyzer.analyze_batch(box, [parent], spec=spec.output_spec, cache=cache)
            alone.append(analyzer.analyze_batch(box, [child], spec=spec.output_spec,
                                                cache=cache, parents=[parent])[0])
        cache = BoundCache()
        analyzer.analyze_batch(box, parents, spec=spec.output_spec, cache=cache)
        together = analyzer.analyze_batch(box, children, spec=spec.output_spec,
                                          cache=cache, parents=child_parents)
        for got, want in zip(together, alone):
            assert_report_matches(got, want)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 3),
           width=st.integers(2, 6), size=st.integers(2, 9))
    def test_ibp_rows_equal_single_calls(self, seed, depth, width, size):
        from repro.bounds.interval import interval_bounds_batch

        network, spec = make_random_dense_problem(seed, depth, width, 0.2)
        box = spec.input_box
        batch = _random_assignments(np.random.default_rng(seed), network, size)
        reports = interval_bounds_batch(network, box, batch, spec=spec.output_spec)
        for splits, report in zip(batch, reports):
            assert_report_matches(report, interval_bounds_batch(
                network, box, [splits], spec=spec.output_spec)[0])
            assert_report_matches(report, reference_ibp(
                network, box, splits, spec.output_spec))
