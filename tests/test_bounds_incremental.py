"""Property-based equivalence suite for the incremental bound path.

The rank-1 parent-pass reuse of :class:`~repro.bounds.deeppoly.DeepPolyAnalyzer`
must be *numerically identical* to full recomputation: for random networks,
boxes and split chains, a child analysed with ``parent=`` (and a cache
warmed by the parent's own analysis) must reproduce the from-scratch
analysis at the same batch size bit for bit — every pre-activation bound,
the output bounds, the spec-row lower bounds, ``p̂``, the counterexample
corner and the ``infeasible`` flag.  The batched path with ``parents=``
must agree with the cache-free textbook DeepPoly of
``tests/reference_bounds.py`` to the established sub-1e-9 GEMM noise while
keeping the verdict-grade fields (flags, corners) exact.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import make_random_dense_problem
from reference_bounds import reference_deeppoly

from repro.bounds.cache import BoundCache
from repro.bounds.deeppoly import DeepPolyAnalyzer
from repro.bounds.splits import (
    ACTIVE,
    INACTIVE,
    ReluSplit,
    SplitAssignment,
    insert_into_canonical,
    prefix_counts,
    split_delta,
)
from repro.specs.robustness import local_robustness_spec

TOLERANCE = 1e-9


def _random_chain(rng, analyzer, box, spec, cache, length: int):
    """A parent chain of random splits, analysed as the search would.

    Returns ``(parent, child, delta)`` where the child extends the parent
    by one random split on a neuron of the parent's report (unstable where
    possible, any undecided neuron otherwise — exercising the stable-split
    and infeasible corners too).
    """
    parent = SplitAssignment.empty()
    report = analyzer.analyze(box, parent, spec=spec, cache=cache)
    for _ in range(length + 1):
        candidates = report.unstable_neurons(parent)
        if not candidates or rng.random() < 0.25:
            # Occasionally split an already-stable neuron: the clip then
            # either does nothing or empties the region (infeasible corner).
            undecided = [(layer, unit)
                         for layer, bounds in
                         enumerate(report.pre_activation_bounds)
                         for unit in range(bounds.size)
                         if not parent.is_decided(layer, unit)]
            assume(undecided)
            layer, unit = undecided[int(rng.integers(len(undecided)))]
        else:
            layer, unit = candidates[int(rng.integers(len(candidates)))]
        phase = ACTIVE if rng.random() < 0.5 else INACTIVE
        child = parent.with_split(ReluSplit(layer, unit, phase))
        delta = ReluSplit(layer, unit, phase)
        if len(child) == length + 1:
            return parent, child, delta
        parent = child
        report = analyzer.analyze(box, parent, spec=spec, cache=cache)
    raise AssertionError("unreachable: the chain always reaches length + 1")


def _assert_reports_bitwise(incremental, dense):
    assert incremental.infeasible == dense.infeasible
    assert incremental.p_hat == dense.p_hat
    for got, want in zip(incremental.pre_activation_bounds,
                         dense.pre_activation_bounds):
        np.testing.assert_array_equal(got.lower, want.lower)
        np.testing.assert_array_equal(got.upper, want.upper)
    np.testing.assert_array_equal(incremental.output_bounds.lower,
                                  dense.output_bounds.lower)
    np.testing.assert_array_equal(incremental.output_bounds.upper,
                                  dense.output_bounds.upper)
    if dense.spec_row_lower is None:
        assert incremental.spec_row_lower is None
    else:
        np.testing.assert_array_equal(incremental.spec_row_lower,
                                      dense.spec_row_lower)
    if dense.candidate_input is None:
        assert incremental.candidate_input is None
    else:
        np.testing.assert_array_equal(incremental.candidate_input,
                                      dense.candidate_input)


class TestSequentialBitwiseEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000),
           depth=st.integers(1, 4),
           width=st.integers(2, 6),
           chain=st.integers(0, 4),
           epsilon=st.floats(0.01, 0.4))
    def test_incremental_child_equals_full_recompute(self, seed, depth, width,
                                                     chain, epsilon):
        """Incremental child bounds == from-scratch bounds, bit for bit."""
        network, spec = make_random_dense_problem(seed, depth, width, epsilon)
        analyzer = DeepPolyAnalyzer(network)
        box = spec.input_box
        cache = BoundCache()
        rng = np.random.default_rng(seed + 1)
        parent, child, delta = _random_chain(rng, analyzer, box,
                                             spec.output_spec, cache, chain)
        incremental = analyzer.analyze(box, child, spec=spec.output_spec,
                                       cache=cache, parent=parent)
        dense = analyzer.analyze(box, child, spec=spec.output_spec)
        _assert_reports_bitwise(incremental, dense)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), chain=st.integers(0, 3))
    def test_infeasible_corner_matches(self, seed, chain):
        """Splitting a provably-stable neuron against its phase must yield
        an identical infeasible flag (and swapped bounds) either way."""
        network, spec = make_random_dense_problem(seed, 2, 4, 0.05)
        analyzer = DeepPolyAnalyzer(network)
        box = spec.input_box
        cache = BoundCache()
        parent = SplitAssignment.empty()
        report = analyzer.analyze(box, parent, spec=spec.output_spec,
                                  cache=cache)
        stable = [(layer, unit, bounds.lower[unit])
                  for layer, bounds in enumerate(report.pre_activation_bounds)
                  for unit in range(bounds.size)
                  if bounds.lower[unit] > 1e-6]
        assume(stable)
        layer, unit, _ = stable[0]
        child = parent.with_split(ReluSplit(layer, unit, INACTIVE))
        incremental = analyzer.analyze(box, child, spec=spec.output_spec,
                                       cache=cache, parent=parent)
        dense = analyzer.analyze(box, child, spec=spec.output_spec)
        assert incremental.infeasible and dense.infeasible
        assert incremental.p_hat == dense.p_hat == float("inf")
        _assert_reports_bitwise(incremental, dense)


class TestBatchedEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 3),
           width=st.integers(2, 5))
    def test_batched_incremental_matches_reference(self, seed, depth, width):
        """`analyze_batch(parents=...)` == per-child reference DeepPoly to
        1e-9, with the verdict-grade fields (flags, corners) exactly equal."""
        network, spec = make_random_dense_problem(seed, depth, width, 0.1)
        analyzer = DeepPolyAnalyzer(network)
        box = spec.input_box
        cache = BoundCache()
        rng = np.random.default_rng(seed + 2)
        parent = SplitAssignment.empty()
        report = analyzer.analyze(box, parent, spec=spec.output_spec,
                                  cache=cache)
        unstable = report.unstable_neurons(parent)
        assume(unstable)
        children, parents = [], []
        for layer, unit in unstable[:4]:
            for phase in (ACTIVE, INACTIVE):
                children.append(parent.with_split(ReluSplit(layer, unit, phase)))
                parents.append(parent)
        batched = analyzer.analyze_batch(box, children, spec=spec.output_spec,
                                         cache=cache, parents=parents)
        for child, got in zip(children, batched):
            want = reference_deeppoly(network, box, child, spec.output_spec)
            assert got.infeasible == want.infeasible
            if want.p_hat == float("inf"):
                assert got.p_hat == float("inf")
            else:
                assert got.p_hat == pytest.approx(want.p_hat, abs=TOLERANCE)
            for got_bounds, want_bounds in zip(got.pre_activation_bounds,
                                               want.pre_activation_bounds):
                np.testing.assert_allclose(got_bounds.lower, want_bounds.lower,
                                           atol=TOLERANCE)
                np.testing.assert_allclose(got_bounds.upper, want_bounds.upper,
                                           atol=TOLERANCE)


    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 3),
           width=st.integers(2, 5))
    def test_batched_infeasible_corner_matches(self, seed, depth, width):
        """A batched child that splits a provably-active neuron inactive is
        infeasible on the incremental path exactly as in the reference."""
        network, spec = make_random_dense_problem(seed, depth, width, 0.05)
        analyzer = DeepPolyAnalyzer(network)
        box = spec.input_box
        cache = BoundCache()
        parent = SplitAssignment.empty()
        report = analyzer.analyze(box, parent, spec=spec.output_spec,
                                  cache=cache)
        stable = [(layer, unit)
                  for layer, bounds in enumerate(report.pre_activation_bounds)
                  for unit in range(bounds.size)
                  if bounds.lower[unit] > 1e-6]
        assume(stable)
        layer, unit = stable[0]
        child = parent.with_split(ReluSplit(layer, unit, INACTIVE))
        batched = analyzer.analyze_batch(box, [child], spec=spec.output_spec,
                                         cache=cache, parents=[parent])[0]
        dense = reference_deeppoly(network, box, child, spec.output_spec)
        assert batched.infeasible and dense.infeasible
        assert batched.p_hat == dense.p_hat == float("inf")

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 3),
           width=st.integers(2, 5), epsilon=st.floats(0.02, 0.3))
    def test_batched_bound_holds_on_sampled_feasible_points(self, seed, depth,
                                                            width, epsilon):
        """``p̂`` of every batched incremental child lower-bounds the spec
        margin on each sampled input that satisfies the child's splits."""
        network, spec = make_random_dense_problem(seed, depth, width, epsilon)
        analyzer = DeepPolyAnalyzer(network)
        box = spec.input_box
        cache = BoundCache()
        parent = SplitAssignment.empty()
        report = analyzer.analyze(box, parent, spec=spec.output_spec,
                                  cache=cache)
        children = [parent.with_split(ReluSplit(layer, unit, phase))
                    for layer, unit in report.unstable_neurons(parent)[:4]
                    for phase in (ACTIVE, INACTIVE)]
        assume(children)
        reports = analyzer.analyze_batch(box, children, spec=spec.output_spec,
                                         cache=cache,
                                         parents=[parent] * len(children))
        rng = np.random.default_rng(seed + 7)
        samples = rng.uniform(box.lower, box.upper, size=(64, box.dimension))
        outputs = network.forward(samples)
        for child, child_report in zip(children, reports):
            for x, y in zip(samples, outputs):
                if child.satisfied_by(network.pre_activations(x)):
                    assert not child_report.infeasible
                    assert (spec.output_spec.margin(y)
                            >= child_report.p_hat - TOLERANCE)


class TestKeyDerivation:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 100_000), size=st.integers(0, 10))
    def test_insert_into_canonical_matches_with_split(self, seed, size):
        rng = np.random.default_rng(seed)
        parent = SplitAssignment.empty()
        for _ in range(size):
            layer = int(rng.integers(0, 4))
            unit = int(rng.integers(0, 6))
            if parent.is_decided(layer, unit):
                continue
            phase = ACTIVE if rng.random() < 0.5 else INACTIVE
            parent = parent.with_split(ReluSplit(layer, unit, phase))
        free = [(layer, unit) for layer in range(4) for unit in range(6)
                if not parent.is_decided(layer, unit)]
        layer, unit = free[int(rng.integers(len(free)))]
        delta = ReluSplit(layer, unit, INACTIVE)
        child = parent.with_split(delta)
        assert insert_into_canonical(parent.canonical_key(), delta) \
            == child.canonical_key()

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 100_000), size=st.integers(0, 10),
           num_layers=st.integers(1, 5))
    def test_prefix_counts_match_prefix_key(self, seed, size, num_layers):
        rng = np.random.default_rng(seed)
        splits = SplitAssignment.empty()
        for _ in range(size):
            layer = int(rng.integers(0, num_layers))
            unit = int(rng.integers(0, 6))
            if splits.is_decided(layer, unit):
                continue
            phase = ACTIVE if rng.random() < 0.5 else INACTIVE
            splits = splits.with_split(ReluSplit(layer, unit, phase))
        canonical = splits.canonical_key()
        counts = prefix_counts(canonical, num_layers)
        for layer in range(num_layers):
            assert canonical[:counts[layer]] == splits.prefix_key(layer)

    def test_split_delta_detects_one_split_extensions(self):
        parent = SplitAssignment.from_splits([ReluSplit(0, 1, ACTIVE),
                                              ReluSplit(1, 0, INACTIVE)])
        child = parent.with_split(ReluSplit(2, 3, ACTIVE))
        delta = split_delta(parent, child)
        assert delta == ReluSplit(2, 3, ACTIVE)
        # Rebuilt (breadcrumb-free) assignments are detected structurally.
        rebuilt = SplitAssignment.from_splits(list(child))
        assert split_delta(parent, rebuilt) == ReluSplit(2, 3, ACTIVE)
        # Not a one-split extension.
        assert split_delta(parent, parent) is None
        assert split_delta(None, child) is None
        grandchild = child.with_split(ReluSplit(3, 0, ACTIVE))
        assert split_delta(parent, grandchild) is None
        # A same-size assignment with a flipped phase is no extension.
        flipped = SplitAssignment.from_splits(
            [ReluSplit(0, 1, INACTIVE), ReluSplit(1, 0, INACTIVE),
             ReluSplit(2, 3, ACTIVE)])
        assert split_delta(parent, flipped) is None


class TestEndToEndEquality:
    @pytest.mark.parametrize("frontier_size", [1, 2, 8])
    def test_verifier_runs_identical_with_and_without_incremental(
            self, small_network, frontier_size):
        from repro.core.abonn import AbonnVerifier
        from repro.core.config import AbonnConfig
        from repro.utils.timing import Budget

        reference = np.array([0.45, 0.55, 0.5, 0.4])
        label = int(small_network.predict(reference.reshape(1, -1))[0])
        spec = local_robustness_spec(reference, 0.12, label, 3)
        results = {}
        for incremental in (False, True):
            config = AbonnConfig(frontier_size=frontier_size,
                                 incremental=incremental)
            results[incremental] = AbonnVerifier(config).verify(
                small_network, spec, Budget(max_nodes=96))
        baseline, observed = results[False], results[True]
        assert baseline.status == observed.status
        assert baseline.nodes_explored == observed.nodes_explored
        if baseline.counterexample is None:
            assert observed.counterexample is None
        else:
            np.testing.assert_array_equal(baseline.counterexample,
                                          observed.counterexample)
        assert observed.extras["bound_cache"]["delta_corrections"] >= 0
        assert "timings" in observed.extras


class TestTrainedTrajectoryEquality:
    """Incremental on vs. off on a trained network, for all three verifiers:
    verdict, node charges, bound and counterexample must be identical."""

    #: (sample index, epsilon) pairs covering verified-after-branching,
    #: falsified-after-branching and root-resolved problems.
    PROBLEMS = [(25, 0.15), (13, 0.2), (13, 0.12)]

    @staticmethod
    def _spec(dataset, index, epsilon):
        image, label = dataset.sample(index)
        return local_robustness_spec(image.reshape(-1), epsilon, label,
                                     dataset.num_classes)

    @staticmethod
    def _assert_identical(full, incremental):
        assert incremental.status == full.status
        assert incremental.nodes_explored == full.nodes_explored
        if full.bound is None:
            assert incremental.bound is None
        else:
            assert incremental.bound == pytest.approx(full.bound,
                                                      abs=TOLERANCE)
        if full.counterexample is None:
            assert incremental.counterexample is None
        else:
            np.testing.assert_array_equal(incremental.counterexample,
                                          full.counterexample)

    @pytest.mark.parametrize("frontier_size", [1, 2, 8])
    @pytest.mark.parametrize("index,epsilon", PROBLEMS)
    def test_abonn_identical_at_all_frontier_sizes(self, trained_network,
                                                   frontier_size, index,
                                                   epsilon):
        from repro.core.abonn import AbonnVerifier
        from repro.core.config import AbonnConfig
        from repro.utils.timing import Budget

        network, dataset = trained_network
        spec = self._spec(dataset, index, epsilon)
        runs = [AbonnVerifier(AbonnConfig(frontier_size=frontier_size,
                                          incremental=incremental)).verify(
                    network, spec, Budget(max_nodes=300))
                for incremental in (False, True)]
        self._assert_identical(*runs)

    @pytest.mark.parametrize("frontier_size", [1, 8])
    def test_bab_baseline_identical(self, trained_network, frontier_size):
        from repro.bab import BaBBaselineVerifier
        from repro.utils.timing import Budget

        network, dataset = trained_network
        spec = self._spec(dataset, 13, 0.2)
        runs = [BaBBaselineVerifier(frontier_size=frontier_size,
                                    incremental=incremental).verify(
                    network, spec, Budget(max_nodes=300))
                for incremental in (False, True)]
        self._assert_identical(*runs)

    @pytest.mark.parametrize("frontier_size", [1, 8])
    def test_alphabeta_identical(self, trained_network, frontier_size):
        from repro.baselines.alphabeta_crown import AlphaBetaCrownVerifier
        from repro.utils.timing import Budget

        network, dataset = trained_network
        spec = self._spec(dataset, 13, 0.2)
        runs = [AlphaBetaCrownVerifier(frontier_size=frontier_size,
                                       incremental=incremental).verify(
                    network, spec, Budget(max_nodes=300))
                for incremental in (False, True)]
        self._assert_identical(*runs)
