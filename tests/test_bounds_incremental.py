"""Property-based equivalence suite for reference bounds.

A child bounded against its parent's report (``parent=(report, split)``)
takes the layers below its split layer from the parent and the split layer
as the parent's interval clipped at the new neuron: those are checked bit
for bit.  The layers it re-bounds must equal the cache-free textbook oracle
of ``tests/reference_bounds.py`` given the same parent report, to the
established sub-1e-9 GEMM noise, with the verdict-grade fields (flags,
corners) exact, and a cache hit must equal a cache-free recompute bit for
bit.  Further properties: a child's bounds lie inside its parent's on every
layer, points of the child's region lie inside its bounds and have margin
at least ``p̂``, a NaN parent bound is re-bounded rather than inherited, and
the verifiers' ``incremental`` flag leaves DeepPoly children bit-identical,
also against an α-CROWN root.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import make_random_dense_problem
from reference_bounds import assert_report_matches, reference_deeppoly

from repro.bounds.cache import BoundCache
from repro.bounds.deeppoly import DeepPolyAnalyzer
from repro.bounds.linear_form import ScalarBounds
from repro.bounds.report import FlatBounds
from repro.bounds.splits import (
    ACTIVE,
    INACTIVE,
    ReluSplit,
    SplitAssignment,
    layer_rows,
    stack_rows,
)
from repro.specs.robustness import local_robustness_spec

TOLERANCE = 1e-9


def _random_chain(rng, analyzer, box, spec, cache, length: int):
    """A chain of random splits, each bounded against the previous report.

    Returns ``(parent_report, child, delta)`` where the child extends the
    parent by one random split on a neuron of the parent's report (unstable
    where possible, any undecided neuron otherwise — exercising the
    stable-split and infeasible corners too).
    """
    parent = analyzer.root_splits
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
        delta = ReluSplit(layer, unit, phase)
        child = parent.with_split(delta)
        if len(child) == length + 1:
            return report, child, delta
        assume(not report.infeasible)
        report = analyzer.analyze(box, child, spec=spec, cache=cache,
                                  parent=(report, delta))
        parent = child
    raise AssertionError("unreachable: the chain always reaches length + 1")


def _assert_reports_bitwise(got, want):
    """Bit-for-bit equal: the hidden bounds, the spec rows, ``p̂`` and the
    candidate."""
    assert got.infeasible == want.infeasible
    assert got.p_hat == want.p_hat
    assert got.hidden_bounds.offsets == want.hidden_bounds.offsets
    np.testing.assert_array_equal(got.hidden_bounds.lower, want.hidden_bounds.lower)
    np.testing.assert_array_equal(got.hidden_bounds.upper, want.hidden_bounds.upper)
    np.testing.assert_array_equal(got.spec_row_lower, want.spec_row_lower)
    if want.candidate_input is None:
        assert got.candidate_input is None
    else:
        np.testing.assert_array_equal(got.candidate_input, want.candidate_input)


def _assert_copied_from_parent(report, parent, child, delta):
    """The layers up to the split layer are the parent's, clipped at the
    child's decided neurons (only the new one changes anything unless the
    parent is infeasible), bit for bit."""
    for layer in range(delta.layer + 1):
        want = parent.pre_activation_bounds[layer]
        lower, upper = want.lower.copy(), want.upper.copy()
        for split in child:
            if split.layer == layer and split.phase == ACTIVE:
                lower[split.unit] = np.maximum(lower[split.unit], 0.0)
            elif split.layer == layer:
                upper[split.unit] = np.minimum(upper[split.unit], 0.0)
        if np.any(lower > upper + 1e-12):
            # An empty layer: the kernel re-sorts the row's bounds.
            lower, upper = np.minimum(lower, upper), np.maximum(lower, upper)
        got = report.pre_activation_bounds[layer]
        np.testing.assert_array_equal(got.lower, lower)
        np.testing.assert_array_equal(got.upper, upper)


class TestSequentialBitwiseEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000),
           depth=st.integers(1, 4),
           width=st.integers(2, 6),
           chain=st.integers(0, 4),
           epsilon=st.floats(0.01, 0.4))
    def test_incremental_child_equals_full_recompute(self, seed, depth, width,
                                                     chain, epsilon):
        """The layers up to the split layer are the parent's bit for bit,
        the re-bound layers equal the reference-bound oracle to 1e-9 (flags
        and corners exactly), and a cache hit equals a cache-free recompute
        bit for bit."""
        network, spec = make_random_dense_problem(seed, depth, width, epsilon)
        analyzer = DeepPolyAnalyzer(network)
        box = spec.input_box
        cache = BoundCache()
        rng = np.random.default_rng(seed + 1)
        parent, child, delta = _random_chain(rng, analyzer, box,
                                             spec.output_spec, cache, chain)
        incremental = analyzer.analyze(box, child, spec=spec.output_spec,
                                       cache=cache, parent=(parent, delta))
        _assert_copied_from_parent(incremental, parent, child, delta)
        assert_report_matches(incremental, reference_deeppoly(
            network, box, child, spec.output_spec, parent=parent))
        hits = cache.stats.report_hits
        cached = analyzer.analyze(box, child, spec=spec.output_spec,
                                  cache=cache, parent=(parent, delta))
        assert cache.stats.report_hits == hits + 1
        fresh = analyzer.analyze(box, child, spec=spec.output_spec,
                                 parent=(parent, delta))
        _assert_reports_bitwise(cached, fresh)
        _assert_reports_bitwise(incremental, fresh)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), chain=st.integers(0, 3))
    def test_infeasible_corner_matches(self, seed, chain):
        """Splitting a provably-stable neuron against its phase must yield
        an identical infeasible flag (and swapped bounds) either way."""
        network, spec = make_random_dense_problem(seed, 2, 4, 0.05)
        analyzer = DeepPolyAnalyzer(network)
        box = spec.input_box
        cache = BoundCache()
        parent = analyzer.root_splits
        report = analyzer.analyze(box, parent, spec=spec.output_spec,
                                  cache=cache)
        stable = [(layer, unit, bounds.lower[unit])
                  for layer, bounds in enumerate(report.pre_activation_bounds)
                  for unit in range(bounds.size)
                  if bounds.lower[unit] > 1e-6]
        assume(stable)
        layer, unit, _ = stable[0]
        delta = ReluSplit(layer, unit, INACTIVE)
        child = parent.with_split(delta)
        incremental = analyzer.analyze(box, child, spec=spec.output_spec,
                                       cache=cache, parent=(report, delta))
        assert incremental.infeasible
        assert incremental.p_hat == float("inf")
        _assert_copied_from_parent(incremental, report, child, delta)
        _assert_reports_bitwise(incremental, analyzer.analyze(
            box, child, spec=spec.output_spec, parent=(report, delta)))
        want = reference_deeppoly(network, box, child, spec.output_spec,
                                  parent=report)
        assert want.infeasible and want.p_hat == float("inf")


def _root_children(analyzer, box, spec, cache, count):
    """The root report and its first ``count`` unstable neurons' children."""
    root = analyzer.analyze(box, analyzer.root_splits, spec=spec, cache=cache)
    children, parents = [], []
    for layer, unit in root.unstable_neurons()[:count]:
        for phase in (ACTIVE, INACTIVE):
            delta = ReluSplit(layer, unit, phase)
            children.append(analyzer.root_splits.with_split(delta))
            parents.append((root, delta))
    return root, children, parents


class TestBatchedEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 3),
           width=st.integers(2, 5))
    def test_batched_incremental_matches_reference(self, seed, depth, width):
        """`analyze_batch(parents=...)` == per-child reference-bound oracle
        to 1e-9, with the verdict-grade fields (flags, corners) exactly
        equal."""
        network, spec = make_random_dense_problem(seed, depth, width, 0.1)
        analyzer = DeepPolyAnalyzer(network)
        box = spec.input_box
        cache = BoundCache()
        root, children, parents = _root_children(analyzer, box, spec.output_spec,
                                                 cache, 4)
        assume(children)
        batched = analyzer.analyze_batch(box, children, spec=spec.output_spec,
                                         cache=cache, parents=parents)
        for child, got in zip(children, batched):
            want = reference_deeppoly(network, box, child, spec.output_spec,
                                      parent=root)
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
        infeasible against its parent exactly as in the reference."""
        network, spec = make_random_dense_problem(seed, depth, width, 0.05)
        analyzer = DeepPolyAnalyzer(network)
        box = spec.input_box
        cache = BoundCache()
        parent = analyzer.root_splits
        report = analyzer.analyze(box, parent, spec=spec.output_spec,
                                  cache=cache)
        stable = [(layer, unit)
                  for layer, bounds in enumerate(report.pre_activation_bounds)
                  for unit in range(bounds.size)
                  if bounds.lower[unit] > 1e-6]
        assume(stable)
        layer, unit = stable[0]
        delta = ReluSplit(layer, unit, INACTIVE)
        child = parent.with_split(delta)
        batched = analyzer.analyze_batch(box, [child], spec=spec.output_spec,
                                         cache=cache, parents=[(report, delta)])[0]
        dense = reference_deeppoly(network, box, child, spec.output_spec,
                                   parent=report)
        assert batched.infeasible and dense.infeasible
        assert batched.p_hat == dense.p_hat == float("inf")

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 3),
           width=st.integers(2, 5), epsilon=st.floats(0.02, 0.3))
    def test_batched_bound_holds_on_sampled_feasible_points(self, seed, depth,
                                                            width, epsilon):
        """``p̂`` of every batched child lower-bounds the spec margin on each
        sampled input that satisfies the child's splits, and the point's
        pre-activations lie inside the child's bounds."""
        network, spec = make_random_dense_problem(seed, depth, width, epsilon)
        analyzer = DeepPolyAnalyzer(network)
        box = spec.input_box
        cache = BoundCache()
        _, children, parents = _root_children(analyzer, box, spec.output_spec,
                                              cache, 4)
        assume(children)
        reports = analyzer.analyze_batch(box, children, spec=spec.output_spec,
                                         cache=cache, parents=parents)
        rng = np.random.default_rng(seed + 7)
        samples = rng.uniform(box.lower, box.upper, size=(64, box.dimension))
        outputs = network.forward(samples)
        for child, child_report in zip(children, reports):
            for x, y in zip(samples, outputs):
                pre = network.pre_activations(x)
                if child.satisfied_by(pre):
                    assert not child_report.infeasible
                    assert (spec.output_spec.margin(y)
                            >= child_report.p_hat - TOLERANCE)
                    for values, bounds in zip(pre, child_report.pre_activation_bounds):
                        assert np.all(values >= bounds.lower - TOLERANCE)
                        assert np.all(values <= bounds.upper + TOLERANCE)


class TestReferenceProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 4),
           width=st.integers(2, 6), chain=st.integers(0, 4),
           epsilon=st.floats(0.01, 0.4))
    def test_child_bounds_lie_inside_the_parent(self, seed, depth, width,
                                                chain, epsilon):
        """Every layer of a child's bounds lies inside its parent's."""
        network, spec = make_random_dense_problem(seed, depth, width, epsilon)
        analyzer = DeepPolyAnalyzer(network)
        box = spec.input_box
        rng = np.random.default_rng(seed + 3)
        parent, child, delta = _random_chain(rng, analyzer, box,
                                             spec.output_spec, None, chain)
        report = analyzer.analyze(box, child, spec=spec.output_spec,
                                  parent=(parent, delta))
        assume(not report.infeasible)
        for got, bound in zip(report.pre_activation_bounds,
                              parent.pre_activation_bounds):
            assert np.all(got.lower >= bound.lower)
            assert np.all(got.upper <= bound.upper)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(2, 4),
           width=st.integers(2, 6), epsilon=st.floats(0.02, 0.4))
    def test_nan_parent_bound_is_rebounded(self, seed, depth, width, epsilon):
        """A NaN parent bound above the split layer is re-bounded (the child
        gets the finite DeepPoly value), never inherited."""
        network, spec = make_random_dense_problem(seed, depth, width, epsilon)
        analyzer = DeepPolyAnalyzer(network)
        box = spec.input_box
        root = analyzer.analyze(box, analyzer.root_splits, spec=spec.output_spec)
        unit = 0
        layers = [ScalarBounds(bounds.lower.copy(), bounds.upper.copy())
                  for bounds in root.pre_activation_bounds]
        layers[1].lower[unit] = np.nan
        layers[1].upper[unit] = np.nan
        poisoned = dataclasses.replace(root, hidden_bounds=FlatBounds(layers))
        delta = ReluSplit(0, 0, ACTIVE)
        child = analyzer.root_splits.with_split(delta)
        report = analyzer.analyze(box, child, spec=spec.output_spec,
                                  parent=(poisoned, delta))
        got = report.pre_activation_bounds[1]
        assert np.isfinite(got.lower[unit]) and np.isfinite(got.upper[unit])
        want = reference_deeppoly(network, box, child, spec.output_spec,
                                  parent=poisoned)
        assert_report_matches(report, want)


#: Hidden layer sizes of the key-derivation tests' assignments.
KEY_SIZES = (6, 6, 6, 6)


class TestKeyDerivation:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 100_000), size=st.integers(0, 10))
    def test_with_split_chain_matches_the_split_set(self, seed, size):
        """A chain of ``with_split`` calls builds the assignment the splits
        describe, in any order."""
        rng = np.random.default_rng(seed)
        parent = SplitAssignment.empty(KEY_SIZES)
        made = []
        for _ in range(size):
            layer = int(rng.integers(0, 4))
            unit = int(rng.integers(0, 6))
            if parent.is_decided(layer, unit):
                continue
            phase = ACTIVE if rng.random() < 0.5 else INACTIVE
            made.append(ReluSplit(layer, unit, phase))
            parent = parent.with_split(made[-1])
        rng.shuffle(made)
        rebuilt = SplitAssignment.from_splits(KEY_SIZES, made)
        assert rebuilt == parent
        assert rebuilt.key == parent.key

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 100_000), size=st.integers(0, 10),
           num_layers=st.integers(1, 5))
    def test_layer_rows_slice_the_layers(self, seed, size, num_layers):
        """Each layer's slice of the stacked rows holds exactly that layer's
        splits, and a layer nobody decides reads as ``None``."""
        rng = np.random.default_rng(seed)
        sizes = (6,) * num_layers
        batch = []
        for _ in range(3):
            splits = SplitAssignment.empty(sizes)
            for _ in range(size):
                layer = int(rng.integers(0, num_layers))
                unit = int(rng.integers(0, 6))
                if splits.is_decided(layer, unit):
                    continue
                phase = ACTIVE if rng.random() < 0.5 else INACTIVE
                splits = splits.with_split(ReluSplit(layer, unit, phase))
            batch.append(splits)
        rows = stack_rows(batch, SplitAssignment.empty(sizes))
        for layer in range(num_layers):
            want = np.zeros((len(batch), 6), dtype=int)
            for position, splits in enumerate(batch):
                for split in splits:
                    if split.layer == layer:
                        want[position, split.unit] = split.phase
            got = layer_rows(rows, batch[0].offsets, layer)
            if want.any():
                np.testing.assert_array_equal(got, want)
            else:
                assert got is None

    def test_with_split_checks_only_the_added_split(self):
        """``with_split`` checks only the added split: a repeated split is a
        no-op and a conflicting one raises."""
        parent = SplitAssignment.from_splits(KEY_SIZES, [ReluSplit(0, 1, ACTIVE),
                                                         ReluSplit(1, 0, INACTIVE)])
        child = parent.with_split(ReluSplit(2, 3, ACTIVE))
        assert child.phase_of(2, 3) == ACTIVE and len(child) == 3
        assert len(parent) == 2  # the parent is unchanged
        assert child.with_split(ReluSplit(2, 3, ACTIVE)) == child
        with pytest.raises(ValueError):
            child.with_split(ReluSplit(0, 1, INACTIVE))


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
        assert incremental.bound == full.bound
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

    def test_alpha_root_children_identical(self, trained_network):
        """αβ-CROWN bounds its root's children against the α-CROWN root
        report, whose intermediate bounds a default-slope re-bound could
        tighten.  The children's reports, split on both hidden layers, are
        the same bit for bit with the flag on and off, and so is the run."""
        from repro.baselines.alphabeta_crown import AlphaBetaCrownVerifier
        from repro.bounds.alpha_crown import AlphaCrownConfig
        from repro.utils.timing import Budget
        from repro.verifiers.appver import ApproximateVerifier

        network, dataset = trained_network
        spec = self._spec(dataset, 21, 0.25)
        root = ApproximateVerifier(network, spec, "alpha-crown",
                                   alpha_config=AlphaCrownConfig(iterations=6),
                                   use_cache=False).evaluate()
        plain = ApproximateVerifier(network, spec).evaluate()
        assert root.p_hat > plain.p_hat  # α improves the root
        unstable = root.report.unstable_neurons()
        children, parents = [], []
        for layer in range(network.lowered().num_relu_layers):
            for unit in [unit for at, unit in unstable if at == layer][:2]:
                for phase in (ACTIVE, INACTIVE):
                    delta = ReluSplit(layer, unit, phase)
                    children.append(SplitAssignment.empty(
                        network.lowered().relu_layer_sizes()).with_split(delta))
                    parents.append((root.report, delta))
        assert {parent[1].layer for parent in parents} == {0, 1}
        appvers = [ApproximateVerifier(network, spec, incremental=incremental)
                   for incremental in (False, True)]
        off, on = [appver.evaluate_batch(children, parents=parents)
                   for appver in appvers]
        for child, parent, batched_off, batched_on in zip(children, parents,
                                                          off, on):
            _assert_reports_bitwise(batched_off.report, batched_on.report)
            single_off, single_on = [appver.evaluate(child, parent=parent)
                                     for appver in appvers]
            _assert_reports_bitwise(single_off.report, single_on.report)
        runs = [AlphaBetaCrownVerifier(frontier_size=8,
                                       incremental=incremental).verify(
                    network, spec, Budget(max_nodes=300))
                for incremental in (False, True)]
        self._assert_identical(*runs)
