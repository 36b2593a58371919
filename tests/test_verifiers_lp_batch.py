"""Tests for batched + cached leaf-LP resolution (``solve_leaf_lp_batch``)."""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro.bounds.cache import LpCache
from repro.bounds.splits import ACTIVE, INACTIVE, ReluSplit, SplitAssignment
from repro.nn import Dense, Network, ReLU, dense_network
from repro.specs.robustness import local_robustness_spec
from repro.verifiers import milp as milp_module
from repro.verifiers.appver import ApproximateVerifier
from repro.verifiers.milp import (
    RowOptimum,
    _leaf_programs,
    _minimise_rows,
    _prove_empty,
    solve_leaf_lp,
    solve_leaf_lp_batch,
)

from reference_leaf_lp import (
    TOLERANCE as PROGRAM_TOLERANCE,
    reference_leaf_program,
    reference_prove_empty,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

# The sibling-heavy decided-leaf generator and the hidden-variable reference
# LP are shared with the CI-gated benchmark, so the acceptance workload and
# oracle and the tested ones never drift.
from bench_batching import _decided_leaf_workload, _reference_leaf_lp  # noqa: E402

TOLERANCE = 1e-9


def _problem(network, reference, epsilon):
    reference = np.asarray(reference, dtype=float)
    label = int(network.predict(reference.reshape(1, -1))[0])
    return local_robustness_spec(reference, epsilon, label, network.output_dim)


def _assert_matches_reference(lowered, spec, splits, report, optimum):
    """Feasibility and value equal the ``_encode_problem`` reference's; a
    minimiser lies in the box, reproduces the split phases and attains the
    value.

    Minimisers are not compared elementwise: at a degenerate optimum both
    encodings may legitimately return different optimal points.
    """
    reference = _reference_leaf_lp(lowered, spec.input_box, spec.output_spec,
                                   splits, report)
    assert optimum.feasible == reference.feasible
    if not optimum.feasible:
        assert optimum.value == float("inf")
        return
    assert optimum.value == pytest.approx(reference.value, abs=TOLERANCE)
    point = optimum.minimizer
    assert point is not None
    assert spec.input_box.contains(point, tolerance=TOLERANCE)
    assert splits.satisfied_by(lowered.pre_activations(point), tolerance=TOLERANCE)
    margin = spec.output_spec.margin(lowered.forward(point)[0])
    assert margin == pytest.approx(optimum.value, abs=TOLERANCE)


def _decide(appver, splits, rng):
    """Randomly phase-split ``splits`` until its analysis decides every
    neuron; ``None`` if splitting keeps re-destabilising neurons."""
    report = appver.evaluate(splits).report
    for _ in range(6):
        unstable = report.unstable_neurons(splits)
        if not unstable:
            return splits, report
        for layer, unit in unstable:
            phase = ACTIVE if rng.random() < 0.5 else INACTIVE
            splits = splits.with_split(ReluSplit(layer, unit, phase))
        report = appver.evaluate(splits).report
    return None


@pytest.fixture(scope="module")
def lp_workload():
    network = dense_network([3, 6, 5, 3], seed=4)
    spec = _problem(network, [0.5, 0.4, 0.6], 0.25)
    lowered, leaves = _decided_leaf_workload(network, spec, clusters=3, seed=3)
    assert len(leaves) >= 4, "workload generator produced too few decided leaves"
    return lowered, spec, leaves


class TestBatchedLeafLp:
    def test_batch_matches_independent_reference_encoding(self, lp_workload):
        """The input-space leaf LP reproduces the ``_encode_problem``
        hidden-variable LP — a genuinely independent construction, since
        ``solve_leaf_lp`` itself delegates to the batch path."""
        lowered, spec, leaves = lp_workload
        batched = solve_leaf_lp_batch(lowered, spec.input_box, spec.output_spec,
                                      leaves)
        for (splits, report), optimum in zip(leaves, batched):
            _assert_matches_reference(lowered, spec, splits, report, optimum)

    def test_batch_matches_one_at_a_time(self, lp_workload):
        lowered, spec, leaves = lp_workload
        single = [solve_leaf_lp(lowered, spec.input_box, spec.output_spec,
                                splits, report) for splits, report in leaves]
        batched = solve_leaf_lp_batch(lowered, spec.input_box, spec.output_spec,
                                      leaves)
        assert len(batched) == len(single)
        for a, b in zip(single, batched):
            assert a.feasible == b.feasible
            if a.feasible:
                assert a.value == pytest.approx(b.value, abs=1e-9)
                if a.minimizer is None:
                    assert b.minimizer is None
                else:
                    np.testing.assert_allclose(a.minimizer, b.minimizer,
                                               atol=1e-9)

    def test_empty_batch(self, lp_workload):
        lowered, spec, _ = lp_workload
        assert solve_leaf_lp_batch(lowered, spec.input_box, spec.output_spec,
                                   []) == []

    def test_rejects_undecided_leaves(self, lp_workload):
        lowered, spec, leaves = lp_workload
        network = dense_network([3, 6, 5, 3], seed=4)
        root_report = ApproximateVerifier(network, spec,
                                          use_cache=False).evaluate().report
        assert root_report.unstable_neurons(), "root must have unstable neurons"
        with pytest.raises(ValueError):
            solve_leaf_lp_batch(lowered, spec.input_box, spec.output_spec,
                                [(SplitAssignment.empty(lowered.relu_layer_sizes()),
                                  root_report)])


class TestInputSpaceLeafLpOracle:
    """The input-space, split-row leaf LP against the hidden-variable
    ``_encode_problem`` oracle on random networks and real analyses."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 4),
           width=st.integers(2, 5), epsilon=st.floats(0.02, 0.4))
    def test_random_decided_leaves_match_reference(self, seed, depth, width,
                                                   epsilon):
        rng = np.random.default_rng(seed)
        input_dim = int(rng.integers(2, 5))
        num_classes = int(rng.integers(2, 5))
        network = dense_network([input_dim] + [width] * depth + [num_classes],
                                seed=seed)
        spec = _problem(network, rng.uniform(0.2, 0.8, size=input_dim), epsilon)
        appver = ApproximateVerifier(network, spec, use_cache=False)
        leaves = []
        for _ in range(2):
            leaf = _decide(appver, appver.root_splits, rng)
            if leaf is not None:
                leaves.append(leaf)
        assume(leaves)
        optima = solve_leaf_lp_batch(appver.lowered, spec.input_box,
                                     spec.output_spec, leaves)
        for (splits, report), optimum in zip(leaves, optima):
            _assert_matches_reference(appver.lowered, spec, splits, report,
                                      optimum)

    def test_leaf_without_split_rows_is_a_box_lp(self):
        network = dense_network([3, 6, 5, 3], seed=4)
        spec = _problem(network, [0.5, 0.4, 0.6], 1e-4)
        appver = ApproximateVerifier(network, spec, use_cache=False)
        splits = appver.root_splits
        report = appver.evaluate(splits).report
        assert not report.unstable_neurons(), "root must be fully stable"
        _, _, constraints = reference_leaf_program(appver.lowered, spec.output_spec,
                                                   splits, report)
        assert constraints is None
        assert _leaf_programs(appver.lowered, spec.output_spec,
                              [(splits, report)]).constraint(0) is None
        optimum = solve_leaf_lp(appver.lowered, spec.input_box,
                                spec.output_spec, splits, report)
        _assert_matches_reference(appver.lowered, spec, splits, report, optimum)

    def test_contradicting_split_rows_are_infeasible(self):
        """``x >= 0.5`` and ``x <= 0.25`` from two ACTIVE splits in one
        layer: each row alone is satisfiable, together they are not."""
        hidden = Dense(1, 2, weight=np.array([[1.0], [-1.0]]),
                       bias=np.array([-0.5, 0.25]))
        head = Dense(2, 2, weight=np.array([[1.0, 1.0], [-1.0, 0.5]]),
                     bias=np.zeros(2))
        network = Network([hidden, ReLU(), head], (1,), name="contradiction")
        spec = _problem(network, [0.4], 0.4)
        appver = ApproximateVerifier(network, spec, use_cache=False)
        splits = SplitAssignment.from_splits(
            (2,), [ReluSplit(0, 0, ACTIVE), ReluSplit(0, 1, ACTIVE)])
        report = appver.evaluate(splits).report
        assert not report.unstable_neurons(splits)
        optimum = solve_leaf_lp(appver.lowered, spec.input_box,
                                spec.output_spec, splits, report)
        assert not optimum.feasible
        _assert_matches_reference(appver.lowered, spec, splits, report, optimum)


def _two_row_network(bias):
    """``z0 = x + bias[0]`` and ``z1 = -x + bias[1]`` over a 1-D input."""
    hidden = Dense(1, 2, weight=np.array([[1.0], [-1.0]]), bias=np.asarray(bias))
    head = Dense(2, 2, weight=np.array([[1.0, 1.0], [-1.0, 0.5]]),
                 bias=np.zeros(2))
    return Network([hidden, ReLU(), head], (1,), name="two-rows")


def _both_active_leaf(bias):
    """The leaf splitting both neurons of :func:`_two_row_network` ACTIVE."""
    network = _two_row_network(bias)
    spec = _problem(network, [0.5], 0.4)
    appver = ApproximateVerifier(network, spec, use_cache=False)
    splits = SplitAssignment.from_splits(
        (2,), [ReluSplit(0, 0, ACTIVE), ReluSplit(0, 1, ACTIVE)])
    report = appver.evaluate(splits).report
    assert not report.unstable_neurons(splits)
    return appver.lowered, spec, splits, report


def _count_highs_calls(monkeypatch):
    """Wrap the real HiGHS entry point; returns the live call counter."""
    real = optimize.milp
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(optimize, "milp", counting)
    return calls


def _random_full_assignment(appver, rng):
    """An assignment splitting every hidden neuron with a random phase."""
    return SplitAssignment.from_splits(appver.lowered.relu_layer_sizes(), [
        ReluSplit(layer, unit, ACTIVE if rng.random() < 0.5 else INACTIVE)
        for layer, size in enumerate(appver.lowered.relu_layer_sizes())
        for unit in range(size)])


def _random_network(seed, depth, width):
    rng = np.random.default_rng(seed)
    input_dim = int(rng.integers(2, 5))
    network = dense_network([input_dim] + [width] * depth + [3], seed=seed)
    return rng, network


class TestEmptinessCertificate:
    """The batched Farkas screen in front of HiGHS claims only empty leaves."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 3),
           width=st.integers(2, 5), epsilon=st.floats(0.05, 0.5))
    def test_claims_are_confirmed_by_highs(self, seed, depth, width, epsilon):
        """Whenever the screen claims a random full split assignment empty,
        a direct HiGHS solve of the same leaf LP finds it infeasible."""
        rng, network = _random_network(seed, depth, width)
        spec = _problem(network, rng.uniform(0.2, 0.8, network.input_dim),
                        epsilon)
        appver = ApproximateVerifier(network, spec, use_cache=False)
        programs = []
        for _ in range(4):
            splits = _random_full_assignment(appver, rng)
            report = appver.evaluate(splits).report
            programs.append(reference_leaf_program(appver.lowered, spec.output_spec,
                                                   splits, report))
        claims = reference_prove_empty([rows for _, _, rows in programs],
                                       spec.input_box)
        for (objectives, constants, rows), claim in zip(programs, claims):
            if claim:
                optimum = _minimise_rows(objectives, constants,
                                         rows.constraint(), spec.input_box, None)
                assert not optimum.feasible

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 3),
           width=st.integers(2, 5), epsilon=st.floats(0.05, 0.5))
    def test_leaf_split_at_a_box_point_is_never_claimed(self, seed, depth,
                                                        width, epsilon):
        rng, network = _random_network(seed, depth, width)
        spec = _problem(network, rng.uniform(0.2, 0.8, network.input_dim),
                        epsilon)
        appver = ApproximateVerifier(network, spec, use_cache=False)
        point = spec.input_box.sample(rng)[0]
        pre_activations = appver.lowered.pre_activations(point)
        splits = SplitAssignment.from_splits(appver.lowered.relu_layer_sizes(), [
            ReluSplit(layer, unit, ACTIVE if value >= 0.0 else INACTIVE)
            for layer, values in enumerate(pre_activations)
            for unit, value in enumerate(values)])
        report = appver.evaluate(splits).report
        _, _, rows = reference_leaf_program(appver.lowered, spec.output_spec,
                                            splits, report)
        assert not reference_prove_empty([rows], spec.input_box)[0]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 3),
           width=st.integers(2, 5), epsilon=st.floats(0.05, 0.5),
           at_points=st.lists(st.booleans(), min_size=1, max_size=5))
    def test_screen_flags_match_the_full_search(self, seed, depth, width,
                                                epsilon, at_points):
        """The screen stops once every leaf is certified or has a corner
        that satisfies all its split rows; its flags are the reference's,
        whose search runs on until every leaf is certified.  Leaves split
        at a box point are non-empty, random full assignments mostly
        empty."""
        rng, network = _random_network(seed, depth, width)
        spec = _problem(network, rng.uniform(0.2, 0.8, network.input_dim),
                        epsilon)
        appver = ApproximateVerifier(network, spec, use_cache=False)
        sizes = appver.lowered.relu_layer_sizes()
        leaf_rows = []
        for at_point in at_points:
            if at_point:
                point = spec.input_box.sample(rng)[0]
                splits = SplitAssignment.from_splits(sizes, [
                    ReluSplit(layer, unit, ACTIVE if value >= 0.0 else INACTIVE)
                    for layer, values in enumerate(appver.lowered.pre_activations(point))
                    for unit, value in enumerate(values)])
            else:
                splits = _random_full_assignment(appver, rng)
            report = appver.evaluate(splits).report
            leaf_rows.append(reference_leaf_program(appver.lowered, spec.output_spec,
                                                    splits, report)[2])
        rows = max(len(leaf.offset) for leaf in leaf_rows)
        matrix = np.zeros((len(leaf_rows), rows, network.input_dim))
        offset = np.zeros((len(leaf_rows), rows))
        present = np.zeros((len(leaf_rows), rows), dtype=bool)
        for index, leaf in enumerate(leaf_rows):
            matrix[index, :len(leaf.offset)] = leaf.matrix
            offset[index, :len(leaf.offset)] = leaf.offset
            present[index, :len(leaf.offset)] = True
        np.testing.assert_array_equal(
            _prove_empty(matrix, offset, present, spec.input_box),
            reference_prove_empty(leaf_rows, spec.input_box))

    def test_leaf_without_split_rows_is_never_screened(self, monkeypatch):
        network = dense_network([3, 6, 5, 3], seed=4)
        spec = _problem(network, [0.5, 0.4, 0.6], 1e-4)
        appver = ApproximateVerifier(network, spec, use_cache=False)
        splits = appver.root_splits
        report = appver.evaluate(splits).report
        assert not report.unstable_neurons(), "root must be fully stable"

        def screened(*_):
            pytest.fail("a leaf without split rows reached the screen")

        monkeypatch.setattr(milp_module, "_prove_empty", screened)
        cache = LpCache()
        optimum = solve_leaf_lp(appver.lowered, spec.input_box,
                                spec.output_spec, splits, report, cache=cache)
        assert optimum.feasible
        assert cache.stats.proven_empty == 0

    def test_empty_leaf_is_closed_without_highs(self, monkeypatch):
        """``x >= 0.5`` and ``x <= 0.25``: proven, cached and counted as an
        infeasible solve, with no HiGHS call."""
        lowered, spec, splits, report = _both_active_leaf([-0.5, 0.25])
        calls = _count_highs_calls(monkeypatch)
        cache = LpCache()
        optimum = solve_leaf_lp(lowered, spec.input_box, spec.output_spec,
                                splits, report, cache=cache)
        assert not calls
        assert optimum == RowOptimum(float("inf"), None, feasible=False)
        assert cache.stats.solves == 1
        assert cache.stats.proven_empty == 1

    def test_sliver_below_the_tolerance_goes_to_highs(self, monkeypatch):
        """``x >= 0.5`` and ``x <= 0.5 - 1e-9`` is empty by less than the
        certificate's tolerance, so it is not claimed and HiGHS decides."""
        lowered, spec, splits, report = _both_active_leaf([-0.5, 0.5 - 1e-9])
        _, _, rows = reference_leaf_program(lowered, spec.output_spec, splits, report)
        assert not reference_prove_empty([rows], spec.input_box)[0]
        calls = _count_highs_calls(monkeypatch)
        cache = LpCache()
        solve_leaf_lp(lowered, spec.input_box, spec.output_spec, splits,
                      report, cache=cache)
        assert calls
        assert cache.stats.proven_empty == 0


class TestLpCache:
    def test_hit_returns_identical_row_optimum(self, lp_workload):
        lowered, spec, leaves = lp_workload
        cache = LpCache()
        cold = solve_leaf_lp_batch(lowered, spec.input_box, spec.output_spec,
                                   leaves, cache=cache)
        assert cache.stats.hits == 0
        assert cache.stats.misses == len(leaves)
        assert cache.stats.solves == len(leaves)
        warm = solve_leaf_lp_batch(lowered, spec.input_box, spec.output_spec,
                                   leaves, cache=cache)
        assert cache.stats.hits == len(leaves)
        assert cache.stats.solves == len(leaves)  # nothing re-solved
        for a, b in zip(cold, warm):
            assert a is b  # the identical object, not a recomputation

    def test_duplicates_within_one_batch_solve_once(self, lp_workload):
        lowered, spec, leaves = lp_workload
        cache = LpCache()
        doubled = list(leaves) + list(leaves)
        results = solve_leaf_lp_batch(lowered, spec.input_box, spec.output_spec,
                                      doubled, cache=cache)
        assert cache.stats.solves == len(leaves)
        assert cache.stats.hits == len(leaves)
        for first, second in zip(results[:len(leaves)], results[len(leaves):]):
            assert first is second

    def test_single_leaf_path_uses_cache(self, lp_workload):
        lowered, spec, leaves = lp_workload
        splits, report = leaves[0]
        cache = LpCache()
        first = solve_leaf_lp(lowered, spec.input_box, spec.output_spec,
                              splits, report, cache=cache)
        second = solve_leaf_lp(lowered, spec.input_box, spec.output_spec,
                               splits, report, cache=cache)
        assert first is second
        assert cache.stats.solves == 1

    def test_eviction_respects_lru_order(self):
        cache = LpCache(max_entries=2)
        a = RowOptimum(1.0, None, feasible=True)
        b = RowOptimum(2.0, None, feasible=True)
        c = RowOptimum(3.0, None, feasible=True)
        cache.put(("a",), a)
        cache.put(("b",), b)
        assert cache.get(("a",)) is a  # refreshes "a" to most-recent
        cache.put(("c",), c)           # evicts "b", the least recent
        assert cache.stats.evictions == 1
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is a
        assert cache.get(("c",)) is c
        assert len(cache) == 2

    def test_rejects_invalid_capacity(self):
        with pytest.raises(ValueError):
            LpCache(max_entries=0)

    def test_hit_rate(self):
        cache = LpCache()
        assert cache.stats.hit_rate == 0.0
        cache.put(("k",), RowOptimum(0.0, None, feasible=True))
        cache.get(("k",))
        cache.get(("missing",))
        assert cache.stats.hit_rate == pytest.approx(0.5)


def _assert_programs_match_reference(lowered, spec, leaves):
    """The batched programs of ``leaves`` against the per-leaf reference:
    objectives, constants and sign rows within ``PROGRAM_TOLERANCE``, and
    identical proven-empty flags."""
    programs = _leaf_programs(lowered, spec.output_spec, leaves)
    references = [reference_leaf_program(lowered, spec.output_spec, splits, report)
                  for splits, report in leaves]
    width = programs.sign.shape[1]
    for position, (objectives, constants, rows) in enumerate(references):
        np.testing.assert_allclose(programs.objectives[position], objectives,
                                   rtol=0.0, atol=PROGRAM_TOLERANCE)
        np.testing.assert_allclose(programs.constants[position], constants,
                                   rtol=0.0, atol=PROGRAM_TOLERANCE)
        size = 0 if rows is None else len(rows.sign)
        assert size <= width
        np.testing.assert_array_equal(programs.sign[position, size:], 0.0)
        np.testing.assert_array_equal(programs.matrix[position, size:], 0.0)
        np.testing.assert_array_equal(programs.offset[position, size:], 0.0)
        if rows is None:
            assert programs.constraint(position) is None
            continue
        np.testing.assert_array_equal(programs.sign[position, :size], rows.sign)
        np.testing.assert_allclose(programs.matrix[position, :size], rows.matrix,
                                   rtol=0.0, atol=PROGRAM_TOLERANCE)
        np.testing.assert_allclose(programs.offset[position, :size], rows.offset,
                                   rtol=0.0, atol=PROGRAM_TOLERANCE)
    screened = [position for position, (_, _, rows) in enumerate(references)
                if rows is not None]
    if not screened:
        return np.zeros(0, dtype=bool)
    present = programs.sign[screened] != 0.0
    proven = _prove_empty(programs.matrix[screened], programs.offset[screened],
                          present, spec.input_box)
    want = reference_prove_empty([references[position][2] for position in screened],
                                 spec.input_box)
    np.testing.assert_array_equal(proven, want)
    return proven


class TestBatchedProgramsMatchPerLeafReference:
    """One batched forward composition builds what the per-leaf builder
    and its re-padded screen built, leaf for leaf."""

    @pytest.mark.parametrize("batch", [1, 3, 8])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 3),
           width=st.integers(2, 5), epsilon=st.floats(0.05, 0.5))
    def test_random_decided_leaves(self, batch, seed, depth, width, epsilon):
        """Leaves splitting every neuron share the batch with leaves that
        split only until decided, so the leaves' row counts differ."""
        rng, network = _random_network(seed, depth, width)
        spec = _problem(network, rng.uniform(0.2, 0.8, network.input_dim), epsilon)
        appver = ApproximateVerifier(network, spec, use_cache=False)
        leaves = []
        for _ in range(batch):
            leaf = _decide(appver, appver.root_splits, rng) if rng.random() < 0.5 else None
            if leaf is None:
                splits = _random_full_assignment(appver, rng)
                leaf = splits, appver.evaluate(splits).report
            leaves.append(leaf)
        _assert_programs_match_reference(appver.lowered, spec, leaves)

    @pytest.mark.parametrize("batch", [1, 3, 8])
    def test_batch_with_a_leaf_without_split_rows(self, batch):
        """A fully stable root (no split rows) shares the batch with fully
        split leaves, some of them contradicting the root's stable phases."""
        network = dense_network([3, 6, 5, 3], seed=4)
        spec = _problem(network, [0.5, 0.4, 0.6], 1e-4)
        appver = ApproximateVerifier(network, spec, use_cache=False)
        root = appver.evaluate().report
        assert not root.unstable_neurons(), "root must be fully stable"
        rng = np.random.default_rng(batch)
        leaves = []
        for _ in range(batch - 1):
            splits = _random_full_assignment(appver, rng)
            leaves.append((splits, appver.evaluate(splits).report))
        leaves.insert(int(rng.integers(batch)), (appver.root_splits, root))
        proven = _assert_programs_match_reference(appver.lowered, spec, leaves)
        assert len(proven) == batch - 1
