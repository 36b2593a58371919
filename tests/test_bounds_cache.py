"""Correctness tests for the split-aware bound cache.

Cache hits must never change verdicts: a complete ABONN (and BaB baseline)
run with caching on must produce the same ``VerificationResult`` as with
caching off, and the cache must respect its configured size bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from reference_bounds import assert_report_matches, reference_deeppoly

from repro.bounds.cache import BoundCache
from repro.bounds.deeppoly import DeepPolyAnalyzer
from repro.bounds.splits import ACTIVE, INACTIVE, ReluSplit
from repro.core import AbonnConfig, AbonnVerifier
from repro.specs.robustness import local_robustness_spec
from repro.utils import Budget
from repro.verifiers.appver import ApproximateVerifier


def _problem(network, reference, epsilon):
    reference = np.asarray(reference, dtype=float).reshape(-1)
    label = int(network.predict(reference.reshape(1, -1))[0])
    return local_robustness_spec(reference, epsilon, label, network.output_dim)


def _results_equal(with_cache, without_cache):
    assert with_cache.status == without_cache.status
    assert with_cache.nodes_explored == without_cache.nodes_explored
    assert with_cache.tree_size == without_cache.tree_size
    if without_cache.bound is None:
        assert with_cache.bound is None
    else:
        assert with_cache.bound == pytest.approx(without_cache.bound, abs=1e-12)
    if without_cache.counterexample is None:
        assert with_cache.counterexample is None
    else:
        assert np.allclose(with_cache.counterexample, without_cache.counterexample,
                           atol=1e-12)
    assert with_cache.extras["max_depth"] == without_cache.extras["max_depth"]


class TestCacheDoesNotChangeVerdicts:
    #: (sample index, epsilon) pairs covering verified-after-branching,
    #: falsified-after-branching and root-resolved problems.
    PROBLEMS = [(25, 0.15), (13, 0.2), (3, 0.1)]

    @pytest.mark.parametrize("index,epsilon", PROBLEMS)
    def test_abonn_cache_on_vs_off(self, trained_network, index, epsilon):
        network, dataset = trained_network
        image, _ = dataset.sample(index)
        spec = _problem(network, image.reshape(-1), epsilon)
        results = {}
        for use_cache in (True, False):
            config = AbonnConfig(use_bound_cache=use_cache)
            results[use_cache] = AbonnVerifier(config).verify(
                network, spec, Budget(max_nodes=120))
        _results_equal(results[True], results[False])

    def test_branching_run_produces_layer_hits(self, trained_network):
        """Children take the layers up to their split layer from the parent,
        and a child taken from its parent equals the reference-bound oracle."""
        network, dataset = trained_network
        image, _ = dataset.sample(25)
        spec = _problem(network, image.reshape(-1), 0.15)
        result = AbonnVerifier().verify(network, spec, Budget(max_nodes=120))
        assert result.nodes_explored > 1, "problem must require branching"
        assert result.extras["bound_cache"]["layer_hits"] > 0
        lowered = network.lowered()
        analyzer = DeepPolyAnalyzer(lowered)
        cache = BoundCache()
        root = analyzer.analyze(spec.input_box, spec=spec.output_spec, cache=cache)
        layer, unit = root.unstable_neurons()[-1]  # deepest: layers below are taken
        delta = ReluSplit(layer, unit, ACTIVE)
        child = analyzer.root_splits.with_split(delta)
        report = analyzer.analyze(spec.input_box, child, spec=spec.output_spec,
                                  cache=cache, parent=(root, delta))
        assert cache.stats.layer_hits == layer + 1
        assert_report_matches(report, reference_deeppoly(
            lowered, spec.input_box, child, spec.output_spec, parent=root))

    def test_abonn_cache_on_vs_off_with_probing_heuristic(self, trained_network):
        """FSB probes children that are later expanded: report-cache hits."""
        network, dataset = trained_network
        image, _ = dataset.sample(25)
        spec = _problem(network, image.reshape(-1), 0.15)
        results = {}
        for use_cache in (True, False):
            config = AbonnConfig(heuristic="fsb", use_bound_cache=use_cache)
            results[use_cache] = AbonnVerifier(config).verify(
                network, spec, Budget(max_nodes=200))
        _results_equal(results[True], results[False])
        cache_stats = results[True].extras["bound_cache"]
        assert cache_stats["report_hits"] > 0

    def test_sequential_hits_are_bitwise_identical(self, small_network):
        spec = _problem(small_network, [0.45, 0.55, 0.5, 0.4], 0.12)
        cached = ApproximateVerifier(small_network, spec, use_cache=True)
        plain = ApproximateVerifier(small_network, spec, use_cache=False)
        root_report = cached.evaluate().report
        neurons = root_report.unstable_neurons()[:3]
        chain = cached.root_splits
        for layer, unit in neurons:
            chain = chain.with_split(ReluSplit(layer, unit, ACTIVE))
            for splits in (chain, chain):  # second pass is a report-cache hit
                assert cached.evaluate(splits).p_hat == plain.evaluate(splits).p_hat


    def test_plain_call_after_a_search_equals_a_recompute(self, trained_network):
        """A plain ``evaluate(splits)`` (no parent) after a search bounded
        the same splits, made in sorted order, against its parents is plain
        DeepPoly of the split set, bit for bit as with the cache off — never
        the search's reference-bounded report."""
        network, dataset = trained_network
        image, label = dataset.sample(21)
        spec = local_robustness_spec(image.reshape(-1), 0.25, label,
                                     dataset.num_classes)
        cached = ApproximateVerifier(network, spec, use_cache=True)
        uncached = ApproximateVerifier(network, spec, use_cache=False)
        report = cached.evaluate().report
        chain = cached.root_splits
        searched = []
        for layer, unit in sorted(report.unstable_neurons())[:4]:
            delta = ReluSplit(layer, unit, ACTIVE)
            chain = chain.with_split(delta)
            report = cached.evaluate(chain, parent=(report, delta)).report
            searched.append((chain, report))
        differs = False
        for splits, searched_report in searched:
            got = cached.evaluate(splits).report
            want = uncached.evaluate(splits).report
            for got_bounds, want_bounds in zip(got.pre_activation_bounds,
                                               want.pre_activation_bounds):
                np.testing.assert_array_equal(got_bounds.lower, want_bounds.lower)
                np.testing.assert_array_equal(got_bounds.upper, want_bounds.upper)
            assert got.p_hat == want.p_hat
            differs |= searched_report.p_hat != want.p_hat
        assert differs  # the reference bounds are tighter somewhere


class TestProbeMatchesExpansion:
    def test_fsb_probe_and_expansion_give_the_same_report(self, small_network):
        """An FSB look-ahead probe bounds a child against the same parent as
        the real expansion: the expansion is a report-cache hit with the
        cache on, and equal to the probe with the cache off."""
        spec = _problem(small_network, [0.45, 0.55, 0.5, 0.4], 0.12)
        for use_cache in (True, False):
            appver = ApproximateVerifier(small_network, spec, use_cache=use_cache)
            root = appver.evaluate().report
            layer, unit = root.unstable_neurons()[0]
            deltas = [ReluSplit(layer, unit, phase) for phase in (ACTIVE, INACTIVE)]
            children = [appver.root_splits.with_split(d) for d in deltas]
            probes = [appver.evaluate(child, parent=(root, delta)).report
                      for child, delta in zip(children, deltas)]
            expanded = appver.evaluate_batch(
                children, parents=[(root, delta) for delta in deltas])
            for probe, outcome in zip(probes, expanded):
                assert_report_matches(outcome.report, probe)
                assert outcome.report.path == probe.path
                if use_cache:
                    assert outcome.report.p_hat == probe.p_hat
            if use_cache:
                assert appver.cache.stats.report_hits == len(children)


class TestCacheSizeBound:
    def test_lru_eviction_respects_max_entries(self):
        cache = BoundCache(max_entries=2)
        cache.put_report(("a",), "report-a")
        cache.put_report(("b",), "report-b")
        cache.put_report(("c",), "report-c")
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get_report(("a",)) is None  # oldest evicted
        assert cache.get_report(("c",)) is not None

    def test_get_refreshes_recency(self):
        cache = BoundCache(max_entries=2)
        cache.put_report(("a",), "report-a")
        cache.put_report(("b",), "report-b")
        cache.get_report(("a",))  # refresh "a"; "b" becomes LRU
        cache.put_report(("c",), "report-c")
        assert cache.get_report(("a",)) is not None
        assert cache.get_report(("b",)) is None

    def test_put_refreshes_recency(self):
        cache = BoundCache(max_entries=2)
        cache.put_report(("a",), "old-a")
        cache.put_report(("b",), "report-b")
        cache.put_report(("a",), "new-a")  # refresh "a"; "b" becomes LRU
        cache.put_report(("c",), "report-c")
        assert cache.get_report(("a",)) == "new-a"
        assert cache.get_report(("b",)) is None
        assert cache.stats.evictions == 1

    def test_verifier_cache_respects_configured_bound(self, small_network):
        spec = _problem(small_network, [0.45, 0.55, 0.5, 0.4], 0.12)
        verifier = ApproximateVerifier(small_network, spec, cache_size=6)
        root = verifier.evaluate().report
        for layer, unit in root.unstable_neurons():
            for phase in (ACTIVE, INACTIVE):
                verifier.evaluate(verifier.root_splits.with_split(
                    ReluSplit(layer, unit, phase)))
        assert len(verifier.cache) <= 6
        assert verifier.cache.stats.evictions > 0

    def test_abonn_result_stable_under_tiny_cache(self, small_network):
        """Evictions (like hits) must never change the verdict."""
        spec = _problem(small_network, [0.45, 0.55, 0.5, 0.4], 0.12)
        budget = Budget(max_nodes=150)
        tiny = AbonnVerifier(AbonnConfig(bound_cache_size=3)).verify(
            small_network, spec, budget.copy())
        unbounded = AbonnVerifier(AbonnConfig(use_bound_cache=False)).verify(
            small_network, spec, budget.copy())
        _results_equal(tiny, unbounded)

    def test_invalid_cache_size_rejected(self):
        with pytest.raises(ValueError):
            BoundCache(max_entries=0)
        with pytest.raises(ValueError):
            AbonnConfig(bound_cache_size=0)


class TestEvictionCountersByKind:
    """Evictions are counted as report evictions, with ``evictions`` their sum.

    The cache holds report entries only: a child takes its parent's layers
    from the parent's report, passed explicitly, never from a cache entry.
    """

    def test_evictions_are_report_evictions(self):
        cache = BoundCache(max_entries=2)
        cache.put_report(("r",), "report")
        cache.put_report(("s",), "report")
        cache.put_report(("t",), "report")  # evicts ("r",)
        cache.put_report(("t",), "report")  # a refresh evicts nothing
        assert cache.stats.report_evictions == 1
        assert cache.stats.evictions == 1

    def test_as_dict_exposes_report_evictions(self):
        cache = BoundCache(max_entries=1)
        cache.put_report(("a",), "report")
        cache.put_report(("b",), "report")
        stats = cache.stats.as_dict()
        assert stats["evictions"] == 1
        assert stats["report_evictions"] == 1
        assert "layer_evictions" not in stats

    def test_lp_cache_eviction_counter(self):
        from repro.bounds.cache import LpCache

        cache = LpCache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.put((key,), "optimum")
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get(("a",)) is None  # oldest evicted

    def test_lp_cache_put_refreshes_recency(self):
        from repro.bounds.cache import LpCache

        cache = LpCache(max_entries=2)
        cache.put(("a",), "old-a")
        cache.put(("b",), "optimum-b")
        cache.put(("a",), "new-a")  # refresh "a"; "b" becomes LRU
        cache.put(("c",), "optimum-c")
        assert cache.get(("a",)) == "new-a"
        assert cache.get(("b",)) is None
        assert cache.stats.evictions == 1


class TestCacheStats:
    def test_stats_accumulate(self, small_network):
        spec = _problem(small_network, [0.45, 0.55, 0.5, 0.4], 0.12)
        verifier = ApproximateVerifier(small_network, spec)
        verifier.evaluate()
        assert verifier.cache.stats.report_misses == 1
        verifier.evaluate()
        assert verifier.cache.stats.report_hits == 1
        stats = verifier.cache_stats()
        assert stats["layer_misses"] == small_network.lowered().num_relu_layers

    def test_disabled_cache_reports_zero_stats(self, small_network):
        spec = _problem(small_network, [0.45, 0.55, 0.5, 0.4], 0.12)
        verifier = ApproximateVerifier(small_network, spec, use_cache=False)
        verifier.evaluate()
        assert verifier.cache is None
        stats = verifier.cache_stats()
        assert stats["batch_histogram"] == {}
        # candidate_misses counts validation work, not cache reuse — every
        # other counter must be zero with the bound cache disabled.
        assert all(value == 0 for key, value in stats.items()
                   if key not in ("batch_histogram", "candidate_misses"))

    def test_clear_empties_cache(self, small_network):
        spec = _problem(small_network, [0.45, 0.55, 0.5, 0.4], 0.12)
        verifier = ApproximateVerifier(small_network, spec)
        verifier.evaluate()
        assert len(verifier.cache) > 0
        verifier.cache.clear()
        assert len(verifier.cache) == 0
