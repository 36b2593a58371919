"""Cross-request cache reuse and isolation in the verification service.

The service's speedup is reuse, not parallelism: jobs sharing a problem
fingerprint share one :class:`~repro.service.pool.CacheBundle`, so a repeat
job serves its bound passes and leaf LPs from the warm bundle.  These tests
pin the contract in both directions — same fingerprint ⇒ observable nonzero
hit deltas on the repeat (and results equal to a cold solo run), different
fingerprints ⇒ disjoint bundles and a cold second job — plus the exact
bookkeeping of the shared caches and the pool over interleaved jobs.
"""

from __future__ import annotations

import pytest

import repro.engine.driver
import repro.service.pool
from repro.bab import BaBBaselineVerifier
from repro.baselines.alphabeta_crown import AlphaBetaCrownVerifier
from repro.bounds.cache import BoundCache, LpCache
from repro.core.abonn import AbonnVerifier
from repro.nn import dense_network
from repro.service import ServiceConfig, VerificationService
from repro.utils import Budget
from repro.verifiers.milp import problem_fingerprint

from conftest import make_robustness_problem

BUDGET_NODES = 60


def _problem(seed, shape, reference, epsilon):
    network = dense_network(shape, seed=seed)
    return network, make_robustness_problem(network, reference, epsilon)


#: Branches (~13 nodes) and resolves leaf LPs within BUDGET_NODES, so a
#: warm repeat observes both bound-report hits and leaf-LP hits.
PROBLEM_LP = _problem(1, [6, 10, 8, 4], [0.5] * 6, 0.1)
PROBLEM_OTHER = _problem(3, [3, 8, 8, 3], [0.4, 0.6, 0.5], 0.12)


def _solo(problem):
    network, spec = problem
    return AbonnVerifier().verify(network, spec,
                                  Budget(max_nodes=BUDGET_NODES))


def _assert_identical(result, solo) -> None:
    assert result.status == solo.status
    assert result.nodes_explored == solo.nodes_explored
    assert result.tree_size == solo.tree_size
    if solo.counterexample is None:
        assert result.counterexample is None
    else:
        assert result.counterexample.tobytes() == solo.counterexample.tobytes()


class TestSameFingerprintReuse:
    def test_repeat_job_hits_the_shared_bundle(self):
        service = VerificationService(ServiceConfig(pool_size=1))
        first = service.submit(*PROBLEM_LP,
                               budget=Budget(max_nodes=BUDGET_NODES))
        second = service.submit(*PROBLEM_LP,
                                budget=Budget(max_nodes=BUDGET_NODES))
        results = {done.job_id: done for done in service.as_completed()}
        assert len(service.pool) == 1  # one fingerprint, one bundle

        cold, warm = results[first], results[second]
        assert cold.ok and warm.ok
        # The repeat serves its bound reports and leaf LPs from the bundle
        # the first job filled.
        assert warm.cache_stats["bound_report_hits"] > 0
        assert warm.cache_stats["lp_hits"] > 0
        assert warm.cache_stats["lp_solves"] == 0
        # Per-job deltas are mirrored into the result's extras block.
        service_extras = warm.result.extras["service"]
        assert service_extras["cache_stats"] == warm.cache_stats
        assert service_extras["fingerprint"] == warm.fingerprint

        # Warm-model memo: the second fingerprint lookup reused the digest.
        assert service.pool.model_cache_hits > 0

    def test_shared_cache_results_equal_cold_solo_results(self):
        """Hits return exactly what recomputation would have produced."""
        solo = _solo(PROBLEM_LP)
        service = VerificationService(ServiceConfig(pool_size=1))
        for _ in range(3):
            service.submit(*PROBLEM_LP, budget=Budget(max_nodes=BUDGET_NODES))
        for done in service.as_completed():
            assert done.ok
            _assert_identical(done.result, solo)


def _abonn_on(bundle):
    return AbonnVerifier(lp_cache=bundle.lp_cache, bound_cache=bundle.bound_cache)


def _bab_on(bundle):
    return BaBBaselineVerifier(lp_cache=bundle.lp_cache,
                               bound_cache=bundle.bound_cache)


def _abcrown_on(bundle):
    return AlphaBetaCrownVerifier(lp_cache=bundle.lp_cache)


#: Verifier factories sharing a job's fingerprint bundle, with the matching
#: cold solo verifier.  Module-level so the process transport can pickle them.
SHARED_FACTORIES = ((_abonn_on, AbonnVerifier), (_bab_on, BaBBaselineVerifier),
                    (_abcrown_on, AlphaBetaCrownVerifier))


class TestSharedBundleAcrossVerifiers:
    @pytest.mark.parametrize("transport", ["cooperative", "process"])
    def test_each_verifier_equals_its_solo_run(self, transport):
        """ABONN and BaB jobs on one fingerprint share its bound cache, and
        all three verifiers its LP cache, yet each job returns its solo
        result: reports are keyed by their search path, and a leaf LP is
        exact over its region."""
        network, spec = PROBLEM_LP
        solos = [solo().verify(network, spec, Budget(max_nodes=BUDGET_NODES))
                 for _, solo in SHARED_FACTORIES]
        service = VerificationService(ServiceConfig(pool_size=1, transport=transport))
        with service:
            job_ids = [service.submit(network, spec,
                                      budget=Budget(max_nodes=BUDGET_NODES),
                                      verifier_factory=factory)
                       for _ in range(2) for factory, _ in SHARED_FACTORIES]
            results = {done.job_id: done for done in service.as_completed()}
        assert len({results[job_id].fingerprint for job_id in job_ids}) == 1
        for position, job_id in enumerate(job_ids):
            done = results[job_id]
            assert done.ok
            _assert_identical(done.result, solos[position % len(solos)])
        repeats = [results[job_id] for job_id in job_ids[len(SHARED_FACTORIES):]]
        assert any(done.cache_stats.get("bound_report_hits", 0) for done in repeats)


class _NoRehashVerifier:
    """ABONN on the job's bundle, failing the job if ``start_run`` hashes
    the problem.  Module-level so the process transport can pickle it."""

    def __init__(self, bundle) -> None:
        self.inner = _abonn_on(bundle)

    def start_run(self, network, spec, budget=None):
        def refuse(*args, **kwargs):
            raise AssertionError("the job hashed its problem again")

        original = repro.engine.driver.problem_fingerprint
        repro.engine.driver.problem_fingerprint = refuse
        try:
            return self.inner.start_run(network, spec, budget)
        finally:
            repro.engine.driver.problem_fingerprint = original


def _lp_key_fingerprints(cache: LpCache) -> set:
    return {key[0] for key, _ in cache.export_entries()}


class TestOneFingerprintPerJob:
    """The pool's fingerprint reaches the run through the bundle's pinned
    LP cache, so a job hashes its problem once, and the keys stay the
    full problem fingerprint."""

    @pytest.mark.parametrize("transport", ["cooperative", "process"])
    def test_job_fingerprints_its_problem_once(self, transport, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return problem_fingerprint(*args, **kwargs)

        monkeypatch.setattr(repro.service.pool, "problem_fingerprint", counting)
        monkeypatch.setattr(repro.engine.driver, "problem_fingerprint", counting)
        network, spec = PROBLEM_LP
        expected = problem_fingerprint(network.lowered(), spec.input_box,
                                       spec.output_spec)
        service = VerificationService(ServiceConfig(pool_size=1, transport=transport))
        with service:
            job_id = service.submit(network, spec, budget=Budget(max_nodes=BUDGET_NODES),
                                    verifier_factory=_NoRehashVerifier)
            done = {done.job_id: done for done in service.as_completed()}[job_id]
        assert done.ok, done.error
        _assert_identical(done.result, _solo(PROBLEM_LP))
        assert len(calls) == 1  # the pool's, when the job was submitted
        assert done.fingerprint == expected
        if transport == "process":
            assert service.stats()["jobs_inline"] == 0
        bundle = service.pool.bundle(expected)
        assert bundle.lp_cache.fingerprint == expected
        assert _lp_key_fingerprints(bundle.lp_cache) == {expected}

    def test_user_shared_cache_is_fingerprinted_per_run(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return problem_fingerprint(*args, **kwargs)

        monkeypatch.setattr(repro.engine.driver, "problem_fingerprint", counting)
        network, spec = PROBLEM_LP
        cache = LpCache()
        result = AbonnVerifier(lp_cache=cache).verify(
            network, spec, Budget(max_nodes=BUDGET_NODES))
        _assert_identical(result, _solo(PROBLEM_LP))
        assert len(calls) == 1
        assert cache.fingerprint is None
        assert _lp_key_fingerprints(cache) == {
            problem_fingerprint(network.lowered(), spec.input_box, spec.output_spec)}


class TestFingerprintIsolation:
    def test_different_fingerprints_get_disjoint_bundles(self):
        service = VerificationService(ServiceConfig(pool_size=1))
        first = service.submit(*PROBLEM_LP,
                               budget=Budget(max_nodes=BUDGET_NODES))
        other = service.submit(*PROBLEM_OTHER,
                               budget=Budget(max_nodes=BUDGET_NODES))
        results = {done.job_id: done for done in service.as_completed()}

        assert len(service.pool) == 2
        a, b = results[first], results[other]
        assert a.fingerprint != b.fingerprint
        bundle_a = service.pool.bundle(a.fingerprint)
        bundle_b = service.pool.bundle(b.fingerprint)
        assert bundle_a is not bundle_b
        assert bundle_a.lp_cache is not bundle_b.lp_cache
        assert bundle_a.bound_cache is not bundle_b.bound_cache

        # The second job ran cold: nothing of the first problem's traffic
        # was visible to it.
        assert b.cache_stats["bound_report_hits"] == 0
        assert b.cache_stats["lp_hits"] == 0

    def test_epsilon_change_changes_the_fingerprint(self):
        network, _ = PROBLEM_LP
        spec_small = make_robustness_problem(network, [0.5] * 6, 0.1)
        spec_large = make_robustness_problem(network, [0.5] * 6, 0.2)
        service = VerificationService()
        fp_small = service.pool.fingerprint_for(network, spec_small)
        fp_large = service.pool.fingerprint_for(network, spec_large)
        assert fp_small != fp_large
        # Same network though: the weight digest was computed exactly once.
        assert service.pool.model_cache_misses == 1
        assert service.pool.model_cache_hits == 1


class TestCacheBookkeeping:
    """The shared caches' and the pool's counters stay exact over interleaved jobs.

    One thread drives every job on both transports, and the jobs on one
    fingerprint take turns on its bundle slice by slice; these loops
    interleave lookups the same way and pin every counter to its exact
    value, plus one bundle per fingerprint between quarantines.
    """

    def test_lp_cache_counters_exact_over_interleaved_jobs(self):
        cache = LpCache(max_entries=64)
        jobs, per_job = 8, 400
        for i in range(per_job):
            for job in range(jobs):
                key = ("k", (job + i) % 48)  # fits: every lookup can hit
                if cache.get(key) is None:
                    cache.put(key, object())
                    cache.record_solve()
                cache.record_hit()  # the batch-alias path

        total = jobs * per_job
        # One get + one record_hit per iteration; every counter is exact.
        assert cache.stats.hits + cache.stats.misses == 2 * total
        assert cache.stats.misses == 48  # one cold lookup per key
        assert cache.stats.solves == cache.stats.misses
        assert cache.stats.evictions == 0
        assert len(cache) == 48

    def test_bound_cache_counters_exact_over_interleaved_jobs(self):
        cache = BoundCache(max_entries=128)
        jobs, per_job = 8, 400
        for i in range(per_job):
            for job in range(jobs):
                key = (("layer", (job + i) % 64),)
                if cache.get_report(key) is None:
                    cache.put_report(key, {"job": job})

        stats = cache.stats
        total = jobs * per_job
        assert stats.report_hits + stats.report_misses == total
        assert stats.report_misses == 64
        assert stats.report_evictions == 0
        assert len(cache) == 64

    def test_fingerprint_memo_counters_exact_over_repeat_lookups(self):
        pool = VerificationService().pool
        network, spec = PROBLEM_LP
        expected = pool.fingerprint_for(network, spec)  # 1 recorded miss
        lookups = 400
        fingerprints = {pool.fingerprint_for(network, spec)
                        for _ in range(lookups)}

        assert fingerprints == {expected}
        # Every lookup recorded exactly one hit or miss.
        assert pool.model_cache_hits + pool.model_cache_misses == lookups + 1
        # The memo was warm before the loop, so everything after is a hit.
        assert pool.model_cache_misses == 1

    def test_bundle_lookups_observe_one_instance(self):
        pool = VerificationService().pool
        fingerprint = "a" * 64
        seen = {id(pool.bundle(fingerprint)) for _ in range(1600)}

        # Without discards there is exactly one bundle, ever.
        assert len(seen) == 1
        assert len(pool) == 1

    def test_mid_run_quarantine_makes_one_cold_bundle_per_discard(self):
        pool = VerificationService().pool
        fingerprint = "b" * 64
        seen = {}
        discarded = 0
        for i in range(601):
            bundle = pool.bundle(fingerprint)
            if id(bundle) not in seen:
                # A recreated bundle starts cold.
                assert len(bundle.lp_cache) == 0
                assert len(bundle.bound_cache) == 0
                seen[id(bundle)] = bundle
            bundle.lp_cache.put(("k", i), object())
            if i % 200 == 199:
                assert pool.discard(fingerprint)
                assert not pool.discard(fingerprint)  # already gone
                discarded += 1

        # Each discard introduces exactly one fresh bundle on next demand.
        assert discarded == 3
        assert len(seen) == 1 + discarded
        # The fingerprint still resolves to the last bundle made.
        assert pool.bundle(fingerprint) is bundle
        assert len(pool) == 1

    def test_pool_stats_sum_exactly_over_interleaved_jobs(self):
        pool = VerificationService().pool
        problems = [PROBLEM_LP, PROBLEM_OTHER]
        jobs, per_job = 6, 40
        for _ in range(per_job):
            for job in range(jobs):
                network, spec = problems[job % len(problems)]
                pool.fingerprint_for(network, spec)

        stats = pool.stats()
        total = jobs * per_job
        assert (stats["model_cache_hits"]
                + stats["model_cache_misses"]) == total
        # One miss per distinct network: its first lookup; the rest hit.
        assert stats["model_cache_misses"] == len(problems)
