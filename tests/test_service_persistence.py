"""Cache-bundle persistence: save → load → replay round-trips.

A warm :class:`~repro.service.pool.CacheBundle` is a pile of verified facts
about one problem fingerprint; persisting it must preserve exactly those
facts and nothing else.  These tests pin the round-trip in service terms —
a fresh service warm-started from disk replays a job byte-identically and
entirely from hits — plus the file format's defences: fingerprint
validation, format versioning, corrupt/alien file rejection, fresh counters
and LRU order across the round-trip.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.abonn import AbonnVerifier
from repro.nn import dense_network
from repro.service import CacheBundle, ServiceConfig, VerificationService
from repro.service.pool import BUNDLE_FORMAT, BUNDLE_SUFFIX
from repro.utils import Budget

from conftest import make_robustness_problem

BUDGET_NODES = 60


def _problem(seed, shape, reference, epsilon):
    network = dense_network(shape, seed=seed)
    return network, make_robustness_problem(network, reference, epsilon)


#: Branches and resolves leaf LPs within the budget, so the warm replay can
#: demonstrate both bound-report and leaf-LP hits.
PROBLEM_LP = _problem(1, [6, 10, 8, 4], [0.5] * 6, 0.1)
PROBLEM_OTHER = _problem(3, [3, 8, 8, 3], [0.4, 0.6, 0.5], 0.12)

SOLO_LP = AbonnVerifier().verify(*PROBLEM_LP, Budget(max_nodes=BUDGET_NODES))


def _assert_identical(result, solo) -> None:
    assert result.status == solo.status
    assert result.nodes_explored == solo.nodes_explored
    assert result.tree_size == solo.tree_size
    if solo.bound is None:
        assert result.bound is None
    else:
        assert result.bound == solo.bound
    if solo.counterexample is None:
        assert result.counterexample is None
    else:
        assert result.counterexample.tobytes() == solo.counterexample.tobytes()


def _run_one(service, problem=PROBLEM_LP):
    job_id = service.submit(*problem, budget=Budget(max_nodes=BUDGET_NODES))
    service.run_until_complete()
    return service.result(job_id)


class TestRoundTrip:
    def test_fresh_service_replays_warm_from_disk(self, tmp_path):
        """save → load in a fresh service → replay: identical and all-hits."""
        first = VerificationService(ServiceConfig(pool_size=1))
        cold = _run_one(first)
        assert cold.ok
        paths = first.save_caches(tmp_path)
        assert paths == [tmp_path / f"{cold.fingerprint}{BUNDLE_SUFFIX}"]
        assert paths[0].exists()
        assert not list(tmp_path.glob("*.tmp"))  # atomic write left no debris

        second = VerificationService(ServiceConfig(pool_size=1))
        assert second.load_caches(tmp_path) == 1
        warm = _run_one(second)
        assert warm.ok
        assert warm.fingerprint == cold.fingerprint
        _assert_identical(warm.result, SOLO_LP)
        _assert_identical(warm.result, cold.result)
        # The warm path is genuine reuse: bound reports and leaf LPs come
        # from the restored bundle, and no LP is solved again.
        assert warm.cache_stats["bound_report_hits"] > 0
        assert warm.cache_stats["lp_hits"] > 0
        assert warm.cache_stats["lp_solves"] == 0

    def test_loaded_bundles_start_with_fresh_counters(self, tmp_path):
        service = VerificationService(ServiceConfig(pool_size=1))
        done = _run_one(service)
        service.save_caches(tmp_path)

        restored = VerificationService(ServiceConfig(pool_size=1))
        restored.load_caches(tmp_path)
        snapshot = restored.pool.bundle(done.fingerprint).stats_snapshot()
        assert all(value == 0 for value in snapshot.values()), snapshot

    def test_multi_fingerprint_pool_round_trips(self, tmp_path):
        service = VerificationService(ServiceConfig(pool_size=2))
        for problem in (PROBLEM_LP, PROBLEM_OTHER):
            service.submit(*problem, budget=Budget(max_nodes=BUDGET_NODES))
        cold = service.run_until_complete()
        paths = service.save_caches(tmp_path)
        assert len(paths) == 2
        assert paths == sorted(paths)  # stable, fingerprint-sorted listing

        restored = VerificationService(ServiceConfig(pool_size=2))
        assert restored.load_caches(tmp_path) == 2
        assert len(restored.pool) == 2
        for problem, before in zip((PROBLEM_LP, PROBLEM_OTHER), cold):
            warm = _run_one(restored, problem)
            assert warm.ok
            _assert_identical(warm.result, before.result)
            assert warm.cache_stats["lp_solves"] == 0

    def test_reloaded_reports_keep_their_flat_rows(self, tmp_path):
        """A reloaded bound report's flat row and per-layer views equal the
        saved ones, the views still read the row, and a job replayed from
        the reloaded bundle equals its solo run."""
        service = VerificationService(ServiceConfig(pool_size=1))
        done = _run_one(service)
        saved = service.pool.bundle(done.fingerprint)
        path = saved.save(tmp_path / f"{done.fingerprint}{BUNDLE_SUFFIX}")
        loaded = CacheBundle.load(path, expected_fingerprint=done.fingerprint)
        before = saved.bound_cache.export_entries()
        after = loaded.bound_cache.export_entries()
        assert before and [key for key, _ in after] == [key for key, _ in before]
        for (key, want), (_, got) in zip(before, after):
            assert key == ("report", want.path)
            assert got.hidden_bounds.offsets == want.hidden_bounds.offsets
            np.testing.assert_array_equal(got.hidden_bounds.lower,
                                          want.hidden_bounds.lower)
            np.testing.assert_array_equal(got.hidden_bounds.upper,
                                          want.hidden_bounds.upper)
            np.testing.assert_array_equal(got.candidate_input, want.candidate_input)
            np.testing.assert_array_equal(got.spec_row_lower, want.spec_row_lower)
            assert got.p_hat == want.p_hat and got.path == want.path
            for got_layer, want_layer in zip(got.pre_activation_bounds,
                                             want.pre_activation_bounds):
                np.testing.assert_array_equal(got_layer.lower, want_layer.lower)
                np.testing.assert_array_equal(got_layer.upper, want_layer.upper)
                assert np.shares_memory(got_layer.lower, got.hidden_bounds.lower)

        restored = VerificationService(ServiceConfig(pool_size=1))
        assert restored.load_caches(tmp_path) == 1
        warm = _run_one(restored)
        assert warm.ok and warm.cache_stats["bound_report_hits"] > 0
        _assert_identical(warm.result, SOLO_LP)

    def test_load_preserves_lru_order(self, tmp_path):
        """Importing into a smaller cache keeps the most recent entries."""
        bundle = CacheBundle("f" * 64)
        for index in range(10):
            bundle.lp_cache.put(("key", index), index)
        path = bundle.save(tmp_path / f"{'f' * 64}{BUNDLE_SUFFIX}")
        shrunk = CacheBundle.load(path, lp_cache_size=4)
        kept = [index for index in range(10)
                if shrunk.lp_cache.get(("key", index)) is not None]
        assert kept == [6, 7, 8, 9]
        assert shrunk.lp_cache.stats.evictions == 6

    def test_process_service_shares_the_persistence_path(self, tmp_path):
        """save/load works identically when the pool is fed by worker
        processes: shutdown ships their warm bundles back first."""
        with VerificationService(ServiceConfig(pool_size=2,
                                               transport="process")) as svc:
            svc.submit(*PROBLEM_LP, budget=Budget(max_nodes=BUDGET_NODES))
            svc.run_until_complete()
        paths = svc.save_caches(tmp_path)
        assert len(paths) == 1

        restored = VerificationService(ServiceConfig(pool_size=1))
        restored.load_caches(tmp_path)
        warm = _run_one(restored)
        _assert_identical(warm.result, SOLO_LP)
        assert warm.cache_stats["lp_solves"] == 0


class TestFileValidation:
    def _saved_bundle(self, tmp_path):
        service = VerificationService(ServiceConfig(pool_size=1))
        done = _run_one(service)
        return service.save_caches(tmp_path)[0], done.fingerprint

    def test_wrong_fingerprint_is_rejected(self, tmp_path):
        path, fingerprint = self._saved_bundle(tmp_path)
        with pytest.raises(ValueError, match="belongs to fingerprint"):
            CacheBundle.load(path, expected_fingerprint="0" * 64)
        # The matching fingerprint loads fine.
        loaded = CacheBundle.load(path, expected_fingerprint=fingerprint)
        assert loaded.fingerprint == fingerprint

    def test_corrupt_file_is_rejected(self, tmp_path):
        path = tmp_path / f"{'a' * 64}{BUNDLE_SUFFIX}"
        path.write_bytes(b"this is not a pickle")
        with pytest.raises(ValueError, match="not a cache-bundle"):
            CacheBundle.load(path)

    def test_alien_pickle_is_rejected(self, tmp_path):
        path = tmp_path / f"{'b' * 64}{BUNDLE_SUFFIX}"
        with open(path, "wb") as handle:
            pickle.dump({"surprise": True}, handle)
        with pytest.raises(ValueError, match="not a cache-bundle"):
            CacheBundle.load(path)

    @pytest.mark.parametrize("stale_format", [BUNDLE_FORMAT + 1, BUNDLE_FORMAT - 1])
    def test_future_format_is_rejected(self, tmp_path, stale_format):
        path, fingerprint = self._saved_bundle(tmp_path)
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        payload["format"] = stale_format
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        with pytest.raises(ValueError, match="unsupported cache-bundle format"):
            CacheBundle.load(path)

    def test_renamed_bundle_file_is_rejected_by_the_pool(self, tmp_path):
        path, _ = self._saved_bundle(tmp_path)
        path.rename(tmp_path / f"{'c' * 64}{BUNDLE_SUFFIX}")
        fresh = VerificationService(ServiceConfig(pool_size=1))
        with pytest.raises(ValueError, match="does not match its fingerprint"):
            fresh.load_caches(tmp_path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            CacheBundle.load(tmp_path / "absent.cachebundle")

    def test_loading_an_empty_directory_is_a_noop(self, tmp_path):
        service = VerificationService()
        assert service.load_caches(tmp_path) == 0
        assert len(service.pool) == 0

    def test_stale_tmp_files_are_ignored_and_cleaned(self, tmp_path):
        """Debris from a save that crashed mid-write never breaks a load.

        ``CacheBundle.save`` writes to ``<name>.tmp`` and atomically
        renames; a crash between the two leaves a stale (possibly
        truncated) tmp file behind.  ``load_bundles`` must skip it as a
        bundle, delete it, and still load the good bundles next to it.
        """
        path, fingerprint = self._saved_bundle(tmp_path)
        truncated = tmp_path / f"{'d' * 64}{BUNDLE_SUFFIX}.tmp"
        truncated.write_bytes(path.read_bytes()[:17])  # mid-pickle crash
        fresh = VerificationService(ServiceConfig(pool_size=1))
        assert fresh.load_caches(tmp_path) == 1  # tmp not counted
        assert fresh.pool.bundle(fingerprint).bound_cache.export_entries()
        assert not truncated.exists()  # debris cleaned up
        assert path.exists()  # the real bundle untouched
