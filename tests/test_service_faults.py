"""Fault injection against the verification service.

Failures are data, not crashes: a worker raising mid-round, a verifier
factory that cannot even build, a budget exhausting between siblings, or a
poisoned shared-cache entry must fail *only the job that hit it* — with a
structured :class:`~repro.service.jobs.JobError` naming the stage — while
every other job in the pool finishes solo-identical and the fingerprint's
cache bundle is quarantined so the poison cannot outlive the job it broke.
The isolation tests run on both execution transports: a failing job must
not take down a cooperative scheduling loop, a process shard's thread, *or*
the service hosting a worker process.

The kill-based tests go further than exceptions: they SIGKILL the worker
*process* mid-round (no cleanup, no goodbye — the closest cheap stand-in
for a segfault or an OOM kill) and require the supervision layer to detect
the death, restart the worker, retry the interrupted job to a
solo-identical verdict, and fail a deterministically crashing (poison) job
with ``JobError(kind="WorkerCrash")`` after ``max_attempts`` without
taking the service down.
"""

from __future__ import annotations

import functools
import os
import signal

import pytest

from repro.core.abonn import AbonnVerifier
from repro.nn import dense_network
from repro.service import RetryPolicy, ServiceConfig, VerificationService
from repro.utils import Budget
from repro.verifiers.result import VerificationStatus, VerifierRun

from conftest import make_robustness_problem

BUDGET_NODES = 60

#: The report path of a DeepPoly root: the bound-cache key of a problem's
#: root report, which every job's setup reads first.
ROOT_PATH = ("deeppoly",)


def _problem(seed, shape, reference, epsilon):
    network = dense_network(shape, seed=seed)
    return network, make_robustness_problem(network, reference, epsilon)


PROBLEM_A = _problem(1, [4, 8, 6, 3], [0.45, 0.55, 0.5, 0.4], 0.08)
PROBLEM_B = _problem(3, [3, 8, 8, 3], [0.4, 0.6, 0.5], 0.12)
#: Verified only after ~13 nodes of branching — tiny budgets exhaust it
#: mid-expansion (odd ``nodes_explored``: between the siblings of a pair).
PROBLEM_BRANCHING = _problem(1, [6, 10, 8, 4], [0.5] * 6, 0.1)


def _solo(problem, budget_nodes=BUDGET_NODES):
    network, spec = problem
    return AbonnVerifier().verify(network, spec,
                                  Budget(max_nodes=budget_nodes))


SOLO_A = _solo(PROBLEM_A)
SOLO_B = _solo(PROBLEM_B)


def _assert_identical(result, solo) -> None:
    assert result.status == solo.status
    assert result.nodes_explored == solo.nodes_explored
    assert result.tree_size == solo.tree_size
    if solo.counterexample is None:
        assert result.counterexample is None
    else:
        assert result.counterexample.tobytes() == solo.counterexample.tobytes()


class _ExplodingRun(VerifierRun):
    """A run that survives a few rounds, then raises mid-round."""

    def __init__(self, rounds_before_failure: int) -> None:
        self.remaining = rounds_before_failure

    def step(self):
        if self.remaining == 0:
            raise RuntimeError("injected mid-round failure")
        self.remaining -= 1
        return None

    def interrupt(self):
        return None


class _ExplodingVerifier:
    def __init__(self, rounds_before_failure: int) -> None:
        self.rounds_before_failure = rounds_before_failure

    def start_run(self, network, spec, budget=None):
        return _ExplodingRun(self.rounds_before_failure)


class _CrashOnceRun(VerifierRun):
    """Delegates to a real run, but SIGKILLs its own process once.

    The marker file makes the crash once-per-path: the first ``step()``
    creates it and kills the process (uncatchable, mid-round); after the
    worker restarts, the retried job's fresh run sees the marker and
    delegates untouched — so the retry's trajectory is exactly a solo run.
    """

    def __init__(self, inner, marker: str) -> None:
        self.inner = inner
        self.marker = marker

    def step(self):
        if not os.path.exists(self.marker):
            with open(self.marker, "w"):
                pass
            os.kill(os.getpid(), signal.SIGKILL)
        return self.inner.step()

    def interrupt(self):
        return self.inner.interrupt()


class _CrashOnceVerifier:
    def __init__(self, bundle, marker: str) -> None:
        self.inner = AbonnVerifier(lp_cache=bundle.lp_cache,
                                   bound_cache=bundle.bound_cache)
        self.marker = marker

    def start_run(self, network, spec, budget=None):
        return _CrashOnceRun(self.inner.start_run(network, spec, budget),
                             self.marker)


def _crash_once_factory(bundle, marker: str):
    """Module-level (hence picklable) factory for the crash-once verifier."""
    return _CrashOnceVerifier(bundle, marker)


class _SigkillRun(VerifierRun):
    """A poison run: SIGKILLs its process on every step, every attempt."""

    def step(self):
        os.kill(os.getpid(), signal.SIGKILL)

    def interrupt(self):
        return None


class _SigkillVerifier:
    def __init__(self, bundle) -> None:
        pass

    def start_run(self, network, spec, budget=None):
        return _SigkillRun()


def _sigkill_factory(bundle):
    """Module-level (hence picklable) factory for the poison verifier."""
    return _SigkillVerifier(bundle)


class TestWorkerCrash:
    """Real SIGKILLs against the process transport's supervision layer."""

    def _config(self, **kwargs):
        kwargs.setdefault("transport", "process")
        kwargs.setdefault("retry", RetryPolicy(backoff_seconds=0.01))
        return ServiceConfig(**kwargs)

    def test_sigkill_mid_round_retries_and_other_jobs_match_solo(
            self, tmp_path):
        """A worker SIGKILLed mid-round: the job retries to the solo
        verdict and every unrelated job — same shard or other shards —
        completes identical to a cooperative (solo) run."""
        marker = str(tmp_path / "crashed-once")
        service = VerificationService(self._config(pool_size=2))
        with service:
            crashing = service.submit(
                *PROBLEM_A, budget=Budget(max_nodes=BUDGET_NODES),
                verifier_factory=functools.partial(_crash_once_factory,
                                                   marker=marker))
            good_same_shard = service.submit(
                *PROBLEM_A, budget=Budget(max_nodes=BUDGET_NODES))
            good_other = service.submit(
                *PROBLEM_B, budget=Budget(max_nodes=BUDGET_NODES))
            results = {done.job_id: done for done in service.as_completed()}
        assert set(results) == {crashing, good_same_shard, good_other}

        crashed = results[crashing]
        assert crashed.ok, f"retry did not recover: {crashed.error}"
        assert crashed.worker_crashes == 1
        assert crashed.attempts == 2  # the crash cost exactly one retry
        _assert_identical(crashed.result, SOLO_A)

        assert results[good_same_shard].ok
        _assert_identical(results[good_same_shard].result, SOLO_A)
        assert results[good_other].ok
        _assert_identical(results[good_other].result, SOLO_B)

        stats = service.stats()
        assert stats["worker_crashes"] == 1
        assert stats["worker_restarts"] >= 1
        assert stats["retries"] == 1
        assert stats["jobs_failed"] == 0
        assert stats["transport_downgrades"] == []

    def test_poison_job_fails_with_worker_crash_after_max_attempts(self):
        """A job that kills its worker every time is poison: after
        ``max_attempts`` crashes it fails with ``kind="WorkerCrash"`` —
        and the service, its shard and the other jobs all survive."""
        retry = RetryPolicy(max_attempts=2, backoff_seconds=0.01)
        service = VerificationService(self._config(pool_size=1, retry=retry))
        with service:
            bad = service.submit(*PROBLEM_A,
                                 budget=Budget(max_nodes=BUDGET_NODES),
                                 verifier_factory=_sigkill_factory)
            good = service.submit(*PROBLEM_B,
                                  budget=Budget(max_nodes=BUDGET_NODES))
            results = {done.job_id: done for done in service.as_completed()}

            failed = results[bad]
            assert not failed.ok
            assert failed.error.kind == "WorkerCrash"
            assert failed.error.stage == "round"
            assert failed.worker_crashes == retry.max_attempts
            assert failed.attempts == retry.max_attempts

            assert results[good].ok
            _assert_identical(results[good].result, SOLO_B)

            # The service is still alive and serving after the poison job.
            again = service.submit(*PROBLEM_A,
                                   budget=Budget(max_nodes=BUDGET_NODES))
            done = next(done for done in service.as_completed()
                        if done.job_id == again)
            assert done.ok
            _assert_identical(done.result, SOLO_A)
        stats = service.stats()
        assert stats["worker_crashes"] == retry.max_attempts
        assert stats["jobs_failed"] == 1

    def test_deadline_passing_in_backoff_times_out_then(self):
        """A job backing off after a worker crash times out when its
        deadline passes, not when its backoff ends."""
        backoff = 5.0
        retry = RetryPolicy(backoff_seconds=backoff,
                            max_backoff_seconds=backoff, jitter_fraction=0.0)
        service = VerificationService(self._config(pool_size=1, retry=retry))
        with service:
            service.submit(*PROBLEM_A, budget=Budget(max_nodes=BUDGET_NODES),
                           deadline_seconds=0.5,
                           verifier_factory=_sigkill_factory)
            done, = service.as_completed()
        assert done.ok and done.deadline_exceeded
        assert done.result.status == VerificationStatus.TIMEOUT
        assert done.worker_crashes == 1
        assert done.latency_seconds < backoff

    def test_quarantined_bundle_never_leaks_poison_across_restart(
            self, tmp_path):
        """Quarantine survives worker restarts: a poisoned bundle is
        discarded on the parent *and* the worker side, so neither the
        restarted worker nor the parent pool ever serves the poisoned
        entries again."""
        service = VerificationService(self._config(pool_size=1))
        with service:
            network, spec = PROBLEM_A
            fingerprint = service.pool.fingerprint_for(network, spec)
            bundle = service.pool.bundle(fingerprint)
            root_key = ROOT_PATH
            bundle.bound_cache.put_report(root_key, "poison")

            # The poisoned bundle is handed to the worker and breaks the
            # job's setup there; quarantine discards both copies.
            bad = service.submit(*PROBLEM_A,
                                 budget=Budget(max_nodes=BUDGET_NODES))
            done = next(done for done in service.as_completed()
                        if done.job_id == bad)
            assert not done.ok
            assert done.error.stage == "setup"
            assert service.pool.bundle(fingerprint) is not bundle

            # Kill the worker (crash-once job) to force a full restart...
            marker = str(tmp_path / "restart-marker")
            crasher = service.submit(
                *PROBLEM_A, budget=Budget(max_nodes=BUDGET_NODES),
                verifier_factory=functools.partial(_crash_once_factory,
                                                   marker=marker))
            done = next(done for done in service.as_completed()
                        if done.job_id == crasher)
            assert done.ok and done.worker_crashes == 1

            # ... and the post-restart worker serves the fingerprint from
            # the fresh bundle: no poisoned entry anywhere.
            clean = service.submit(*PROBLEM_A,
                                   budget=Budget(max_nodes=BUDGET_NODES))
            done = next(done for done in service.as_completed()
                        if done.job_id == clean)
            assert done.ok
            _assert_identical(done.result, SOLO_A)
            fresh = service.pool.bundle(fingerprint)
            assert fresh.bound_cache.get_report(root_key) != "poison"


class TestRoundFailure:
    @pytest.mark.parametrize("transport", ["cooperative", "process"])
    def test_mid_round_exception_fails_only_that_job(self, transport):
        service = VerificationService(ServiceConfig(pool_size=2,
                                                    rounds_per_slice=1,
                                                    transport=transport))
        with service:
            bad = service.submit(
                *PROBLEM_A, budget=Budget(max_nodes=BUDGET_NODES),
                verifier_factory=lambda bundle: _ExplodingVerifier(3))
            good_same = service.submit(*PROBLEM_A,
                                       budget=Budget(max_nodes=BUDGET_NODES))
            good_other = service.submit(*PROBLEM_B,
                                        budget=Budget(max_nodes=BUDGET_NODES))
            results = {done.job_id: done for done in service.as_completed()}
        assert set(results) == {bad, good_same, good_other}

        failed = results[bad]
        assert not failed.ok
        assert failed.result is None
        assert failed.error.stage == "round"
        assert failed.error.kind == "RuntimeError"
        assert "injected" in failed.error.message
        # The failure survived three rounds first, so it was mid-flight.
        assert failed.slices >= 3

        # Every other job — same fingerprint or not — is solo-identical.
        assert results[good_same].ok
        _assert_identical(results[good_same].result, SOLO_A)
        assert results[good_other].ok
        _assert_identical(results[good_other].result, SOLO_B)

        stats = service.stats()
        assert stats["jobs_failed"] == 1
        assert stats["jobs_completed"] == 3


class TestSetupFailure:
    @pytest.mark.parametrize("transport", ["cooperative", "process"])
    def test_broken_factory_fails_at_setup(self, transport):
        def broken_factory(bundle):
            raise ValueError("no verifier for you")

        service = VerificationService(ServiceConfig(pool_size=1,
                                                    transport=transport))
        with service:
            bad = service.submit(*PROBLEM_A,
                                 budget=Budget(max_nodes=BUDGET_NODES),
                                 verifier_factory=broken_factory)
            good = service.submit(*PROBLEM_A,
                                  budget=Budget(max_nodes=BUDGET_NODES))
            results = {done.job_id: done for done in service.as_completed()}

        failed = results[bad]
        assert not failed.ok
        assert failed.error.stage == "setup"
        assert failed.error.kind == "ValueError"
        assert failed.error.as_dict() == {
            "kind": "ValueError",
            "message": "no verifier for you",
            "stage": "setup",
        }
        assert results[good].ok
        _assert_identical(results[good].result, SOLO_A)


class TestBudgetExhaustion:
    @pytest.mark.parametrize("max_nodes", [2, 3, 5])
    def test_exhaustion_between_siblings_matches_solo(self, max_nodes):
        """A budget dying between siblings is a TIMEOUT, not a failure.

        Tiny node budgets exhaust mid-expansion (after one sibling of a
        pair, exercising the engine's partial-attach path); the service
        must surface the same TIMEOUT the solo run produces, as a result —
        never as a JobError.
        """
        solo = _solo(PROBLEM_BRANCHING, budget_nodes=max_nodes)
        assert solo.status == VerificationStatus.TIMEOUT

        service = VerificationService(ServiceConfig(pool_size=1,
                                                    rounds_per_slice=1))
        job_id = service.submit(*PROBLEM_BRANCHING,
                                budget=Budget(max_nodes=max_nodes))
        done = next(iter(service.as_completed()))
        assert done.job_id == job_id
        assert done.ok
        assert not done.deadline_exceeded
        _assert_identical(done.result, solo)


class TestPoisonedCache:
    def _poison(self, service, problem):
        network, spec = problem
        fingerprint = service.pool.fingerprint_for(network, spec)
        bundle = service.pool.bundle(fingerprint)
        # A truthy non-report value: any consumer blows up on first use.
        root_key = ROOT_PATH
        bundle.bound_cache.put_report(root_key, "poison")
        return fingerprint, bundle

    @pytest.mark.parametrize("transport", ["cooperative", "process"])
    def test_poisoned_entry_fails_job_and_quarantines_bundle(self, transport):
        service = VerificationService(ServiceConfig(pool_size=2,
                                                    transport=transport))
        with service:
            fingerprint, poisoned = self._poison(service, PROBLEM_A)

            bad = service.submit(*PROBLEM_A,
                                 budget=Budget(max_nodes=BUDGET_NODES))
            good = service.submit(*PROBLEM_B,
                                  budget=Budget(max_nodes=BUDGET_NODES))
            results = {done.job_id: done for done in service.as_completed()}

            failed = results[bad]
            assert not failed.ok
            # The root bound is computed while the run is being built, so the
            # poison surfaces at the setup stage with the consumer's exception.
            assert failed.error.stage == "setup"
            assert failed.error.kind == "AttributeError"

            # Only the job that read the poison failed; the other fingerprint
            # never saw it.
            assert results[good].ok
            _assert_identical(results[good].result, SOLO_B)

            # The poisoned bundle was quarantined: the fingerprint resolves
            # to a fresh (cold, unpoisoned) bundle now.
            fresh = service.pool.bundle(fingerprint)
            assert fresh is not poisoned
            assert len(fresh.bound_cache) == 0

            # Resubmitting the same problem succeeds against the fresh bundle.
            retry = service.submit(*PROBLEM_A,
                                   budget=Budget(max_nodes=BUDGET_NODES))
            done = next(done for done in service.as_completed()
                        if done.job_id == retry)
            assert done.ok
            _assert_identical(done.result, SOLO_A)
            assert service.stats()["jobs_failed"] == 1
