"""The process transport's robustness layer, piece by piece.

The conformance suite (``test_service_scheduler.py``) proves the process
transport answers like every other backend, and the fault suite
(``test_service_faults.py``) SIGKILLs workers end to end.  This file pins
the *mechanisms* underneath: the :class:`~repro.service.jobs.RetryPolicy`
arithmetic (deterministic jitter, exponential growth, caps), the
:class:`~repro.service.supervisor.WorkerSupervisor` life cycle (liveness
detection, exit codes, hung-worker containment), and the degradation
ladder — spawn-unavailable hosts and crash-looping shards fall back to
in-process execution, unpicklable jobs fall back per-job, and shutdown
stops each worker without shipping its warm bundles back to the parent.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.core.abonn import AbonnVerifier
from repro.nn import dense_network
from repro.service import (
    CacheBundle,
    ProcessTransportUnavailable,
    RetryPolicy,
    ServiceConfig,
    VerificationService,
    WorkerCrashed,
    WorkerSupervisor,
)
from repro.service.process_transport import ShardExecutor
from repro.service.supervisor import resolve_start_method
from repro.utils import Budget
from repro.verifiers.result import VerifierRun

from conftest import make_robustness_problem

BUDGET_NODES = 60


def _problem(seed, shape, reference, epsilon):
    network = dense_network(shape, seed=seed)
    return network, make_robustness_problem(network, reference, epsilon)


PROBLEM_A = _problem(1, [4, 8, 6, 3], [0.45, 0.55, 0.5, 0.4], 0.08)
PROBLEM_LP = _problem(1, [6, 10, 8, 4], [0.5] * 6, 0.1)
#: At pool size 2, sharded to the worker PROBLEM_A does not use.
PROBLEM_B = _problem(3, [3, 8, 8, 3], [0.4, 0.6, 0.5], 0.12)

SOLO_A = AbonnVerifier().verify(*PROBLEM_A, Budget(max_nodes=BUDGET_NODES))
SOLO_B = AbonnVerifier().verify(*PROBLEM_B, Budget(max_nodes=BUDGET_NODES))
SOLO_LP = AbonnVerifier().verify(*PROBLEM_LP, Budget(max_nodes=BUDGET_NODES))


def _assert_identical(result, solo) -> None:
    assert result.status == solo.status
    assert result.nodes_explored == solo.nodes_explored
    assert result.tree_size == solo.tree_size


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(backoff_seconds=0.1, backoff_multiplier=2.0,
                             max_backoff_seconds=0.5, jitter_fraction=0.0)
        delays = [policy.delay_seconds("job-1", attempt)
                  for attempt in (1, 2, 3, 4, 5)]
        assert delays[:3] == [0.1, 0.2, 0.4]
        assert delays[3] == delays[4] == 0.5  # capped

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_seconds=1.0, backoff_multiplier=1.0,
                             jitter_fraction=0.25)
        first = policy.delay_seconds("job-7", 1)
        assert first == policy.delay_seconds("job-7", 1)  # pure function
        assert 0.75 <= first <= 1.25
        # Different jobs (and attempts) de-synchronise.
        spread = {round(policy.delay_seconds(f"job-{i}", 1), 6)
                  for i in range(16)}
        assert len(spread) > 1

    def test_retryable_kinds(self):
        policy = RetryPolicy()
        assert policy.retryable("WorkerCrash")
        assert not policy.retryable("ValueError")
        custom = RetryPolicy(retryable_kinds=("WorkerCrash", "TimeoutError"))
        assert custom.retryable("TimeoutError")

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"backoff_seconds": -0.1},
        {"backoff_multiplier": 0.5},
        {"max_backoff_seconds": -1.0},
        {"jitter_fraction": 1.0},
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


def _echo_main(conn) -> None:
    """A minimal supervised worker: echoes, sleeps, dies on request."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        op = message.get("op")
        if op == "stop":
            return
        if op == "ping":
            conn.send({"op": "pong"})
            continue
        if op == "die":
            os.kill(os.getpid(), signal.SIGKILL)
        if op == "hang":
            time.sleep(message["seconds"])
        conn.send({"op": "echo", "payload": message.get("payload")})


class TestWorkerSupervisor:
    def test_round_trip_and_stop(self):
        supervisor = WorkerSupervisor(target=_echo_main)
        supervisor.start()
        try:
            assert supervisor.alive()
            reply = supervisor.request({"op": "echo", "payload": 42})
            assert reply == {"op": "echo", "payload": 42}
        finally:
            supervisor.stop()
        assert not supervisor.alive()

    def test_death_mid_request_raises_with_signal_exitcode(self):
        supervisor = WorkerSupervisor(target=_echo_main)
        supervisor.start()
        try:
            with pytest.raises(WorkerCrashed) as excinfo:
                supervisor.request({"op": "die"})
            assert excinfo.value.exitcode == -signal.SIGKILL
            assert not supervisor.alive()
        finally:
            supervisor.stop()

    def test_restart_revives_a_dead_worker(self):
        supervisor = WorkerSupervisor(target=_echo_main)
        supervisor.start()
        try:
            with pytest.raises(WorkerCrashed):
                supervisor.request({"op": "die"})
            supervisor.restart()
            assert supervisor.alive()
            assert supervisor.request({"op": "ping"}) == {"op": "pong"}
            assert supervisor.starts == 2
        finally:
            supervisor.stop()

    def test_hung_worker_is_killed_on_timeout(self):
        supervisor = WorkerSupervisor(target=_echo_main)
        supervisor.start()
        try:
            began = time.monotonic()
            with pytest.raises(WorkerCrashed) as excinfo:
                supervisor.request({"op": "hang", "seconds": 30.0},
                                   timeout=0.2)
            assert time.monotonic() - began < 5.0
            assert "unresponsive" in str(excinfo.value)
            assert not supervisor.alive()
        finally:
            supervisor.stop()

    def test_unknown_start_method_is_unavailable(self):
        with pytest.raises(ProcessTransportUnavailable):
            resolve_start_method("not-a-start-method")


def _inline_factory_for_test(bundle):
    """Used through a lambda below, so the *lambda* is what fails to pickle."""
    return AbonnVerifier(lp_cache=bundle.lp_cache,
                         bound_cache=bundle.bound_cache)


class _PoisonRun(VerifierRun):
    """Kills its worker process on every step (deterministic crasher)."""

    def step(self):
        os.kill(os.getpid(), signal.SIGKILL)

    def interrupt(self):
        return None


class _PoisonVerifier:
    def __init__(self, bundle) -> None:
        pass

    def start_run(self, network, spec, budget=None):
        return _PoisonRun()


def _poison_factory(bundle):
    return _PoisonVerifier(bundle)


class _SleepyRun(VerifierRun):
    """Hangs inside a round far longer than any slice timeout."""

    def step(self):
        time.sleep(60.0)
        return None

    def interrupt(self):
        return None


class _SleepyVerifier:
    def __init__(self, bundle) -> None:
        pass

    def start_run(self, network, spec, budget=None):
        return _SleepyRun()


def _sleepy_factory(bundle):
    return _SleepyVerifier(bundle)


class TestGracefulDegradation:
    def test_spawn_unavailable_degrades_to_inline(self):
        """A host that cannot spawn workers still answers every job:
        shards fall back to in-process execution and record the downgrade."""
        service = VerificationService(ServiceConfig(
            pool_size=2, transport="process",
            process_start_method="not-a-start-method"))
        with service:
            ids = [service.submit(*PROBLEM_A,
                                  budget=Budget(max_nodes=BUDGET_NODES))
                   for _ in range(3)]
            results = {done.job_id: done for done in service.as_completed()}
        for job_id in ids:
            assert results[job_id].ok
            _assert_identical(results[job_id].result, SOLO_A)
        stats = service.stats()
        downgrades = stats["transport_downgrades"]
        assert len(downgrades) >= 1
        assert all("unavailable" in entry["reason"] for entry in downgrades)
        assert stats["jobs_failed"] == 0

    def test_crash_budget_exhaustion_degrades_shard(self):
        """A shard whose worker keeps dying degrades to in-process
        execution; crash-implicated jobs fail (running them inline would
        kill the host) while clean jobs on the shard complete inline."""
        service = VerificationService(ServiceConfig(
            pool_size=1, transport="process", worker_crash_budget=1,
            retry=RetryPolicy(max_attempts=5, backoff_seconds=0.01)))
        with service:
            bad = service.submit(*PROBLEM_A,
                                 budget=Budget(max_nodes=BUDGET_NODES),
                                 verifier_factory=_poison_factory)
            good = service.submit(*PROBLEM_A,
                                  budget=Budget(max_nodes=BUDGET_NODES))
            results = {done.job_id: done for done in service.as_completed()}

        failed = results[bad]
        assert not failed.ok
        assert failed.error.kind == "WorkerCrash"
        assert "degraded" in failed.error.message
        assert failed.worker_crashes == 2  # budget of 1, degraded on the 2nd

        assert results[good].ok
        _assert_identical(results[good].result, SOLO_A)

        stats = service.stats()
        assert stats["transport_downgrades"] == [
            {"worker": 0, "reason": "worker crash budget exceeded"}]
        assert stats["worker_crashes"] == 2

    def test_unpicklable_job_runs_inline_beside_remote_jobs(self):
        """A job whose factory cannot cross the pipe degrades *per job*:
        it runs on the caller's thread while picklable jobs keep their
        process isolation — and both answer solo-identically."""
        service = VerificationService(ServiceConfig(
            pool_size=1, transport="process"))
        with service:
            inline = service.submit(
                *PROBLEM_A, budget=Budget(max_nodes=BUDGET_NODES),
                verifier_factory=lambda bundle: _inline_factory_for_test(
                    bundle))
            remote = service.submit(*PROBLEM_A,
                                    budget=Budget(max_nodes=BUDGET_NODES))
            results = {done.job_id: done for done in service.as_completed()}
        assert results[inline].ok
        _assert_identical(results[inline].result, SOLO_A)
        assert results[remote].ok
        _assert_identical(results[remote].result, SOLO_A)
        stats = service.stats()
        assert stats["jobs_inline"] == 1
        assert stats["transport_downgrades"] == []

    def test_hung_worker_is_contained_by_slice_timeout(self):
        """A worker stuck inside a round is killed after
        ``slice_timeout_seconds`` and surfaces as a worker crash — the
        service never blocks forever on one hung process."""
        service = VerificationService(ServiceConfig(
            pool_size=1, transport="process", slice_timeout_seconds=0.3,
            retry=RetryPolicy(max_attempts=2, backoff_seconds=0.01)))
        began = time.monotonic()
        with service:
            stuck = service.submit(*PROBLEM_A,
                                   budget=Budget(max_nodes=BUDGET_NODES),
                                   verifier_factory=_sleepy_factory)
            results = {done.job_id: done for done in service.as_completed()}
        assert time.monotonic() - began < 30.0
        failed = results[stuck]
        assert not failed.ok
        assert failed.error.kind == "WorkerCrash"
        assert "unresponsive" in failed.error.message
        assert failed.worker_crashes == 2

    def test_hung_worker_leaves_the_other_shard_running(self):
        """One loop serves every shard, so a hung worker stalls only its
        own shard: the other shard's jobs finish solo-identical before the
        first slice timeout, and the hung job fails as a worker crash
        after its retries."""
        timeout = 1.0
        service = VerificationService(ServiceConfig(
            pool_size=2, transport="process", slice_timeout_seconds=timeout,
            retry=RetryPolicy(max_attempts=2, backoff_seconds=0.01)))
        with service:
            stuck = service.submit(*PROBLEM_A,
                                   budget=Budget(max_nodes=BUDGET_NODES),
                                   verifier_factory=_sleepy_factory)
            others = [service.submit(*PROBLEM_B,
                                     budget=Budget(max_nodes=BUDGET_NODES))
                      for _ in range(3)]
            order = [done.job_id for done in service.as_completed()]
        results = {job_id: service.result(job_id) for job_id in order}
        shards = {job_id: int(done.fingerprint[:8], 16) % 2
                  for job_id, done in results.items()}
        assert all(shards[job_id] != shards[stuck] for job_id in others)
        assert order[-1] == stuck
        for job_id in others:
            assert results[job_id].ok
            _assert_identical(results[job_id].result, SOLO_B)
            assert results[job_id].latency_seconds < timeout
        failed = results[stuck]
        assert failed.error.kind == "WorkerCrash"
        assert "unresponsive" in failed.error.message
        assert failed.worker_crashes == 2


class TestShutdownDropsWorkerWarmth:
    def test_shutdown_ships_no_worker_bundles_back(self, monkeypatch):
        """Shutdown stops the worker without a ``collect`` request: the
        worker's warm bundle dies with it, the parent pool's bundle of the
        fingerprint holds no entries, and every result still equals its
        solo run."""
        posted = []
        post = WorkerSupervisor.post

        def recording_post(self, message, timeout=None):
            posted.append(message["op"])
            return post(self, message, timeout)

        monkeypatch.setattr(WorkerSupervisor, "post", recording_post)
        service = VerificationService(ServiceConfig(
            pool_size=1, transport="process"))
        job_ids = [service.submit(*PROBLEM_LP,
                                  budget=Budget(max_nodes=BUDGET_NODES))
                   for _ in range(2)]
        service.run_until_complete()
        service.shutdown(wait=True)
        results = [service.result(job_id) for job_id in job_ids]
        for done in results:
            assert done.ok
            _assert_identical(done.result, SOLO_LP)
        # The worker held warm entries: the repeat job was served from them.
        assert results[1].cache_stats["lp_hits"] > 0
        assert "start" in posted and "slice" in posted
        assert "collect" not in posted
        bundle = service.pool.bundle(results[0].fingerprint)
        assert not bundle.lp_cache.export_entries()
        assert not bundle.bound_cache.export_entries()

    def test_handover_warms_the_worker_from_inline_jobs(self):
        """The parent→worker handover still carries warmth: once an inline
        job has filled the parent's bundle, a remote job on the same
        fingerprint starts from it, solves no leaf LP and equals its solo
        run."""
        service = VerificationService(ServiceConfig(
            pool_size=1, transport="process"))
        with service:
            inline_id = service.submit(
                *PROBLEM_LP, budget=Budget(max_nodes=BUDGET_NODES),
                verifier_factory=lambda bundle: _inline_factory_for_test(
                    bundle))
            service.run_until_complete()
            remote_id = service.submit(*PROBLEM_LP,
                                       budget=Budget(max_nodes=BUDGET_NODES))
            service.run_until_complete()
        inline, remote = service.result(inline_id), service.result(remote_id)
        assert inline.ok and remote.ok
        _assert_identical(inline.result, SOLO_LP)
        _assert_identical(remote.result, SOLO_LP)
        assert service.stats()["jobs_inline"] == 1
        assert remote.cache_stats["lp_solves"] == 0
        assert remote.cache_stats["bound_report_hits"] > 0

    def test_shutdown_stops_every_shard_without_a_collect(self, monkeypatch):
        """With two shards each holding a warm bundle, shutdown stops both
        worker processes and neither bundle comes back to the parent."""
        posted = []
        post = WorkerSupervisor.post

        def recording_post(self, message, timeout=None):
            posted.append(message["op"])
            return post(self, message, timeout)

        monkeypatch.setattr(WorkerSupervisor, "post", recording_post)
        service = VerificationService(ServiceConfig(
            pool_size=2, transport="process"))
        job_ids = [service.submit(*problem,
                                  budget=Budget(max_nodes=BUDGET_NODES))
                   for problem in (PROBLEM_A, PROBLEM_B)]
        service.run_until_complete()
        executors = [worker.executor for worker in service._workers]
        assert all(isinstance(executor, ShardExecutor)
                   for executor in executors)
        service.shutdown(wait=True)
        assert not any(executor.alive() for executor in executors)
        assert "collect" not in posted
        results = [service.result(job_id) for job_id in job_ids]
        for done, solo in zip(results, (SOLO_A, SOLO_B)):
            assert done.ok
            _assert_identical(done.result, solo)
        assert len({done.fingerprint for done in results}) == 2
        for done in results:
            bundle = service.pool.bundle(done.fingerprint)
            assert not bundle.lp_cache.export_entries()
            assert not bundle.bound_cache.export_entries()

    def test_handover_rewarms_a_restarted_worker(self):
        """A worker restart drops the worker's bundles, and the next start
        on the fingerprint hands the parent's bundle over again: the job
        after the restart still solves no leaf LP."""
        service = VerificationService(ServiceConfig(
            pool_size=1, transport="process",
            retry=RetryPolicy(max_attempts=1)))
        with service:
            service.submit(*PROBLEM_LP, budget=Budget(max_nodes=BUDGET_NODES),
                           verifier_factory=lambda bundle:
                           _inline_factory_for_test(bundle))
            service.run_until_complete()
            before_id = service.submit(*PROBLEM_LP,
                                       budget=Budget(max_nodes=BUDGET_NODES))
            service.run_until_complete()
            crash_id = service.submit(*PROBLEM_A,
                                      budget=Budget(max_nodes=BUDGET_NODES),
                                      verifier_factory=_poison_factory)
            service.run_until_complete()
            after_id = service.submit(*PROBLEM_LP,
                                      budget=Budget(max_nodes=BUDGET_NODES))
            service.run_until_complete()
        crashed = service.result(crash_id)
        assert not crashed.ok and crashed.worker_crashes == 1
        assert service.stats()["worker_restarts"] == 1
        assert service.stats()["transport_downgrades"] == []
        assert service.stats()["jobs_inline"] == 1
        for job_id in (before_id, after_id):
            done = service.result(job_id)
            assert done.ok
            _assert_identical(done.result, SOLO_LP)
            assert done.cache_stats["lp_solves"] == 0
            assert done.cache_stats["bound_report_hits"] > 0


class TestWorkerProtocol:
    def test_worker_refuses_the_retired_collect_op(self):
        """Workers no longer ship their bundles back: ``collect`` is an
        unknown op, answered with a protocol error, and the worker lives
        on until it is stopped."""
        executor = ShardExecutor(0, lp_cache_size=8, bound_cache_size=8)
        try:
            reply = executor.supervisor.request({"op": "collect"},
                                                timeout=30.0)
            assert reply["op"] == "error"
            assert reply["kind"] == "ProtocolError"
            assert "'collect'" in reply["message"]
            assert executor.alive()
        finally:
            executor.stop()
        assert not executor.alive()

    def test_worker_refuses_a_handover_for_another_fingerprint(self):
        """A ``start`` whose bundle payload belongs to a different problem
        fails at setup inside the worker, naming the handover, before any
        run opens; the worker stays up."""
        executor = ShardExecutor(0, lp_cache_size=8, bound_cache_size=8)
        try:
            payload = CacheBundle("f" * 64).to_payload()
            reply = executor.supervisor.request(
                {"op": "start", "fingerprint": "0" * 64, "payload": payload},
                timeout=30.0)
            assert reply["op"] == "error"
            assert reply["kind"] == "ValueError"
            assert reply["stage"] == "setup"
            assert "handover" in reply["message"]
            assert reply["cache_delta"] == {}
            assert executor.alive()
        finally:
            executor.stop()
        assert not executor.alive()
