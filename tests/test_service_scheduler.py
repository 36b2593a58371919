"""Transport-parameterised conformance suite of the verification service.

The service's core promise: multiplexing many jobs never changes any job's
answer — and that promise must survive every execution backend.  The suite
therefore runs its properties against both transports (the cooperative
single-threaded scheduler and the supervised worker-process pool):
property-based tests submit random job mixes (problems, priorities, pool
sizes, slice lengths) and require every job's verdict,
node charges, tree size, bound and counterexample to be byte-identical to a
solo run of a fresh verifier on a fresh driver.  On top of that the
scheduling policy itself is pinned per backend: priorities order work but
never starve (bounded wait), deadlines are honoured within one round's
granularity, and batch collection restores submission order.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bab import BaBBaselineVerifier
from repro.core.abonn import AbonnVerifier
from repro.nn import dense_network
from repro.service import JobRequest, ServiceConfig, VerificationService
from repro.utils import Budget
from repro.verifiers.result import MonolithicRun, VerificationStatus

from conftest import make_robustness_problem

#: Node-only budgets keep solo and multiplexed trajectories deterministic
#: (wall-clock budgets would see the time spent preempted, as documented).
BUDGET_NODES = 60

#: Every execution backend the conformance properties must hold for.
TRANSPORTS = ("cooperative", "process")


def _problems():
    """A small bank of distinct problems (distinct fingerprints)."""
    bank = []
    for seed, shape, reference, epsilon in (
            (1, [4, 8, 6, 3], [0.45, 0.55, 0.5, 0.4], 0.08),
            (1, [4, 8, 6, 3], [0.45, 0.55, 0.5, 0.4], 0.15),
            (1, [6, 10, 8, 4], [0.5] * 6, 0.1),
            (3, [3, 8, 8, 3], [0.4, 0.6, 0.5], 0.12),
    ):
        network = dense_network(shape, seed=seed)
        bank.append((network, make_robustness_problem(network, reference,
                                                      epsilon)))
    return bank


PROBLEMS = _problems()


def _solo(problem_index: int):
    network, spec = PROBLEMS[problem_index]
    return AbonnVerifier().verify(network, spec, Budget(max_nodes=BUDGET_NODES))


SOLO_RESULTS = [_solo(index) for index in range(len(PROBLEMS))]


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


@pytest.fixture(params=TRANSPORTS)
def transport(request):
    """The execution backend a conformance test runs against."""
    return request.param


def _run_jobs(transport: str, submissions, **config_kwargs):
    """Run ``submissions`` (submit-kwargs dicts) on one backend.

    Returns ``(job_ids, results)`` with ``results`` keyed by job id —
    the uniform harness every conformance property goes through.
    """
    service = VerificationService(ServiceConfig(transport=transport,
                                                **config_kwargs))
    with service:
        job_ids = [service.submit(**submission) for submission in submissions]
        results = {done.job_id: done for done in service.as_completed()}
    return job_ids, results


def _submission(problem_index: int, **kwargs) -> dict:
    network, spec = PROBLEMS[problem_index]
    kwargs.setdefault("budget", Budget(max_nodes=BUDGET_NODES))
    return {"network": network, "spec": spec, **kwargs}


class TestSoloIdentical:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(jobs=st.lists(st.tuples(st.integers(0, len(PROBLEMS) - 1),
                                   st.integers(-5, 5)),
                         min_size=1, max_size=6),
           pool_size=st.sampled_from((1, 2, 4)),
           rounds_per_slice=st.integers(1, 6))
    def test_random_mixes_match_solo_runs(self, transport, jobs, pool_size,
                                          rounds_per_slice):
        """Any mix on any backend: every verdict/charge/cex solo-identical."""
        submissions = [_submission(problem_index, priority=priority)
                       for problem_index, priority in jobs]
        job_ids, results = _run_jobs(transport, submissions,
                                     pool_size=pool_size,
                                     rounds_per_slice=rounds_per_slice)
        assert set(results) == set(job_ids)
        for (problem_index, _), job_id in zip(jobs, job_ids):
            done = results[job_id]
            assert done.ok, f"job failed: {done.error}"
            _assert_identical(done.result, SOLO_RESULTS[problem_index])

    def test_run_until_complete_orders_by_submission(self, transport):
        """Batch collection restores submission order on every backend."""
        submissions = [_submission(0, priority=priority)
                       for priority in (0, 9, 3)]
        service = VerificationService(ServiceConfig(transport=transport,
                                                    pool_size=2))
        with service:
            ids = [service.submit(**sub) for sub in submissions]
            results = service.run_until_complete()
        assert [done.job_id for done in results] == ids
        for done in results:
            assert done.ok
            _assert_identical(done.result, SOLO_RESULTS[0])

    def test_stream_results_accepts_requests(self, transport):
        network, spec = PROBLEMS[1]
        requests = [JobRequest(network=network, spec=spec,
                               budget=Budget(max_nodes=BUDGET_NODES))
                    for _ in range(3)]
        service = VerificationService(ServiceConfig(transport=transport,
                                                    pool_size=1))
        with service:
            seen = list(service.stream_results(requests))
        assert len(seen) == 3
        for done in seen:
            _assert_identical(done.result, SOLO_RESULTS[1])


def _bab_factory(bundle):
    """Module-level (hence picklable) per-job factory: the BaB baseline."""
    return BaBBaselineVerifier()


class TestServiceSurface:
    """The service API answers alike on both transports."""

    def test_submit_many_returns_ids_in_submission_order(self, transport):
        network, spec = PROBLEMS[1]
        requests = [JobRequest(network=network, spec=spec,
                               budget=Budget(max_nodes=BUDGET_NODES))
                    for _ in range(3)]
        with VerificationService(ServiceConfig(transport=transport)) as svc:
            ids = svc.submit_many(requests)
            results = svc.run_until_complete()
        assert ids == ["job-0", "job-1", "job-2"]
        assert [done.job_id for done in results] == ids
        for done in results:
            _assert_identical(done.result, SOLO_RESULTS[1])

    def test_result_is_what_the_stream_yielded(self, transport):
        """``result(job_id)`` returns the object ``as_completed`` yielded
        (and the listener saw), once the job is done; an unknown id raises."""
        heard = []
        with VerificationService(ServiceConfig(transport=transport)) as svc:
            svc.add_completion_listener(heard.append)
            ids = [svc.submit(**_submission(index)) for index in (0, 3)]
            streamed = list(svc.as_completed())
            assert not svc.has_pending()
            with pytest.raises(KeyError):
                svc.result("job-404")
            for done in streamed:
                assert svc.result(done.job_id) is done
        assert sorted(done.job_id for done in streamed) == ids
        assert sorted(map(id, heard)) == sorted(map(id, streamed))

    def test_stats_count_jobs_and_fingerprints(self, transport):
        config = ServiceConfig(transport=transport, pool_size=2)
        with VerificationService(config) as svc:
            for index in (0, 0, 0, 3):
                svc.submit(**_submission(index))
            svc.run_until_complete()
        stats = svc.stats()
        assert stats["transport"] == transport
        assert stats["pool_size"] == 2
        assert stats["jobs_submitted"] == 4
        assert stats["jobs_completed"] == 4
        assert stats["jobs_failed"] == stats["jobs_rejected"] == 0
        assert stats["jobs_inline"] == 0
        assert stats["retries"] == stats["worker_crashes"] == 0
        assert stats["transport_downgrades"] == []
        assert stats["slices"] >= 4
        assert stats["pool"]["fingerprints"] == 2

    def test_shutdown_refuses_new_jobs_but_drains_accepted_ones(self,
                                                                transport):
        service = VerificationService(ServiceConfig(transport=transport))
        ids = [service.submit(**_submission(0)) for _ in range(2)]
        service.shutdown(wait=False)
        with pytest.raises(ValueError, match="shut down"):
            service.submit(**_submission(0))
        results = service.run_until_complete()
        service.shutdown(wait=True)
        assert [done.job_id for done in results] == ids
        for done in results:
            assert done.ok
            _assert_identical(done.result, SOLO_RESULTS[0])

    def test_a_job_factory_overrides_the_service_default(self, transport):
        """A job's own ``verifier_factory`` runs that job only; its
        neighbours keep the service's default verifier."""
        network, spec = PROBLEMS[0]
        solo_bab = BaBBaselineVerifier().verify(
            network, spec, Budget(max_nodes=BUDGET_NODES))
        job_ids, results = _run_jobs(
            transport, [_submission(0), _submission(0,
                                                    verifier_factory=_bab_factory)],
            pool_size=1)
        default, override = (results[job_id].result for job_id in job_ids)
        assert default.verifier == SOLO_RESULTS[0].verifier
        _assert_identical(default, SOLO_RESULTS[0])
        assert override.verifier == solo_bab.verifier != default.verifier
        _assert_identical(override, solo_bab)

    def test_listeners_hear_rejected_jobs_too(self, transport):
        heard = []
        with VerificationService(ServiceConfig(transport=transport)) as svc:
            svc.add_completion_listener(heard.append)
            bad = svc.submit(**_submission(0, deadline_seconds=-1.0))
            good = svc.submit(**_submission(0))
            svc.run_until_complete()
        assert sorted(done.job_id for done in heard) == [bad, good]
        rejected = next(done for done in heard if done.job_id == bad)
        assert rejected.error.kind == "InvalidRequest"
        assert rejected.attempts == 0


class TestBoundedWait:
    def test_priorities_order_work_within_a_worker(self, transport):
        """With one worker, the high-priority job finishes first."""
        submissions = [_submission(0, priority=0), _submission(0, priority=5)]
        job_ids, results = _run_jobs(transport, submissions, pool_size=1,
                                     rounds_per_slice=1)
        low, high = job_ids
        assert results[low].ok and results[high].ok
        # The caller drives both transports, so nothing runs before both
        # jobs are in: the first slice goes to the high-priority job, so
        # the low one waits at least one slice while high never waits.
        assert results[high].wait_slices == 0
        assert results[low].wait_slices >= 1
        for job_id in job_ids:
            _assert_identical(results[job_id].result, SOLO_RESULTS[0])

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(max_wait=st.integers(1, 4), rivals=st.integers(2, 5))
    def test_oldest_job_wait_is_bounded(self, transport, max_wait, rivals):
        """Rivals at higher priority cannot push the oldest job's wait
        beyond ``max_wait_slices`` slices between any two of its slices."""
        submissions = ([_submission(2, priority=0)]
                       + [_submission(2, priority=10)
                          for _ in range(rivals)])
        job_ids, results = _run_jobs(transport, submissions, pool_size=1,
                                     rounds_per_slice=1,
                                     max_wait_slices=max_wait)
        low = results[job_ids[0]]
        assert low.ok
        # Bounded wait: the low job is the oldest submission, so between
        # two of its slices at most max_wait_slices slices go to rivals.
        assert low.wait_slices <= low.slices * max_wait
        _assert_identical(low.result, SOLO_RESULTS[2])

    def test_low_priority_job_is_never_starved_under_injection(self,
                                                               transport):
        """A continuous stream of high-priority rivals cannot starve a job.

        New rivals are injected every step; the low-priority job must
        still run within ``max_wait_slices`` slices of any point in time,
        so it finishes long before the (endless) rival stream drains.
        """
        max_wait = 2
        service = VerificationService(ServiceConfig(
            transport=transport, pool_size=1, rounds_per_slice=1,
            max_wait_slices=max_wait))
        network, spec = PROBLEMS[2]
        with service:
            low = service.submit(network, spec,
                                 budget=Budget(max_nodes=BUDGET_NODES),
                                 priority=0)
            for _ in range(3):
                service.submit(network, spec,
                               budget=Budget(max_nodes=BUDGET_NODES),
                               priority=10)
            steps = 0
            while service.result(low) is None:
                # Keep the pressure on: one fresh high-priority rival per
                # step.
                service.submit(network, spec,
                               budget=Budget(max_nodes=BUDGET_NODES),
                               priority=10)
                service.step()
                steps += 1
                assert steps < 500, "low-priority job starved"
            done = service.result(low)
        assert done.ok
        assert done.wait_slices <= done.slices * max_wait
        _assert_identical(done.result, SOLO_RESULTS[2])


#: Setup time of the slow-start verifiers, well past the probe's deadline.
SLOW_START_SECONDS = 0.3


class _SlowStartVerifier:
    """ABONN whose ``start_run`` takes ``SLOW_START_SECONDS`` to open a run.

    ``monolithic`` opens a :class:`MonolithicRun` (no interrupt before its
    one step) instead of the engine's preemptible run.
    """

    def __init__(self, bundle, monolithic: bool) -> None:
        self.inner = AbonnVerifier(lp_cache=bundle.lp_cache,
                                   bound_cache=bundle.bound_cache)
        self.monolithic = monolithic

    def start_run(self, network, spec, budget=None):
        if self.monolithic:
            run = MonolithicRun(self.inner, network, spec, budget)
        else:
            run = self.inner.start_run(network, spec, budget)
        time.sleep(SLOW_START_SECONDS)
        return run


def _slow_engine_factory(bundle):
    return _SlowStartVerifier(bundle, monolithic=False)


def _slow_monolithic_factory(bundle):
    return _SlowStartVerifier(bundle, monolithic=True)


class TestDeadlines:
    def test_expired_deadline_times_out_within_one_slice(self, transport):
        job_ids, results = _run_jobs(
            transport, [_submission(0, deadline_seconds=1e-9)], pool_size=1)
        done = results[job_ids[0]]
        assert done.deadline_exceeded
        assert done.result.status == VerificationStatus.TIMEOUT
        assert done.slices == 1  # honoured before the first round

    @pytest.mark.parametrize("factory", [_slow_engine_factory,
                                         _slow_monolithic_factory])
    def test_deadline_is_checked_before_the_first_round_after_setup(
            self, transport, factory):
        """A setup that outlasts the deadline gets no round: the first
        advance interrupts the run, identically on every transport.  An
        engine run ends with its own pre-round TIMEOUT, timed from its
        setup; a monolithic run has none, so the service's TIMEOUT reports
        the time since submission."""
        deadline = 0.1
        network, spec = PROBLEMS[2]
        interrupted = AbonnVerifier().start_run(
            network, spec, Budget(max_nodes=BUDGET_NODES)).interrupt()
        expected_nodes = (0 if factory is _slow_monolithic_factory
                          else interrupted.nodes_explored)
        job_ids, results = _run_jobs(
            transport, [_submission(2, deadline_seconds=deadline,
                                    verifier_factory=factory)], pool_size=1)
        done = results[job_ids[0]]
        assert done.ok, f"job failed: {done.error}"
        assert done.deadline_exceeded
        assert done.slices == 1
        assert done.result.status == VerificationStatus.TIMEOUT
        assert done.result.nodes_explored == expected_nodes
        assert done.result.elapsed_seconds >= deadline

    def test_generous_deadline_does_not_disturb_the_run(self, transport):
        job_ids, results = _run_jobs(
            transport, [_submission(0, deadline_seconds=3600.0)], pool_size=1)
        done = results[job_ids[0]]
        assert not done.deadline_exceeded
        _assert_identical(done.result, SOLO_RESULTS[0])

    def test_mid_run_deadline_interrupts_with_best_bound(self, transport):
        """A deadline that expires mid-run yields TIMEOUT with a bound."""
        job_ids, results = _run_jobs(
            transport,
            [_submission(1, budget=Budget(max_nodes=10_000),
                         deadline_seconds=0.5)],
            pool_size=1, rounds_per_slice=1)
        done = results[job_ids[0]]
        assert done.ok
        if done.deadline_exceeded:
            assert done.result.status == VerificationStatus.TIMEOUT

    def test_invalid_deadline_rejected(self, transport):
        """A non-positive deadline is a structured submit-time rejection.

        The job is accepted and immediately finalised with
        ``JobError(kind="InvalidRequest", stage="submit")`` and zero
        attempts — no exception, and other jobs in the batch still run.
        """
        network, spec = PROBLEMS[0]
        service = VerificationService(ServiceConfig(transport=transport))
        with service:
            job_id = service.submit(network, spec, deadline_seconds=0.0)
            done = service.result(job_id)
        assert not done.ok
        assert done.error.kind == "InvalidRequest"
        assert done.error.stage == "submit"
        assert done.attempts == 0
        assert "deadline_seconds" in done.error.message

    def test_invalid_budget_rejected_and_batch_survives(self, transport):
        """Non-positive budget limits reject at submit; good jobs run on.

        The rejection flows through the normal completion stream, so a
        mixed batch yields every result — the bad job's structured error
        alongside the good jobs' verdicts.
        """
        submissions = [_submission(0),
                       _submission(0, budget=Budget(max_nodes=0)),
                       _submission(0, budget=Budget(max_seconds=-1.0))]
        job_ids, results = _run_jobs(transport, submissions, pool_size=1)
        assert set(results) == set(job_ids)
        good, bad_nodes, bad_seconds = (results[job_id] for job_id in job_ids)
        assert good.ok
        _assert_identical(good.result, SOLO_RESULTS[0])
        for done, field in ((bad_nodes, "max_nodes"),
                            (bad_seconds, "max_seconds")):
            assert not done.ok
            assert done.error.kind == "InvalidRequest"
            assert done.error.stage == "submit"
            assert done.attempts == 0
            assert field in done.error.message


class TestSchedulerPlumbing:
    """Caller-driven plumbing of the cooperative transport."""

    def test_step_without_work_returns_none(self):
        service = VerificationService()
        assert service.step() is None
        assert not service.has_pending()

    def test_step_returns_each_finished_result_once(self):
        service = VerificationService(ServiceConfig(pool_size=2,
                                                    rounds_per_slice=1))
        ids = [service.submit(**_submission(index)) for index in (0, 3)]
        finished = []
        while service.has_pending():
            done = service.step()
            if done is not None:
                finished.append(done)
        assert sorted(done.job_id for done in finished) == ids
        for done in finished:
            assert service.result(done.job_id) is done
        assert service.step() is None

    def test_result_raises_for_unknown_job(self):
        service = VerificationService()
        with pytest.raises(KeyError):
            service.result("job-404")

    def test_stats_counts_jobs_and_slices(self):
        service = VerificationService(ServiceConfig(pool_size=2))
        network, spec = PROBLEMS[0]
        for _ in range(3):
            service.submit(network, spec,
                           budget=Budget(max_nodes=BUDGET_NODES))
        service.run_until_complete()
        stats = service.stats()
        assert stats["jobs_submitted"] == 3
        assert stats["jobs_completed"] == 3
        assert stats["jobs_failed"] == 0
        assert stats["slices"] >= 3
        assert stats["transport"] == "cooperative"
        assert stats["pool"]["fingerprints"] == 1

    def test_sharding_keeps_a_fingerprint_on_one_worker(self):
        """Same fingerprint, same worker index at every pool size."""
        network, spec = PROBLEMS[0]
        for pool_size in (1, 2, 4):
            service = VerificationService(ServiceConfig(pool_size=pool_size))
            ids = [service.submit(network, spec,
                                  budget=Budget(max_nodes=BUDGET_NODES))
                   for _ in range(3)]
            workers = {service._jobs[job_id].worker for job_id in ids}
            assert len(workers) == 1
