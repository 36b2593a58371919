"""Transport-specific behaviour: the accepted configurations and the
process transport's lifecycle.

The conformance suite (``test_service_scheduler.py``) pins the properties
both backends share; this module pins which transports and knob values
:class:`ServiceConfig` accepts, and what is *particular* to the process
transport — a caller-driven ``step()`` that starts no thread, draining and
idempotent shutdown, completion listeners, the reported transport, and
where rounds run: in the shard's worker process, or on the caller's thread
for a job that cannot cross the pipe.  Every verifier here is picklable,
so jobs really run in the worker processes unless a test says otherwise.
"""

from __future__ import annotations

import importlib
import os
import threading

import pytest

from repro.core.abonn import AbonnVerifier
from repro.nn import dense_network
import repro.service
from repro.service import TRANSPORTS, ServiceConfig, VerificationService
from repro.utils import Budget
from repro.verifiers.result import (
    VerificationResult,
    VerificationStatus,
    VerifierRun,
)

from conftest import make_robustness_problem

BUDGET_NODES = 60


def _problem(seed, shape, reference, epsilon):
    network = dense_network(shape, seed=seed)
    return network, make_robustness_problem(network, reference, epsilon)


PROBLEM_A = _problem(1, [4, 8, 6, 3], [0.45, 0.55, 0.5, 0.4], 0.08)
PROBLEM_B = _problem(3, [3, 8, 8, 3], [0.4, 0.6, 0.5], 0.12)

SOLO_A = AbonnVerifier().verify(*PROBLEM_A, Budget(max_nodes=BUDGET_NODES))


def _assert_identical(result, solo) -> None:
    assert result.status == solo.status
    assert result.nodes_explored == solo.nodes_explored
    assert result.tree_size == solo.tree_size


def _process_service(**kwargs) -> VerificationService:
    return VerificationService(ServiceConfig(transport="process", **kwargs))


class _WhereRun(VerifierRun):
    """Answers at once, recording the process and thread it stepped in."""

    def step(self):
        return VerificationResult(
            status=VerificationStatus.VERIFIED, verifier="where",
            elapsed_seconds=0.0,
            extras={"pid": os.getpid(),
                    "thread": threading.current_thread().name})

    def interrupt(self):
        return None


class _WhereVerifier:
    def start_run(self, network, spec, budget=None):
        return _WhereRun()


def _where_factory(bundle):
    """Module-level (hence picklable) factory for the recording verifier."""
    return _WhereVerifier()


class TestServiceConfig:
    @pytest.mark.parametrize("transport",
                             ["threaded", "async", "", "Process", "inline"])
    def test_rejects_a_transport_outside_the_two(self, transport):
        with pytest.raises(ValueError,
                           match=r"\('cooperative', 'process'\)"):
            ServiceConfig(transport=transport)

    @pytest.mark.parametrize("transport", ["cooperative", "process"])
    def test_accepts_each_transport(self, transport):
        assert TRANSPORTS == ("cooperative", "process")
        with VerificationService(ServiceConfig(transport=transport)) as svc:
            assert svc.stats()["transport"] == transport

    @pytest.mark.parametrize("knob, value", [
        ("pool_size", 0),
        ("pool_size", -1),
        ("rounds_per_slice", 0),
        ("max_wait_slices", 0),
        ("worker_crash_budget", 0),
        ("slice_timeout_seconds", 0.0),
        ("slice_timeout_seconds", -1.0),
        ("slice_timeout_seconds", float("nan")),
    ])
    def test_rejects_a_non_positive_knob(self, knob, value):
        with pytest.raises(ValueError, match=f"{knob} must be positive"):
            ServiceConfig(**{knob: value})

    def test_a_failed_job_always_quarantines_its_bundle(self):
        """Quarantine on failure is not optional: the config has no switch
        that would keep a failed job's (possibly poisoned) bundle alive."""
        with pytest.raises(TypeError, match="quarantine_on_error"):
            ServiceConfig(quarantine_on_error=False)

    def test_there_is_no_asyncio_front_end(self):
        assert not hasattr(repro.service, "AsyncVerificationService")
        with pytest.raises(ImportError):
            importlib.import_module("repro.service.async_service")


class TestProcessLifecycle:
    def test_step_returns_each_finished_result_once(self):
        with _process_service(pool_size=2, rounds_per_slice=1) as svc:
            ids = [svc.submit(*problem, budget=Budget(max_nodes=BUDGET_NODES))
                   for problem in (PROBLEM_A, PROBLEM_B, PROBLEM_A)]
            finished = []
            while svc.has_pending():
                done = svc.step()
                if done is not None:
                    finished.append(done)
            assert sorted(done.job_id for done in finished) == sorted(ids)
            for done in finished:
                assert svc.result(done.job_id) is done
            assert svc.step() is None

    def test_run_starts_no_thread(self):
        before = threading.active_count()
        with _process_service(pool_size=2) as svc:
            for problem in (PROBLEM_A, PROBLEM_B):
                svc.submit(*problem, budget=Budget(max_nodes=BUDGET_NODES))
            results = svc.run_until_complete()
            assert threading.active_count() == before
        assert all(done.ok for done in results)
        assert threading.active_count() == before

    def test_shutdown_drains_pending_jobs(self):
        """shutdown(wait=True) finishes accepted jobs instead of dropping them."""
        service = _process_service(pool_size=2)
        ids = [service.submit(*PROBLEM_A, budget=Budget(max_nodes=BUDGET_NODES))
               for _ in range(4)]
        service.shutdown(wait=True)
        for job_id in ids:
            done = service.result(job_id)
            assert done is not None and done.ok
            _assert_identical(done.result, SOLO_A)
        assert service.stats()["jobs_inline"] == 0

    def test_shutdown_is_idempotent_and_rejects_submissions(self):
        service = _process_service()
        service.submit(*PROBLEM_A, budget=Budget(max_nodes=BUDGET_NODES))
        service.shutdown(wait=True)
        service.shutdown(wait=True)  # second call is a no-op
        with pytest.raises(ValueError, match="shut down"):
            service.submit(*PROBLEM_A, budget=Budget(max_nodes=BUDGET_NODES))

    def test_completion_listeners_fire_once_per_job(self):
        seen = []
        lock = threading.Lock()
        service = _process_service(pool_size=2)
        service.add_completion_listener(
            lambda done: (lock.acquire(), seen.append(done.job_id),
                          lock.release()))
        with service:
            ids = {service.submit(*problem,
                                  budget=Budget(max_nodes=BUDGET_NODES))
                   for problem in (PROBLEM_A, PROBLEM_B, PROBLEM_A)}
            service.run_until_complete()
        assert sorted(seen) == sorted(ids)

    def test_stats_report_process_transport(self):
        with _process_service() as svc:
            assert svc.stats()["transport"] == "process"

    def test_rounds_run_off_the_caller(self):
        """A picklable job steps in the shard's worker process, off the
        caller; a job that cannot cross the pipe steps on the caller's
        thread."""
        with _process_service(pool_size=1) as svc:
            remote = svc.submit(*PROBLEM_A,
                                budget=Budget(max_nodes=BUDGET_NODES),
                                verifier_factory=_where_factory)
            inline = svc.submit(*PROBLEM_A,
                                budget=Budget(max_nodes=BUDGET_NODES),
                                verifier_factory=lambda bundle: _WhereVerifier())
            svc.run_until_complete()
            remote_extras = svc.result(remote).result.extras
            inline_extras = svc.result(inline).result.extras
        assert remote_extras["pid"] != os.getpid()
        assert inline_extras["pid"] == os.getpid()
        assert inline_extras["thread"] == threading.current_thread().name
        assert svc.stats()["jobs_inline"] == 1
