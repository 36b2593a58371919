"""Hostile and degenerate job requests: a structured error or the right verdict.

A request's limits are validated at submit time: each given limit must be
positive, ``inf`` means "no limit", and NaN is rejected.  (A NaN node limit
used to pass validation and hang the job: ``Budget.remaining_nodes`` read it
as "nothing left" while ``Budget.exhausted`` never fired.)  Degenerate
problems — a point box, ε = 0, a box with no unstable neuron — get the
correct trivial verdict from every verifier and both transports.  After any
of these the service keeps serving: the next job returns its solo result.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bab import BaBBaselineVerifier
from repro.baselines.alphabeta_crown import AlphaBetaCrownVerifier
from repro.core.abonn import AbonnVerifier
from repro.nn import dense_network
from repro.service import JobRequest, ServiceConfig, VerificationService
from repro.utils import Budget
from repro.verifiers.result import VerificationStatus

from conftest import make_robustness_problem

BUDGET_NODES = 40
NETWORK = dense_network([4, 8, 6, 3], seed=1)
REFERENCE = np.array([0.45, 0.55, 0.5, 0.4])
SPEC = make_robustness_problem(NETWORK, REFERENCE, 0.08)
SOLO = AbonnVerifier().verify(NETWORK, SPEC, Budget(max_nodes=BUDGET_NODES))

#: Limits the fuzzer draws from: valid, non-positive and non-finite.
LIMITS = st.sampled_from([None, 1, 7, 60, 2.5, 0, -3, 0.0, -1e-9,
                          math.inf, -math.inf, math.nan])

VERIFIERS = {
    "abonn": lambda: AbonnVerifier(),
    "bab": lambda: BaBBaselineVerifier(),
    "abcrown": lambda: AlphaBetaCrownVerifier(),
}


def _assert_solo(result) -> None:
    assert result.status == SOLO.status
    assert result.nodes_explored == SOLO.nodes_explored
    if SOLO.counterexample is None:
        assert result.counterexample is None
    else:
        assert result.counterexample.tobytes() == SOLO.counterexample.tobytes()


def _budget_with(max_nodes=None, max_seconds=None) -> Budget:
    """A budget carrying arbitrary limits, NaN included.

    ``Budget`` refuses a NaN limit when built, so the limits are set on an
    existing budget, as a caller mutating one would.
    """
    budget = Budget()
    budget.max_nodes = max_nodes
    budget.max_seconds = max_seconds
    return budget


def _run(transport: str, requests):
    service = VerificationService(ServiceConfig(transport=transport, pool_size=1))
    with service:
        job_ids = [service.submit_request(request) for request in requests]
        results = {done.job_id: done for done in service.as_completed()}
    return [results[job_id] for job_id in job_ids]


def _valid(value) -> bool:
    return value is None or value > 0


class TestNaNLimits:
    def test_budget_rejects_nan_limits(self):
        with pytest.raises(ValueError):
            Budget(max_nodes=math.nan)
        with pytest.raises(ValueError):
            Budget(max_seconds=math.nan)
        unlimited = Budget(max_nodes=math.inf, max_seconds=math.inf)
        assert not unlimited.exhausted()

    @pytest.mark.parametrize("transport", ["cooperative", "process"])
    def test_nan_limits_are_rejected_and_the_next_job_is_served(self, transport):
        bad = [JobRequest(NETWORK, SPEC, budget=_budget_with(max_nodes=math.nan)),
               JobRequest(NETWORK, SPEC, budget=_budget_with(max_seconds=math.nan)),
               JobRequest(NETWORK, SPEC, budget=Budget(max_nodes=BUDGET_NODES),
                          deadline_seconds=math.nan)]
        good = JobRequest(NETWORK, SPEC, budget=Budget(max_nodes=BUDGET_NODES))
        *rejected, served = _run(transport, bad + [good])
        for done, field in zip(rejected, ("max_nodes", "max_seconds",
                                           "deadline_seconds")):
            assert not done.ok
            assert done.error.kind == "InvalidRequest"
            assert done.error.stage == "submit"
            assert field in done.error.message
        assert served.ok
        _assert_solo(served.result)


class TestFuzzedLimits:
    @settings(max_examples=30, deadline=None)
    @given(max_nodes=LIMITS, max_seconds=LIMITS, deadline=LIMITS)
    def test_every_request_gets_an_error_or_a_verdict(self, max_nodes,
                                                      max_seconds, deadline):
        request = JobRequest(NETWORK, SPEC,
                             budget=_budget_with(max_nodes, max_seconds),
                             deadline_seconds=deadline)
        good = JobRequest(NETWORK, SPEC, budget=Budget(max_nodes=BUDGET_NODES))
        done, served = _run("cooperative", [request, good])
        if all(_valid(value) for value in (max_nodes, max_seconds, deadline)):
            assert done.ok
            assert done.result.status in tuple(VerificationStatus)
        else:
            assert not done.ok
            assert done.error.kind == "InvalidRequest"
            assert done.attempts == 0
        assert served.ok
        _assert_solo(served.result)


def _assert_trivially_correct(result, network, spec) -> None:
    """A conclusive verdict that a plain forward pass confirms."""
    assert result.status in (VerificationStatus.VERIFIED,
                             VerificationStatus.FALSIFIED)
    if result.status is VerificationStatus.FALSIFIED:
        assert spec.is_counterexample(network, result.counterexample)
        return
    points = spec.input_box.sample(rng=0, count=64)
    assert all(spec.margin(network, point) > 0.0 for point in points)


class TestDegenerateProblems:
    PROBLEMS = {
        "point-box": lambda: make_robustness_problem(NETWORK, REFERENCE, 0.0),
        "tiny-box": lambda: make_robustness_problem(NETWORK, REFERENCE, 1e-9),
    }

    @pytest.mark.parametrize("name", sorted(VERIFIERS))
    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    def test_each_verifier_decides_at_the_root(self, name, problem):
        spec = self.PROBLEMS[problem]()
        result = VERIFIERS[name]().verify(NETWORK, spec, Budget(max_nodes=BUDGET_NODES))
        _assert_trivially_correct(result, NETWORK, spec)

    def test_tiny_box_has_no_unstable_neuron(self):
        from repro.verifiers.appver import ApproximateVerifier

        spec = self.PROBLEMS["tiny-box"]()
        report = ApproximateVerifier(NETWORK, spec).evaluate().report
        assert report.num_unstable == 0

    @pytest.mark.parametrize("transport", ["cooperative", "process"])
    def test_service_decides_degenerate_jobs_and_keeps_serving(self, transport):
        specs = [factory() for _, factory in sorted(self.PROBLEMS.items())]
        requests = [JobRequest(NETWORK, spec, budget=Budget(max_nodes=BUDGET_NODES))
                    for spec in specs]
        requests.append(JobRequest(NETWORK, SPEC, budget=Budget(max_nodes=BUDGET_NODES)))
        *degenerate, served = _run(transport, requests)
        for done, spec in zip(degenerate, specs):
            assert done.ok
            _assert_trivially_correct(done.result, NETWORK, spec)
        assert served.ok
        _assert_solo(served.result)
