"""Regression tests for ``benchmarks/bench_service.py`` helpers.

The bench's replayability rests on one rule: every per-job random draw
comes from :func:`_job_rng`, a pure function of the job index — never from
numpy's global RNG.  A process-transport bench run interleaves jobs
nondeterministically, so any dependence on global state would make two runs
draw different priorities and the transport comparison unreproducible.
These tests pin that rule without running the (slow) benchmark itself.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np

_BENCH_PATH = (Path(__file__).resolve().parent.parent
               / "benchmarks" / "bench_service.py")
_spec = importlib.util.spec_from_file_location("bench_service", _BENCH_PATH)
bench_service = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("bench_service", bench_service)
_spec.loader.exec_module(bench_service)


class TestJobRng:
    def test_same_index_same_stream(self):
        draws_a = bench_service._job_rng(7).integers(0, 1_000_000, size=16)
        draws_b = bench_service._job_rng(7).integers(0, 1_000_000, size=16)
        assert (draws_a == draws_b).all()

    def test_distinct_indices_distinct_streams(self):
        draws = {tuple(bench_service._job_rng(index)
                       .integers(0, 1_000_000, size=8).tolist())
                 for index in range(32)}
        assert len(draws) == 32

    def test_immune_to_global_numpy_state(self):
        """Perturbing ``np.random`` between calls changes nothing."""
        np.random.seed(0)
        before = bench_service._job_rng(3).integers(0, 1_000_000, size=8)
        np.random.seed(12345)
        np.random.random(1000)  # burn global state
        after = bench_service._job_rng(3).integers(0, 1_000_000, size=8)
        assert (before == after).all()

    def test_drawing_from_job_rng_leaves_global_state_alone(self):
        np.random.seed(42)
        expected = np.random.random(4)
        np.random.seed(42)
        bench_service._job_rng(0).random(100)
        assert (np.random.random(4) == expected).all()


class TestTransportWorkload:
    def test_workload_is_replayable_across_global_perturbation(self):
        first = bench_service._transport_workload(smoke=True)
        np.random.seed(999)
        np.random.random(1000)
        second = bench_service._transport_workload(smoke=True)
        assert len(first) == len(second)
        for job_a, job_b in zip(first, second):
            assert job_a["family"] == job_b["family"]
            assert job_a["priority"] == job_b["priority"]
            assert (job_a["spec"].input_box.lower
                    == job_b["spec"].input_box.lower).all()
            assert (job_a["spec"].input_box.upper
                    == job_b["spec"].input_box.upper).all()

    def test_workload_priorities_come_from_the_job_index(self):
        jobs = bench_service._transport_workload(smoke=True)
        for index, job in enumerate(jobs):
            expected = int(bench_service._job_rng(index).integers(0, 5))
            assert job["priority"] == expected
