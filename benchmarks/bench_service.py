"""Benchmark: verification-service throughput, latency and cache reuse.

Models the service's target workload — repeated queries against a small set
of verification problems (radius bisections, dashboards, repeated API
calls) — and compares:

* ``sequential`` — every job run cold, one at a time, on a fresh
  ``AbonnVerifier`` with fresh caches (the pre-service behaviour);
* ``service`` — the same jobs multiplexed through one
  :class:`repro.service.VerificationService` at pool sizes {1, 2, 4},
  where jobs sharing a problem fingerprint share that fingerprint's
  LP/bound cache bundle and the pool-wide warm-model digest;
* ``transports`` — a *multi-fingerprint* workload (distinct wide problems,
  so jobs shard across all workers) run on each execution transport:
  ``cooperative`` and ``process`` (one supervised worker process per shard
  — crash isolation, paying a pipe round-trip per slice).  The process row
  also reports the robustness counters (job retries, worker
  crashes/restarts) so the regression gate notices a bench run that only
  passed by retrying.

The cooperative service's speedup is *reuse*, not parallelism: repeat jobs
serve their bound passes and leaf LPs from the warm fingerprint bundle.
The process transport's speedup over cooperative is the ratio of the two
transports' median throughputs over three alternating runs of each, reported
together with ``cpu_count``.  Every job's verdict, node charges and
counterexample are gated for equality with its sequential-cold run on
*every* transport, and the report includes throughput (jobs/s and
speedup over sequential), latency percentiles (p50/p95/p99 of per-job
submit-to-finish wall time) and cache reuse rates (per-job LP/bound hit
deltas).

Job priorities are drawn from a per-job RNG seeded by the job *index*
(:func:`_job_rng`), never from numpy's global state, so a run is
replayable bit-for-bit no matter what other code touched ``np.random``.

Results are printed as JSON and written to
``benchmarks/output/BENCH_service.json``; the stable top-level ``summary``
block feeds ``tools/check_bench_regression.py`` against the committed
baseline.  Smoke mode (``REPRO_BENCH_SMOKE=1`` or ``--smoke``) shrinks the
workload for CI.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.core.abonn import AbonnVerifier
from repro.nn import dense_network
from repro.nn.zoo import MODEL_FAMILIES
from repro.service import JobRequest, ServiceConfig, VerificationService
from repro.specs.robustness import local_robustness_spec
from repro.utils.timing import Budget
from repro.verifiers.appver import ApproximateVerifier

OUTPUT_PATH = Path(__file__).resolve().parent / "output" / "BENCH_service.json"

FULL_FAMILIES = ("MNIST_L2", "MNIST_L4")
SMOKE_FAMILIES = ("MNIST_L2",)
POOL_SIZES = (1, 2, 4)

#: Execution transports compared on the multi-fingerprint workload.
TRANSPORTS = ("cooperative", "process")
#: Workers for the transport comparison (jobs shard across all of them).
TRANSPORT_POOL_SIZE = 4
#: Alternating runs of each transport row; their medians give the speedup.
TRANSPORT_REPEATS = 3

#: Root of every derived per-job seed (see :func:`_job_rng`).
BENCH_SEED = 8


def _job_rng(job_index: int) -> np.random.Generator:
    """The RNG of job ``job_index`` — a pure function of the index.

    Seeded from ``(BENCH_SEED, job_index)`` and *never* from numpy's global
    state: two bench runs draw identical per-job values (priorities,
    references) regardless of what other code did to ``np.random`` in
    between, which is what makes runs replayable.
    """
    return np.random.default_rng((BENCH_SEED, int(job_index)))


def _smoke_mode(args: argparse.Namespace) -> bool:
    return args.smoke or os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _branching_problem(family_name: str):
    """A robustness problem whose root needs splits (the BaB regime)."""
    family = MODEL_FAMILIES[family_name]
    dataset = family.build_dataset(0)
    network = family.build_network(dataset, 0)
    for reference_index in range(8):
        reference = dataset.inputs[reference_index].reshape(-1)
        label = int(network.predict(reference.reshape(1, -1))[0])
        for epsilon in (0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4):
            spec = local_robustness_spec(reference, epsilon,
                                         label, dataset.num_classes)
            outcome = ApproximateVerifier(network, spec,
                                          use_cache=False).evaluate()
            if outcome.needs_split:
                return network, spec, epsilon
    raise RuntimeError(f"no branching problem found for {family_name}")


def _make_workload(families, repeats: int):
    """``(network, spec)`` jobs: each family's problem, ``repeats`` times.

    Jobs are interleaved across families (A B A B …) the way concurrent
    clients would submit them, so cross-request reuse happens under
    realistic mixing rather than back-to-back repeats.
    """
    problems = [_branching_problem(name) + (name,) for name in families]
    # A tiny dense problem that resolves leaf LPs within a few nodes, so the
    # workload also exercises cross-request LP-cache reuse (the family
    # problems rarely reach fully decided leaves at smoke budgets).
    tiny_network = dense_network([6, 10, 8, 4], seed=1)
    tiny_reference = np.full(6, 0.5)
    tiny_label = int(tiny_network.predict(tiny_reference.reshape(1, -1))[0])
    tiny_spec = local_robustness_spec(tiny_reference, 0.1, tiny_label, 4)
    problems.append((tiny_network, tiny_spec, 0.1, "TINY"))
    jobs = []
    for repeat in range(repeats):
        for network, spec, epsilon, name in problems:
            jobs.append({"network": network, "spec": spec,
                         "family": name, "epsilon": epsilon,
                         "repeat": repeat})
    return jobs


def _percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


def _result_key(result) -> tuple:
    cex = result.counterexample
    return (result.status.value, result.nodes_explored, result.tree_size,
            None if cex is None else tuple(np.asarray(cex).round(12).tolist()))


def bench_sequential(jobs, max_nodes: int) -> Dict:
    """Every job cold, one at a time — the baseline the service must beat."""
    latencies = []
    keys = []
    start = time.perf_counter()
    for job in jobs:
        job_start = time.perf_counter()
        result = AbonnVerifier().verify(job["network"], job["spec"],
                                        Budget(max_nodes=max_nodes))
        latencies.append(time.perf_counter() - job_start)
        keys.append(_result_key(result))
    total = time.perf_counter() - start
    return {
        "total_seconds": total,
        "throughput_jobs_per_sec": len(jobs) / total if total else 0.0,
        "latency_p50": _percentile(latencies, 0.50),
        "latency_p95": _percentile(latencies, 0.95),
        "latency_p99": _percentile(latencies, 0.99),
        "result_keys": keys,
    }


def bench_service(jobs, max_nodes: int, pool_size: int,
                  sequential: Dict) -> Dict:
    """The same jobs through one service; equality-gated against cold runs."""
    service = VerificationService(ServiceConfig(pool_size=pool_size,
                                                rounds_per_slice=4))
    start = time.perf_counter()
    job_ids = [service.submit(job["network"], job["spec"],
                              budget=Budget(max_nodes=max_nodes))
               for job in jobs]
    results = {done.job_id: done for done in service.as_completed()}
    total = time.perf_counter() - start

    latencies = []
    lp_hits = lp_misses = bound_hits = bound_misses = 0
    verdicts_identical = True
    for index, job_id in enumerate(job_ids):
        done = results[job_id]
        assert done.ok, f"service job failed: {done.error}"
        latencies.append(done.latency_seconds)
        lp_hits += done.cache_stats.get("lp_hits", 0)
        lp_misses += done.cache_stats.get("lp_misses", 0)
        bound_hits += (done.cache_stats.get("bound_layer_hits", 0)
                       + done.cache_stats.get("bound_report_hits", 0))
        bound_misses += (done.cache_stats.get("bound_layer_misses", 0)
                         + done.cache_stats.get("bound_report_misses", 0))
        if _result_key(done.result) != sequential["result_keys"][index]:
            verdicts_identical = False
    stats = service.stats()
    throughput = len(jobs) / total if total else 0.0
    return {
        "pool_size": pool_size,
        "total_seconds": total,
        "throughput_jobs_per_sec": throughput,
        "throughput_speedup": (throughput
                               / sequential["throughput_jobs_per_sec"]
                               if sequential["throughput_jobs_per_sec"]
                               else 0.0),
        "latency_p50": _percentile(latencies, 0.50),
        "latency_p95": _percentile(latencies, 0.95),
        "latency_p99": _percentile(latencies, 0.99),
        "p95_latency_ratio": (_percentile(latencies, 0.95)
                              / sequential["latency_p95"]
                              if sequential["latency_p95"] else 0.0),
        "verdicts_identical": verdicts_identical,
        "lp_hits": lp_hits,
        "lp_hit_rate": lp_hits / (lp_hits + lp_misses)
        if lp_hits + lp_misses else 0.0,
        "bound_hits": bound_hits,
        "bound_hit_rate": bound_hits / (bound_hits + bound_misses)
        if bound_hits + bound_misses else 0.0,
        "slices": stats["slices"],
        "fingerprints": stats["pool"]["fingerprints"],
        "model_cache_hits": stats["pool"]["model_cache_hits"],
    }


def _wide_problem(index: int, smoke: bool):
    """One distinct wide dense problem (its own fingerprint and shard).

    Distinct fingerprints spread the jobs across every shard.  The
    reference comes from the problem's own :func:`_job_rng` stream, not
    global numpy state.
    """
    shape = [48, 96, 96, 6] if smoke else [96, 192, 192, 8]
    network = dense_network(shape, seed=100 + index)
    rng = _job_rng(index)
    reference = rng.uniform(0.35, 0.65, size=shape[0])
    label = int(network.predict(reference.reshape(1, -1))[0])
    spec = local_robustness_spec(reference, 0.04, label, shape[-1])
    return network, spec


def _transport_workload(smoke: bool):
    """Multi-fingerprint jobs with RNG-derived (replayable) priorities."""
    num_problems = 6 if smoke else 8
    repeats = 2 if smoke else 3
    problems = [_wide_problem(index, smoke) for index in range(num_problems)]
    jobs = []
    for repeat in range(repeats):
        for problem_index, (network, spec) in enumerate(problems):
            job_index = len(jobs)
            priority = int(_job_rng(job_index).integers(0, 5))
            jobs.append({"network": network, "spec": spec,
                         "family": f"WIDE_{problem_index}",
                         "priority": priority, "repeat": repeat})
    return jobs


def _transport_requests(jobs, max_nodes: int) -> List[JobRequest]:
    return [JobRequest(network=job["network"], spec=job["spec"],
                       budget=Budget(max_nodes=max_nodes),
                       priority=job["priority"])
            for job in jobs]


def bench_transport(jobs, max_nodes: int, transport: str,
                    sequential: Dict) -> Dict:
    """The multi-fingerprint workload on one transport, equality-gated."""
    requests = _transport_requests(jobs, max_nodes)
    start = time.perf_counter()
    service = VerificationService(
        ServiceConfig(pool_size=TRANSPORT_POOL_SIZE, rounds_per_slice=4,
                      transport=transport))
    with service:
        service.submit_many(requests)
        results = service.run_until_complete()
    total = time.perf_counter() - start

    verdicts_identical = True
    latencies = []
    job_retries = 0
    for index, done in enumerate(results):
        assert done.ok, f"{transport} job failed: {done.error}"
        latencies.append(done.latency_seconds)
        job_retries += max(0, done.attempts - 1)
        if _result_key(done.result) != sequential["result_keys"][index]:
            verdicts_identical = False
    throughput = len(jobs) / total if total else 0.0
    row = {
        "transport": transport,
        "pool_size": TRANSPORT_POOL_SIZE,
        "total_seconds": total,
        "throughput_jobs_per_sec": throughput,
        "latency_p50": _percentile(latencies, 0.50),
        "latency_p95": _percentile(latencies, 0.95),
        "verdicts_identical": verdicts_identical,
        "job_retries": job_retries,
    }
    if transport == "process":
        stats = service.stats()
        row["worker_crashes"] = stats["worker_crashes"]
        row["worker_restarts"] = stats["worker_restarts"]
        row["transport_downgrades"] = len(stats["transport_downgrades"])
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload for CI")
    args = parser.parse_args(argv)
    smoke = _smoke_mode(args)

    families = SMOKE_FAMILIES if smoke else FULL_FAMILIES
    repeats = 4 if smoke else 6
    max_nodes = 64 if smoke else 256

    # The leaf LP imports SciPy at its first solve, once per process.  Load
    # it before any timed row, so the first sequential job does not carry
    # that one-off cost and forked workers start with it loaded.
    importlib.import_module("scipy.optimize")
    jobs = _make_workload(families, repeats)
    sequential = bench_sequential(jobs, max_nodes)
    service_rows = [bench_service(jobs, max_nodes, pool_size, sequential)
                    for pool_size in POOL_SIZES]

    transport_jobs = _transport_workload(smoke)
    transport_max_nodes = 24 if smoke else 64
    transport_sequential = bench_sequential(transport_jobs,
                                            transport_max_nodes)
    # The transport rows are short (a tenth of a second in the smoke), so
    # they run alternately TRANSPORT_REPEATS times and the speedup is the
    # ratio of the median throughputs.
    transport_rows = [bench_transport(transport_jobs, transport_max_nodes,
                                      transport, transport_sequential)
                      for _ in range(TRANSPORT_REPEATS)
                      for transport in TRANSPORTS]
    median_tput = {transport: statistics.median(
        row["throughput_jobs_per_sec"] for row in transport_rows
        if row["transport"] == transport) for transport in TRANSPORTS}
    process_rows = [row for row in transport_rows if row["transport"] == "process"]

    summary = {
        "smoke": smoke,
        "jobs": len(jobs),
        # Acceptance: every multiplexed job's verdict/charges/counterexample
        # identical to its sequential cold run at every pool size; >1.5x
        # throughput over sequential on this shared-fingerprint workload
        # (the repeats run against warm caches) with nonzero cross-request
        # cache hits; p95 latency bounded relative to a cold run.
        "service_verdicts_identical": all(row["verdicts_identical"]
                                          for row in service_rows),
        "service_min_throughput_speedup": min(row["throughput_speedup"]
                                              for row in service_rows),
        "service_min_lp_hit_rate": min(row["lp_hit_rate"]
                                       for row in service_rows),
        "service_min_bound_hit_rate": min(row["bound_hit_rate"]
                                          for row in service_rows),
        "service_total_lp_hits": sum(row["lp_hits"] for row in service_rows),
        "service_total_bound_hits": sum(row["bound_hits"]
                                        for row in service_rows),
        "service_max_p95_latency_ratio": max(row["p95_latency_ratio"]
                                             for row in service_rows),
        # Transport acceptance: identical verdicts on both backends; the
        # process speedup over cooperative depends on the host's cores and
        # pays a pipe round-trip per slice.
        "transport_verdicts_identical": all(row["verdicts_identical"]
                                            for row in transport_rows),
        "process_speedup_over_cooperative": (
            median_tput["process"] / median_tput["cooperative"]
            if median_tput["cooperative"] else 0.0),
        # Robustness: a healthy bench run needs no retries and loses no
        # workers — nonzero values mean the run only passed by retrying.
        "total_job_retries": sum(row["job_retries"]
                                 for row in transport_rows),
        "process_worker_crashes": sum(row["worker_crashes"] for row in process_rows),
        "process_transport_downgrades": sum(row["transport_downgrades"]
                                            for row in process_rows),
        "cpu_count": os.cpu_count() or 1,
    }
    payload = {
        "benchmark": "verification_service",
        "max_nodes": max_nodes,
        "summary": summary,
        "sequential": {key: value for key, value in sequential.items()
                       if key != "result_keys"},
        "service": service_rows,
        "transports": transport_rows,
    }

    text = json.dumps(payload, indent=2)
    print(text)
    OUTPUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT_PATH.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
