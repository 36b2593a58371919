"""The four workloads: their inputs, set-up and one measured pass each.

Every workload draws its problems from the trained suite
(``generate_suite``) at the fixed :data:`SUITE_SEED`.  Which networks get
trained and which ε each instance gets decide nearly all of the work, and
across suite seeds they move throughput by 2x and median latency by 6x —
far more than any change the benchmark is meant to resolve.  The
benchmark's own ``--seed`` therefore varies what a user varies against a
fixed model zoo: the order problems arrive in, the service jobs'
priorities and interleaving, and the sample points of the correctness
check.

All budgets are node budgets, so verdicts, node counts and tree shapes are
deterministic and wall time is the only thing that varies; the wall-clock
limit is a hang guard far above any instance.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import hostspeed
from perfbench.metrics import Record
from perfbench.tracer import Tracer
from repro.baselines.alphabeta_crown import AlphaBetaCrownVerifier
from repro.core.abonn import AbonnVerifier
from repro.core.config import AbonnConfig
from repro.experiments.suite import SuiteConfig, generate_suite
from repro.nn.network import Network
from repro.nn.zoo import clear_model_cache
from repro.service import ServiceConfig, VerificationService
from repro.specs.properties import Specification
from repro.utils.timing import Budget

#: Seed of the trained suite every workload draws from (see module docstring).
SUITE_SEED = 0

#: Wall-clock limit per problem; no instance comes near it, so it only
#: turns a hang into a TIMEOUT verdict (which the check then flags).
HANG_GUARD_SECONDS = 60.0

#: ε values per reference input.  Bracketing a reference's ε range is most
#: of the set-up cost, so four per reference (the default is two) halves
#: the references and keeps three set-ups per run affordable.
EPSILONS_PER_REFERENCE = 4

#: ``frontier_size`` of the closed-loop verifiers.
FRONTIER_SIZE = 8

clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    """One set of inputs: which families, how many instances, which system."""

    name: str
    #: ``"abonn"`` / ``"abcrown"`` (closed loop, one instance at a time) or
    #: ``"service"`` (one burst of jobs into the process transport).
    system: str
    families: Tuple[str, ...]
    instances_per_family: int
    max_nodes: int
    #: Passes an end-to-end run makes at least; rates are their median.
    min_passes: int = 3


# Sizes keep one pass at 3-7 s on the reference host, so a whole run (three
# set-ups plus the minimum passes) takes 15-30 s on any workload, and each
# run pools at least 150 attempts for the latency percentiles.  αβ-CROWN takes
# 11 instances per family so its median falls inside one family's cluster
# of latencies rather than in the gap between two.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("abonn-dense", "abonn", ("MNIST_L2", "MNIST_L4"), 34, 800),
    Workload("abonn-conv", "abonn", ("CIFAR_BASE", "CIFAR_WIDE", "CIFAR_DEEP"), 17, 40),
    Workload("abcrown-suite", "abcrown",
             ("MNIST_L2", "MNIST_L4", "CIFAR_BASE", "CIFAR_WIDE", "CIFAR_DEEP"), 11, 60),
    # A burst spreads over two worker processes whose speed the parent's probe
    # sees only in part, so the median needs more of (shorter) bursts.
    Workload("service-burst", "service", ("MNIST_L4", "CIFAR_BASE", "CIFAR_WIDE"), 17, 40,
             min_passes=5),
)}


@dataclass(frozen=True)
class Problem:
    """One suite instance, as submitted: its key, network and specification."""

    key: str
    network: Network
    spec: Specification
    priority: int = 0


@dataclass
class PassResult:
    """One pass: its records, its window on :data:`clock`, the seconds
    measured in it (raw, and in reference-host seconds — see
    :mod:`perfbench.hostspeed`) and, for the service, the final ``stats()``."""

    records: List[Record]
    start: float
    end: float
    seconds: float
    scaled_seconds: float
    service_stats: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class Inputs:
    """A workload's generated inputs: the problems of one pass, in order."""

    workload: Workload
    problems: List[Problem]

    def lookup(self) -> Dict[str, tuple]:
        """``key -> (network, spec)`` for the correctness check."""
        return {problem.key: (problem.network, problem.spec) for problem in self.problems}


def service_config() -> ServiceConfig:
    """Process transport with at most one worker process per available CPU."""
    return ServiceConfig(transport="process",
                         pool_size=max(1, min(2, len(os.sched_getaffinity(0)))))


def budget(workload: Workload) -> Budget:
    return Budget(max_nodes=workload.max_nodes, max_seconds=HANG_GUARD_SECONDS)


def setup(workload: Workload, seed: int) -> Inputs:
    """Train the suite's networks, bracket its instances and order the pass.

    The model cache is cleared first so every set-up trains from scratch.
    The service workload submits every problem twice; the two copies and
    all problems are interleaved in one seeded order, each job with a
    seeded priority in ``{0, 1, 2}``.  Its set-up also builds (and shuts
    down) one service, the construction cost a user pays per service.
    """
    clear_model_cache()
    suite = generate_suite(SuiteConfig(families=workload.families,
                                       instances_per_family=workload.instances_per_family,
                                       epsilons_per_reference=EPSILONS_PER_REFERENCE,
                                       seed=SUITE_SEED))
    rng = np.random.default_rng(seed)
    problems = [Problem(instance.instance_id, suite.network_for(instance), instance.spec)
                for instance in suite.instances]
    if workload.system == "service":
        problems = [Problem(problem.key, problem.network, problem.spec, int(priority))
                    for problem, priority in zip(problems * 2,
                                                 rng.integers(0, 3, 2 * len(problems)))]
        VerificationService(service_config()).shutdown()
    order = rng.permutation(len(problems))
    return Inputs(workload, [problems[index] for index in order])


def make_verifier(workload: Workload):
    if workload.system == "abonn":
        return AbonnVerifier(AbonnConfig(frontier_size=FRONTIER_SIZE))
    return AlphaBetaCrownVerifier(frontier_size=FRONTIER_SIZE)


def _root_span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def closed_loop_pass(inputs: Inputs, tracer: Optional[Tracer] = None) -> PassResult:
    """Verify every problem once, one at a time, probing the host before each.

    The measured seconds are the sum of the problems' latencies, so the
    interleaved probes do not count.
    """
    workload = inputs.workload
    verifier = make_verifier(workload)
    records = []
    probes = []
    start = clock()
    for problem in inputs.problems:
        probes.append(hostspeed.probe())
        with _root_span(tracer, "problem"):
            began = clock()
            try:
                result, error = verifier.verify(problem.network, problem.spec,
                                                budget(workload)), None
            except Exception as exc:  # noqa: BLE001 - a raising verifier is a counted failure
                result, error = None, f"{type(exc).__name__}: {exc}"
            records.append(Record(problem.key, clock() - began, result, error))
    end = clock()
    probes.append(hostspeed.probe())
    for record, scale in zip(records, hostspeed.local_factors(probes)):
        record.scale = scale
    return PassResult(records, start, end, sum(record.latency for record in records),
                      sum(record.latency * record.scale for record in records))


def service_pass(inputs: Inputs, tracer: Optional[Tracer] = None) -> PassResult:
    """Submit every job at once from this thread and collect the results.

    Each job is timed from its own submission to the moment its result is
    handed back; the pass's window runs from the first submission to the
    last result, so the service's shutdown is not measured.  The host is
    probed before and after the burst and once per collected result (which
    delays reading the next result by under a millisecond), and the median
    probe scales the pass.
    """
    workload = inputs.workload
    probes = hostspeed.probes()
    service = VerificationService(service_config())
    submitted = {}
    records = []
    try:
        with _root_span(tracer, "burst"):
            start = clock()
            for problem in inputs.problems:
                at = clock()
                job_id = service.submit(problem.network, problem.spec, budget=budget(workload),
                                        priority=problem.priority)
                submitted[job_id] = (problem, at)
            for done in service.as_completed():
                problem, at = submitted[done.job_id]
                error = (None if done.ok else
                         f"JobError {done.error.kind} at {done.error.stage}: {done.error.message}")
                records.append(Record(problem.key, clock() - at, done.result, error,
                                      job_id=done.job_id, submitted=at,
                                      cache_stats=dict(done.cache_stats)))
                probes.append(hostspeed.probe())
            end = clock()
    finally:
        service.shutdown(wait=True)
    probes += hostspeed.probes()
    scale = hostspeed.median_factor(probes)
    for record in records:
        record.scale = scale
    return PassResult(records, start, end, end - start, (end - start) * scale,
                      service.stats())


def run_pass(inputs: Inputs, tracer: Optional[Tracer] = None) -> PassResult:
    """One pass over the workload's problems."""
    if inputs.workload.system == "service":
        return service_pass(inputs, tracer)
    return closed_loop_pass(inputs, tracer)
