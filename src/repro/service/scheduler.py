"""A verification service multiplexing jobs over a pool of workers.

The service turns the library's verifiers into a batch/streaming facility:
many ``(network, property, budget)`` jobs run interleaved, preempted only at
:class:`~repro.engine.driver.FrontierDriver` round boundaries (where the
verifiers' ``affordable_phases`` budget accounting already makes stopping
sound).  Two execution transports share one API, one scheduling policy
and one slice path (see ``docs/SERVICE.md#transports``): every slice goes
through the shard's *executor* (``repro.service.process_transport``), whose
``start_job``/``run_slice`` open and advance the job's run in one shared
implementation.

* ``"cooperative"`` — single-threaded and fully deterministic, on each
  shard's in-process executor: one job advances at a time, driven by the
  caller iterating :meth:`VerificationService.step` /
  :meth:`VerificationService.as_completed`, so the same submissions always
  produce the same interleaving.
* ``"process"`` — one supervised worker *process* per shard, driven by
  one shard thread in the parent: each shard thread drains its own queue
  under the identical per-worker policy, but its executor is a
  :class:`~repro.service.process_transport.ShardExecutor`, so each slice
  executes in the shard's process via a pipe round-trip.  Results stream
  in completion order (nondeterministic across shards);
  :meth:`VerificationService.run_until_complete` restores deterministic
  submission order at the collection point.
  Jobs whose payload does not pickle run on the shard's in-process
  executor instead.  The shard's cache bundle is handed over in the
  ``CacheBundle.save()`` payload format and shipped back at shutdown, so
  warmth survives the process boundary.  What the extra hop
  buys is *crash isolation*: a worker death — segfault, OOM kill, SIGKILL —
  detected by the supervisor, the worker restarts, and interrupted jobs are
  retried under the :class:`~repro.service.jobs.RetryPolicy`.

Either way a job's verdict, budget charges and counterexample are
byte-identical to an uninterrupted solo run — the caches shared between
jobs return exactly what recomputation would, so multiplexing buys *reuse*
(and, under the process transport, crash isolation), never races.

Scheduling policy
-----------------
* **Sharding**: ``worker = int(fingerprint[:8], 16) % pool_size`` — jobs on
  one problem land on one worker, keeping their cache traffic local and the
  per-worker interleaving deterministic.
* **Priority with bounded wait**: within a worker the highest-priority
  pending job runs next (ties: submission order), but any job that has
  waited ``max_wait_slices`` slices is served first (oldest submission
  first) — between two slices of a job at most ``max_wait_slices`` slices
  plus one per *older* pending job can go elsewhere, so an endless stream
  of high-priority submissions can never starve it.
* **Deadlines**: wall-clock from submission.  A job whose deadline passed
  before its run opened times out without setup; once open, the executor
  checks the deadline before every round, the first one after setup
  included, on every transport.  An expired job is interrupted via its
  run's ``interrupt()`` (TIMEOUT with the best bound so far; a run without
  one gets a TIMEOUT timed from submission) and marked
  ``deadline_exceeded``.
* **Fault isolation**: an exception escaping a job's setup or a round is
  captured as a structured :class:`~repro.service.jobs.JobError` on *that
  job's* result; the fingerprint's cache bundle is quarantined (discarded)
  in case a poisoned entry caused the failure, and every other job — on the
  same worker or not — continues untouched.  A failing job never takes its
  shard thread down.
* **Retry & supervision** (``docs/SERVICE.md#fault-model--supervision``):
  failures whose ``JobError.kind`` is in ``RetryPolicy.retryable_kinds``
  re-enqueue the job with deterministic exponential backoff instead of
  finalising it.  Under the process transport a dead worker surfaces as a
  synthetic ``"WorkerCrash"`` (retryable by default); a job that kills its
  worker ``max_attempts`` times is *poison* and fails without taking the
  service down.  A shard whose worker keeps dying beyond
  ``worker_crash_budget`` — or a host that cannot spawn processes at all —
  *degrades*: its executor is swapped for the in-process one, recorded in
  :meth:`VerificationService.stats` under ``transport_downgrades``.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Union

from repro.bounds.cache import DEFAULT_CACHE_SIZE, DEFAULT_LP_CACHE_SIZE
from repro.nn.network import Network
from repro.service.jobs import JobError, JobRequest, JobResult, RetryPolicy
from repro.service.pool import CacheBundle, FingerprintCachePool
from repro.service.process_transport import (
    InlineExecutor,
    ShardExecutor,
    UnpicklableJob,
    reply_error,
    timeout_result,
)
from repro.service.supervisor import ProcessTransportUnavailable, WorkerCrashed
from repro.specs.properties import Specification
from repro.utils.timing import Budget
from repro.utils.validation import require
from repro.verifiers.result import VerificationResult

#: Execution transports accepted by :attr:`ServiceConfig.transport`.
TRANSPORTS = ("cooperative", "process")

#: Seconds a worker sleeps between queue probes while every pending job on
#: it is inside a retry-backoff window.
_BACKOFF_POLL_SECONDS = 0.005

#: Fingerprint of a rejected job whose network cannot be lowered (and so
#: has no problem fingerprint); it is never run, cached or looked up.
_UNLOWERABLE_FINGERPRINT = "0" * 64


def _default_verifier_factory(bundle: CacheBundle):
    """Build the paper's verifier on the bundle's shared caches."""
    # Imported lazily: ``repro.service`` initialises before ``repro.core``
    # when the package is imported from scratch.
    from repro.core.abonn import AbonnVerifier
    return AbonnVerifier(lp_cache=bundle.lp_cache,
                         bound_cache=bundle.bound_cache)


@dataclass
class ServiceConfig:
    """Knobs of the verification service (see the module docstring)."""

    #: Number of workers jobs are sharded across (supervised processes when
    #: ``transport="process"``, cooperative queues otherwise).
    pool_size: int = 2
    #: Driver rounds one job advances per scheduling slice.
    rounds_per_slice: int = 4
    #: Slices a pending job may wait before it pre-empts higher priorities.
    max_wait_slices: int = 8
    #: Capacity of each fingerprint bundle's leaf-LP cache.
    lp_cache_size: int = DEFAULT_LP_CACHE_SIZE
    #: Capacity of each fingerprint bundle's bound cache.
    bound_cache_size: int = DEFAULT_CACHE_SIZE
    #: Execution transport: ``"cooperative"`` (caller-driven, deterministic
    #: interleaving) or ``"process"`` (one supervised worker process per
    #: shard).
    transport: str = "cooperative"
    #: When and how failed jobs are re-run (worker crashes by default).
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Worker-process deaths one shard tolerates before it degrades to
    #: in-process execution (process transport only).
    worker_crash_budget: int = 3
    #: Pin the multiprocessing start method (``"fork"``/``"spawn"``); ``None``
    #: prefers fork and falls back to spawn.
    process_start_method: Optional[str] = None
    #: Kill a worker process whose reply to one slice takes longer than this
    #: (hung-worker containment); ``None`` waits forever.
    slice_timeout_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        require(self.pool_size >= 1, "pool_size must be positive")
        require(self.rounds_per_slice >= 1, "rounds_per_slice must be positive")
        require(self.max_wait_slices >= 1, "max_wait_slices must be positive")
        require(self.transport in TRANSPORTS,
                f"transport must be one of {TRANSPORTS}, got {self.transport!r}")
        require(self.worker_crash_budget >= 1,
                "worker_crash_budget must be positive")
        require(self.slice_timeout_seconds is None
                or self.slice_timeout_seconds > 0,
                "slice_timeout_seconds must be positive when given")


@dataclass
class _Job:
    """Scheduler-internal job state."""

    job_id: str
    seq: int
    request: JobRequest
    fingerprint: str
    worker: int
    submitted_at: float
    deadline_at: Optional[float]
    wait: int = 0
    total_wait: int = 0
    slices: int = 0
    # Executions begun (runs opened on any executor).
    attempts: int = 0
    # Worker-process deaths attributed to this job (the poison gauge).
    crashes: int = 0
    # Earliest monotonic time the next attempt may start (retry backoff).
    not_before: float = 0.0
    # Pinned to the shard's inline executor (payload does not pickle).
    inline_only: bool = False
    cache_stats: Dict[str, int] = field(default_factory=dict)
    done: Optional[JobResult] = None


class _Worker:
    """One worker shard: a queue of jobs plus its synchronisation state.

    ``lock`` guards the job list; ``wake`` (a condition on the same lock)
    lets a process shard's thread sleep while its queue is empty and be
    woken by submissions or shutdown.  The cooperative transport takes the
    same lock — uncontended, so effectively free — which keeps one code
    path.

    ``executor`` runs the shard's jobs: its ``inline`` executor, or under
    the process transport a :class:`ShardExecutor` (``None`` until first
    use), which degradation swaps for ``inline``.  Jobs whose payload does
    not pickle always use ``inline``.  ``crashes`` counts the shard's
    worker deaths against ``worker_crash_budget``.
    """

    def __init__(self, index: int, spawn: bool) -> None:
        self.index = index
        self.jobs: List[_Job] = []
        self.lock = threading.RLock()
        self.wake = threading.Condition(self.lock)
        self.thread: Optional[threading.Thread] = None
        self.inline = InlineExecutor()
        self.executor: Union[ShardExecutor, InlineExecutor, None] = (
            None if spawn else self.inline)
        self.crashes: int = 0


class VerificationService:
    """Multiplex verification jobs over a pool of workers.

    Batch use::

        service = VerificationService(ServiceConfig(pool_size=4))
        ids = [service.submit(network, spec) for spec in specs]
        results = {r.job_id: r for r in service.as_completed()}

    ``run_until_complete()`` drains everything and returns results in
    submission order (on every transport); :meth:`stream_results` is the
    submit-and-stream convenience.  Under the default cooperative transport
    the caller drives the service by iterating :meth:`as_completed` (or
    calling :meth:`step` directly) and determinism follows; under
    ``transport="process"`` workers drive themselves, results stream in
    completion order, and the service should be
    :meth:`shutdown` (or used as a context manager) when done.
    :meth:`as_completed` supports one consumer at a time.
    """

    def __init__(self, config: Optional[ServiceConfig] = None,
                 verifier_factory: Optional[
                     Callable[[CacheBundle], object]] = None) -> None:
        self.config = config or ServiceConfig()
        self.verifier_factory = verifier_factory or _default_verifier_factory
        self.pool = FingerprintCachePool(self.config.lp_cache_size,
                                         self.config.bound_cache_size)
        self._workers = [_Worker(i, self.config.transport == "process")
                         for i in range(self.config.pool_size)]
        self._jobs: Dict[str, _Job] = {}
        self._lock = threading.RLock()
        self._next_seq = 0
        self._next_worker = 0
        self._slices = 0
        self._failed = 0
        self._rejected = 0
        self._retries = 0
        self._worker_crashes = 0
        self._worker_restarts = 0
        self._jobs_inline = 0
        self._downgrades: List[dict] = []
        self._results: "queue.SimpleQueue[JobResult]" = queue.SimpleQueue()
        self._pending_rejects: List[JobResult] = []
        self._listeners: List[Callable[[JobResult], None]] = []
        self._shutdown = False
        self._threads_started = False

    @property
    def self_driving(self) -> bool:
        """Whether workers drive themselves (the process transport)."""
        return self.config.transport == "process"

    # -- submission ------------------------------------------------------------
    def submit(self, network: Network, spec: Specification,
               budget: Optional[Budget] = None, priority: int = 0,
               deadline_seconds: Optional[float] = None,
               verifier_factory: Optional[
                   Callable[[CacheBundle], object]] = None,
               metadata: Optional[dict] = None) -> str:
        """Enqueue one job; returns its id (results carry it back)."""
        request = JobRequest(network=network, spec=spec, budget=budget,
                             priority=priority,
                             deadline_seconds=deadline_seconds,
                             verifier_factory=verifier_factory,
                             metadata=dict(metadata or {}))
        return self.submit_request(request)

    def submit_request(self, request: JobRequest) -> str:
        """Enqueue a prebuilt :class:`~repro.service.jobs.JobRequest`.

        Malformed requests (non-positive or NaN deadline or budget limits,
        or a network that does not lower, e.g. one with NaN or infinite
        parameters) are *rejected*, not raised: the job is accepted,
        immediately finalised with ``JobError(kind="InvalidRequest",
        stage="submit")`` and ``attempts == 0``, and flows through the
        normal completion stream — so a batch with one bad request still
        runs the other jobs and the caller sees the rejection where it sees
        every other failure.
        """
        error = self._validate_request(request)
        try:
            fingerprint = self.pool.fingerprint_for(request.network, request.spec)
        except ValueError as exc:  # the network does not lower, e.g. NaN weights
            fingerprint = _UNLOWERABLE_FINGERPRINT
            error = error or JobError("InvalidRequest", str(exc), "submit")
        now = time.monotonic()
        with self._lock:
            require(not self._shutdown,
                    "service is shut down; no new submissions")
            seq = self._next_seq
            self._next_seq += 1
            job = _Job(
                job_id=f"job-{seq}",
                seq=seq,
                request=request,
                fingerprint=fingerprint,
                worker=int(fingerprint[:8], 16) % self.config.pool_size,
                submitted_at=now,
                deadline_at=(None if request.deadline_seconds is None
                             or error is not None
                             else now + request.deadline_seconds),
            )
            self._jobs[job.job_id] = job
        if error is not None:
            return self._reject(job, error)
        worker = self._workers[job.worker]
        with worker.wake:
            worker.jobs.append(job)
            worker.wake.notify()
        if self.self_driving:
            self._ensure_threads()
        return job.job_id

    def submit_many(self, requests: Iterable[JobRequest]) -> List[str]:
        """Enqueue a batch of requests; returns their ids in order."""
        return [self.submit_request(request) for request in requests]

    # -- scheduling ------------------------------------------------------------
    def has_pending(self) -> bool:
        """Whether any submitted job has not finished yet."""
        for worker in self._workers:
            with worker.lock:
                if worker.jobs:
                    return True
        return False

    def step(self) -> Optional[JobResult]:
        """Run one cooperative scheduling slice; the finished result, if any.

        Picks the next worker (round-robin over workers with pending jobs),
        selects that worker's next job under the priority/bounded-wait
        policy, and advances it up to ``rounds_per_slice`` driver rounds.
        Returns ``None`` while the job needs more slices (or no work is
        pending, or every pending job sits in a retry-backoff window).
        Only the cooperative transport is caller-stepped; under
        ``transport="process"`` the workers drive themselves and this
        method raises.
        """
        require(not self.self_driving,
                "step() drives the cooperative transport; process workers "
                "run autonomously — iterate as_completed() instead")
        worker = self._pick_worker()
        if worker is None:
            if self.has_pending():
                # Every pending job is backing off; don't spin hot.
                time.sleep(_BACKOFF_POLL_SECONDS)
            return None
        with worker.lock:
            job = self._pick_job(worker)
            if job is None:  # raced into a backoff window
                return None
            self._charge_waits(worker, job)
        return self._run_slice(worker, job)

    def as_completed(self) -> Iterator[JobResult]:
        """Drive/drain the service, yielding each result as it finishes.

        Cooperative: runs slices inline, deterministically.  Process:
        blocks on the workers' completion stream; the yield order is
        completion order, which is *not* deterministic across workers (use
        :meth:`run_until_complete` for submission-ordered collection).
        """
        if self.self_driving:
            return self._as_completed_process()
        return self._as_completed_cooperative()

    def run_until_complete(self) -> List[JobResult]:
        """Drain every pending job; results in submission order.

        The deterministic collection point shared by all transports:
        whatever order jobs *finish* in, the returned list is ordered by
        submission, so batch callers observe identical output across
        transports.
        """
        for _ in self.as_completed():
            pass
        with self._lock:
            done = [(job.seq, job.done) for job in self._jobs.values()
                    if job.done is not None]
        return [result for _, result in sorted(done, key=lambda pair: pair[0])]

    def stream_results(self,
                       requests: Iterable[JobRequest]) -> Iterator[JobResult]:
        """Submit ``requests`` and stream results in completion order.

        Any jobs already pending when the stream starts are driven (and
        yielded) too — the stream simply drains the whole service.
        """
        self.submit_many(requests)
        return self.as_completed()

    # -- lifecycle -------------------------------------------------------------
    def add_completion_listener(self,
                                listener: Callable[[JobResult], None]) -> None:
        """Register ``listener`` to be called once per finished job.

        Under the process transport listeners run on the shard thread that
        finished the job; they must be quick and must not raise.
        """
        self._listeners.append(listener)

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting submissions and wind the workers down.

        Pending jobs are *drained*, not dropped: workers finish their queues
        before exiting, so a shutdown after ``run_until_complete`` is
        instant while a premature one still honours every accepted job.
        Worker processes ship their warm cache bundles back into the pool
        before stopping.  Idempotent; a no-op on the cooperative transport
        apart from rejecting further submissions.  With ``wait`` the
        calling thread joins the workers.
        """
        with self._lock:
            self._shutdown = True
        for worker in self._workers:
            with worker.wake:
                worker.wake.notify_all()
        if wait and self.self_driving:
            for worker in self._workers:
                if worker.thread is not None:
                    worker.thread.join()

    def __enter__(self) -> "VerificationService":
        """Context-manager entry: the service itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: shut the transport down (draining)."""
        self.shutdown(wait=True)

    # -- results & stats -------------------------------------------------------
    def result(self, job_id: str) -> Optional[JobResult]:
        """The finished result of ``job_id`` (``None`` while running)."""
        with self._lock:
            return self._jobs[job_id].done

    def stats(self) -> dict:
        """Service-level counters: jobs, slices, robustness, pool stats."""
        with self._lock:
            done = sum(1 for job in self._jobs.values()
                       if job.done is not None)
            submitted = len(self._jobs)
            slices, failed = self._slices, self._failed
            rejected, retries = self._rejected, self._retries
            crashes, restarts = self._worker_crashes, self._worker_restarts
            inline = self._jobs_inline
            downgrades = [dict(entry) for entry in self._downgrades]
        return {
            "jobs_submitted": submitted,
            "jobs_completed": done,
            "jobs_failed": failed,
            "jobs_rejected": rejected,
            "jobs_inline": inline,
            "retries": retries,
            "worker_crashes": crashes,
            "worker_restarts": restarts,
            "transport_downgrades": downgrades,
            "slices": slices,
            "pool_size": self.config.pool_size,
            "transport": self.config.transport,
            "pool": self.pool.stats(),
        }

    # -- cache persistence -----------------------------------------------------
    def save_caches(self, directory: Union[str, Path]) -> List[Path]:
        """Persist every fingerprint bundle to ``directory`` (see pool docs)."""
        return self.pool.save_bundles(directory)

    def load_caches(self, directory: Union[str, Path]) -> int:
        """Warm-start the pool from a :meth:`save_caches` directory."""
        return self.pool.load_bundles(directory)

    # -- submit validation -----------------------------------------------------
    def _validate_request(self, request: JobRequest) -> Optional[JobError]:
        """Structured rejection for malformed requests (``None`` when fine).

        A limit must be positive when given; ``inf`` means "no limit".  A
        NaN limit is rejected: it passes every ``<= 0`` test, and a NaN node
        limit leaves the driver unable to afford a child while never
        counting as exhausted, so the job would never finish.
        """
        budget = request.budget
        limits = (("deadline_seconds", request.deadline_seconds),
                  ("budget.max_nodes", budget.max_nodes if budget else None),
                  ("budget.max_seconds", budget.max_seconds if budget else None))
        for name, value in limits:
            if value is not None and not value > 0:
                return JobError(
                    "InvalidRequest",
                    f"{name} must be positive when given, got {value!r}",
                    "submit")
        return None

    def _reject(self, job: _Job, error: JobError) -> str:
        """Finalise a never-run job with a submit-stage error; its id."""
        done = JobResult(job_id=job.job_id, fingerprint=job.fingerprint,
                         error=error, attempts=0)
        with self._lock:
            job.done = done
            self._failed += 1
            self._rejected += 1
            if self.self_driving:
                self._results.put(done)
            else:
                self._pending_rejects.append(done)
        for listener in list(self._listeners):
            listener(done)
        return job.job_id

    # -- cooperative drive -----------------------------------------------------
    def _as_completed_cooperative(self) -> Iterator[JobResult]:
        while True:
            with self._lock:
                rejects, self._pending_rejects = self._pending_rejects, []
            for done in rejects:
                yield done
            if not self.has_pending():
                return
            finished = self.step()
            if finished is not None:
                yield finished

    def _pick_worker(self) -> Optional[_Worker]:
        for offset in range(len(self._workers)):
            worker = self._workers[(self._next_worker + offset)
                                   % len(self._workers)]
            with worker.lock:
                if worker.jobs and self._pick_job(worker) is not None:
                    self._next_worker = (worker.index + 1) % len(self._workers)  # lint: disable=lock-discipline - dispatcher-confined round-robin cursor; only the single driving thread calls _pick_worker
                    return worker
        return None

    # -- process drive ---------------------------------------------------------
    def _ensure_threads(self) -> None:
        if self._threads_started:
            return
        with self._lock:
            if self._threads_started:
                return
            for worker in self._workers:
                thread = threading.Thread(
                    target=self._worker_loop, args=(worker,),
                    name=f"verification-worker-{worker.index}", daemon=True)
                worker.thread = thread
                thread.start()
            self._threads_started = True

    def _worker_loop(self, worker: _Worker) -> None:
        """Drain ``worker``'s queue under the per-worker policy."""
        try:
            while True:
                with worker.wake:
                    job: Optional[_Job] = None
                    while job is None:
                        if not worker.jobs:
                            if self._shutdown:
                                return
                            worker.wake.wait()
                            continue
                        job = self._pick_job(worker)
                        if job is None:
                            # Everything pending is in a retry-backoff
                            # window; poll until a job becomes runnable.
                            worker.wake.wait(_BACKOFF_POLL_SECONDS)
                    self._charge_waits(worker, job)
                # The slice itself runs without the worker lock so
                # submissions (and has_pending probes) never wait on a
                # verification round.
                self._run_slice(worker, job)
        finally:
            self._release_executor(worker)

    def _as_completed_process(self) -> Iterator[JobResult]:
        self._ensure_threads()
        while True:
            try:
                yield self._results.get_nowait()
                continue
            except queue.Empty:
                pass
            if not self.has_pending():
                # Finishing publishes to the queue *before* the job leaves
                # its worker queue (one critical section), so an empty pool
                # plus an empty results queue really means: all done.
                try:
                    yield self._results.get_nowait()
                    continue
                except queue.Empty:
                    return
            try:
                yield self._results.get(timeout=0.05)
            except queue.Empty:
                continue

    # -- shared internals ------------------------------------------------------
    def _charge_waits(self, worker: _Worker, job: _Job) -> None:
        """Account one waiting slice to every pending job except ``job``."""
        for other in worker.jobs:
            if other is not job:
                other.wait += 1
                other.total_wait += 1
        job.wait = 0

    def _pick_job(self, worker: _Worker) -> Optional[_Job]:
        # Starved jobs are served in submission order, *not* largest-wait
        # first: under a continuous stream of submissions every pending job
        # is eventually starved, and largest-wait-first then degenerates to
        # round-robin over an ever-growing queue — the oldest job's share of
        # service shrinks toward zero.  FIFO over the starved set bounds any
        # job's gap between slices by max_wait_slices plus one slice per
        # *older* pending job, a set that never grows after submission.
        #
        # Jobs inside a retry-backoff window (``not_before`` in the future)
        # are invisible to selection; without retries the filter is a no-op,
        # so the policy — and the conformance properties — are unchanged.
        now = time.monotonic()
        runnable = [job for job in worker.jobs if job.not_before <= now]
        if not runnable:
            return None
        starved = [job for job in runnable
                   if job.wait >= self.config.max_wait_slices]
        if starved:
            return min(starved, key=lambda job: job.seq)
        return max(runnable,
                   key=lambda job: (job.request.priority, -job.seq))

    def _run_slice(self, worker: _Worker, job: _Job) -> Optional[JobResult]:
        """Advance ``job`` one slice on its executor, opening its run first.

        The one slice path of every transport.  A job whose deadline passed
        before its run opened times out without setup; once open, the
        executor checks the deadline before every round.
        """
        with self._lock:
            self._slices += 1
        job.slices += 1
        executor = (worker.inline if job.inline_only
                    else self._shard_executor(worker))
        if job.done is not None:  # failed as the shard degraded
            return job.done
        try:
            if job.job_id not in executor.runs:
                if (job.deadline_at is not None
                        and time.monotonic() >= job.deadline_at):
                    return self._complete(
                        worker, job, timeout_result(job.submitted_at), True)
                job.attempts += 1
                factory = job.request.verifier_factory or self.verifier_factory
                try:
                    reply = executor.start_job(job.job_id, job.fingerprint,
                                               job.request, factory, self.pool)
                except UnpicklableJob:
                    # Not a failure: this job's payload cannot cross the
                    # pipe, so it runs in-process while picklable jobs on
                    # the shard keep their isolation.
                    job.inline_only = True
                    with self._lock:
                        self._jobs_inline += 1
                    executor = worker.inline
                    reply = executor.start_job(job.job_id, job.fingerprint,
                                               job.request, factory, self.pool)
                self._merge_delta(job, reply)
                if reply["op"] == "error":
                    return self._fail(worker, job, reply_error(reply))
            reply = executor.run_slice(job.job_id,
                                       self.config.rounds_per_slice,
                                       job.deadline_at, job.submitted_at)
        except WorkerCrashed as exc:
            return self._handle_crash(worker, job, exc)
        self._merge_delta(job, reply)
        if reply["op"] == "error":
            return self._fail(worker, job, reply_error(reply))
        if reply["op"] == "done":
            return self._complete(worker, job, reply["result"],
                                  reply["deadline_exceeded"])
        return None

    @staticmethod
    def _merge_delta(job: _Job, reply: dict) -> None:
        """Fold an executor reply's cache delta into the job's counters."""
        for key, value in reply["cache_delta"].items():
            job.cache_stats[key] = job.cache_stats.get(key, 0) + value

    # -- process supervision ---------------------------------------------------
    def _shard_executor(
            self, worker: _Worker) -> Union[ShardExecutor, InlineExecutor]:
        """The shard's executor, spawning or recovering its worker process.

        A worker found dead *between* slices (no request observed the
        death) still counts against the shard's crash budget, but
        implicates no job: its open runs are simply gone and restart from
        scratch on the restarted (or inline) executor.
        """
        if worker.executor is None:
            try:
                worker.executor = ShardExecutor(
                    worker.index, self.config.lp_cache_size,
                    self.config.bound_cache_size,
                    start_method=self.config.process_start_method,
                    slice_timeout=self.config.slice_timeout_seconds)
            except ProcessTransportUnavailable as exc:
                self._degrade(worker, f"process spawn unavailable: {exc}")
        elif worker.executor is not worker.inline \
                and not worker.executor.alive():
            worker.crashes += 1
            with self._lock:
                self._worker_crashes += 1
            self._recover(worker)
        return worker.executor

    def _recover(self, worker: _Worker) -> None:
        """Restart the shard's dead worker, or degrade past the crash budget.

        The restarted executor holds no open runs, so every job restarts
        from scratch — never resuming partial state is what keeps a
        retried job's trajectory identical to an uninterrupted run.
        """
        if worker.crashes > self.config.worker_crash_budget:
            self._degrade(worker, "worker crash budget exceeded")
            return
        try:
            worker.executor.restart()
        except ProcessTransportUnavailable as exc:
            self._degrade(worker, f"worker restart failed: {exc}")
            return
        with self._lock:
            self._worker_restarts += 1

    def _handle_crash(self, worker: _Worker, job: _Job,
                      exc: WorkerCrashed) -> Optional[JobResult]:
        """A worker died under ``job``: retry, poison-fail, restart/degrade."""
        worker.crashes += 1
        job.crashes += 1
        with self._lock:
            self._worker_crashes += 1
        retry = self.config.retry
        outcome: Optional[JobResult] = None
        if job.crashes >= retry.max_attempts \
                or not retry.retryable("WorkerCrash"):
            # Poison job: it keeps killing its worker, so it fails — the
            # service, the shard and every other job keep going.
            error = JobError(
                "WorkerCrash",
                f"worker process died executing this job "
                f"{job.crashes} time(s) (last: {exc})", "round")
            outcome = self._fail(worker, job, error, allow_retry=False)
        else:
            with self._lock:
                self._retries += 1
            job.not_before = (time.monotonic()
                              + retry.delay_seconds(job.job_id, job.crashes))
        self._recover(worker)
        return outcome

    def _degrade(self, worker: _Worker, reason: str) -> None:
        """Swap the shard's executor for its inline one, permanently.

        The degradation ladder's middle rung: the shard thread keeps
        draining its queue under the same policy, just without the process
        boundary.  The stopped worker's open runs are forgotten — the
        inline executor holds none, so their jobs restart from scratch.
        Jobs implicated in worker crashes are failed instead of run inline
        — a job that kills its worker would kill the host — and the
        downgrade is recorded in :meth:`VerificationService.stats`.
        """
        with self._lock:
            self._downgrades.append({"worker": worker.index,
                                     "reason": reason})
        executor, worker.executor = worker.executor, worker.inline
        if executor is not None:
            executor.stop(self.pool)
        with worker.lock:
            implicated = [job for job in worker.jobs if job.crashes > 0]
        for job in implicated:
            self._fail(worker, job, JobError(
                "WorkerCrash",
                f"shard degraded to in-process execution ({reason}); job "
                f"implicated in {job.crashes} worker crash(es)", "round"),
                allow_retry=False)

    def _release_executor(self, worker: _Worker) -> None:
        """Stop the shard's executor, reclaiming a worker's warm bundles."""
        if worker.executor is not None:
            worker.executor.stop(self.pool)

    # -- completion ------------------------------------------------------------
    def _finish_job(self, worker: _Worker, job: _Job,
                    done: JobResult) -> JobResult:
        # Removal and publication form one critical section: once a worker
        # queue is observed empty, every finished result is already in the
        # completion stream (the process as_completed termination test).
        with worker.lock:
            worker.jobs.remove(job)
            job.done = done
            if self.self_driving:
                self._results.put(done)
        for listener in list(self._listeners):
            listener(done)
        return done

    def _complete(self, worker: _Worker, job: _Job,
                  result: VerificationResult,
                  deadline_exceeded: bool) -> JobResult:
        done = JobResult(
            job_id=job.job_id, fingerprint=job.fingerprint, result=result,
            slices=job.slices, wait_slices=job.total_wait,
            latency_seconds=time.monotonic() - job.submitted_at,
            deadline_exceeded=deadline_exceeded,
            attempts=max(job.attempts, 1), worker_crashes=job.crashes,
            cache_stats=dict(job.cache_stats))
        result.extras["service"] = {
            "job_id": done.job_id,
            "fingerprint": done.fingerprint,
            "slices": done.slices,
            "wait_slices": done.wait_slices,
            "deadline_exceeded": done.deadline_exceeded,
            "attempts": done.attempts,
            "worker_crashes": done.worker_crashes,
            "cache_stats": done.cache_stats,
        }
        return self._finish_job(worker, job, done)

    def _fail(self, worker: _Worker, job: _Job, error: JobError,
              allow_retry: bool = True) -> Optional[JobResult]:
        retry = self.config.retry
        self.pool.discard(job.fingerprint)
        if worker.executor is not None:
            worker.executor.discard(job.fingerprint)
        if (allow_retry and retry.retryable(error.kind)
                and job.attempts < retry.max_attempts):
            # Re-enqueue instead of finalising: the job stays in the
            # worker's queue and becomes runnable after its backoff.
            with self._lock:
                self._retries += 1
            job.not_before = (time.monotonic()
                              + retry.delay_seconds(job.job_id, job.attempts))
            return None
        with self._lock:
            self._failed += 1
        done = JobResult(
            job_id=job.job_id, fingerprint=job.fingerprint, error=error,
            slices=job.slices, wait_slices=job.total_wait,
            latency_seconds=time.monotonic() - job.submitted_at,
            attempts=max(job.attempts, 1), worker_crashes=job.crashes,
            cache_stats=dict(job.cache_stats))
        return self._finish_job(worker, job, done)
