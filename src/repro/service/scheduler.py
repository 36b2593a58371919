"""A verification service multiplexing jobs over a pool of workers.

The service turns the library's verifiers into a batch/streaming facility:
many ``(network, property, budget)`` jobs run interleaved, preempted only at
:class:`~repro.engine.driver.FrontierDriver` round boundaries (where the
verifiers' ``affordable_phases`` budget accounting already makes stopping
sound).  Two execution transports share one API, one scheduling policy,
one slice path and one caller-driven loop (see
``docs/SERVICE.md#transports``): every slice goes through the shard's
*executor* (``repro.service.process_transport``), whose
``start_job``/``run_slice`` open and advance the job's run in one shared
implementation, and the caller drives everything by iterating
:meth:`VerificationService.step` / :meth:`VerificationService.as_completed`.

* ``"cooperative"`` — fully deterministic, on each shard's in-process
  executor: each :meth:`~VerificationService.step` advances one job by one
  slice, round-robin over the shards, so the same submissions always
  produce the same interleaving.
* ``"process"`` — one supervised worker *process* per shard, whose
  executor is a :class:`~repro.service.process_transport.ShardExecutor`.
  Each step posts the next slice to every idle shard, then one
  ``multiprocessing.connection.wait`` over the shards' pipes and process
  sentinels collects whichever replies arrive first; its timeout is the
  nearest slice-timeout expiry, retry ``not_before`` or deadline.  Each
  slice executes in the shard's process, under the identical per-worker
  policy.  Results stream in completion order (nondeterministic across
  shards); :meth:`VerificationService.run_until_complete` restores
  deterministic submission order at the collection point.
  Jobs whose payload does not pickle run on the shard's in-process
  executor instead, in the caller's thread.  The shard's cache bundle is
  handed over as a ``CacheBundle.to_payload()`` dict with the
  fingerprint's first start; what the worker adds to it stays in the
  worker and is not shipped back at shutdown.  What the extra hop buys is
  *crash isolation*: a worker death — segfault, OOM kill, SIGKILL — is
  detected by the supervisor, the worker restarts, and interrupted jobs
  are retried under the :class:`~repro.service.jobs.RetryPolicy`.

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
  same worker or not — continues untouched.  A failing job never takes
  the loop down.
* **Retry & supervision** (``docs/SERVICE.md#fault-model--supervision``):
  failures whose ``JobError.kind`` is in ``RetryPolicy.retryable_kinds``
  re-enqueue the job with deterministic exponential backoff instead of
  finalising it; a job whose deadline passes while it backs off times out
  then.  Under the process transport a dead worker surfaces as a
  synthetic ``"WorkerCrash"`` (retryable by default); a job that kills its
  worker ``max_attempts`` times is *poison* and fails without taking the
  service down.  A shard whose worker keeps dying beyond
  ``worker_crash_budget`` — or a host that cannot spawn processes at all —
  *degrades*: its executor is swapped for the in-process one, recorded in
  :meth:`VerificationService.stats` under ``transport_downgrades``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import (Callable, Deque, Dict, Iterable, Iterator, List, Optional,
                    Tuple, Union)

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


Executor = Union[ShardExecutor, InlineExecutor]


class _Worker:
    """One worker shard: its queue of jobs and its executors.

    ``executor`` runs the shard's jobs: its ``inline`` executor, or under
    the process transport a :class:`ShardExecutor` (``None`` until first
    use), which degradation swaps for ``inline``.  Jobs whose payload does
    not pickle always use ``inline``.  ``busy`` is the job and executor of
    the request posted to the shard's worker process and not yet answered;
    the shard takes no other job meanwhile.  ``crashes`` counts the shard's
    worker deaths against ``worker_crash_budget``.
    """

    def __init__(self, index: int, spawn: bool) -> None:
        self.index = index
        self.jobs: List[_Job] = []
        self.inline = InlineExecutor()
        self.executor: Optional[Executor] = None if spawn else self.inline
        self.busy: Optional[Tuple[_Job, Executor]] = None
        self.crashes: int = 0


class VerificationService:
    """Multiplex verification jobs over a pool of workers.

    Batch use::

        service = VerificationService(ServiceConfig(pool_size=4))
        ids = [service.submit(network, spec) for spec in specs]
        results = {r.job_id: r for r in service.as_completed()}

    ``run_until_complete()`` drains everything and returns results in
    submission order (on every transport); :meth:`stream_results` is the
    submit-and-stream convenience.  The caller drives the service on every
    transport, by iterating :meth:`as_completed` (or calling :meth:`step`
    directly); nothing runs in the background.  Under the cooperative
    transport determinism follows; under ``transport="process"`` results
    stream in completion order, and the service should be
    :meth:`shutdown` (or used as a context manager) when done, which
    releases the worker processes.
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
        # Finished results step() has not handed to the caller yet.
        self._finished: Deque[JobResult] = deque()
        self._listeners: List[Callable[[JobResult], None]] = []
        self._shutdown = False

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
        require(not self._shutdown, "service is shut down; no new submissions")
        error = self._validate_request(request)
        try:
            fingerprint = self.pool.fingerprint_for(request.network, request.spec)
        except ValueError as exc:  # the network does not lower, e.g. NaN weights
            fingerprint = _UNLOWERABLE_FINGERPRINT
            error = error or JobError("InvalidRequest", str(exc), "submit")
        now = time.monotonic()
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
            self._failed += 1
            self._rejected += 1
            self._finish(job, JobResult(job_id=job.job_id,
                                        fingerprint=job.fingerprint,
                                        error=error, attempts=0))
        else:
            self._workers[job.worker].jobs.append(job)
        return job.job_id

    def submit_many(self, requests: Iterable[JobRequest]) -> List[str]:
        """Enqueue a batch of requests; returns their ids in order."""
        return [self.submit_request(request) for request in requests]

    # -- scheduling ------------------------------------------------------------
    def has_pending(self) -> bool:
        """Whether the service still owes the caller a result.

        True while a submitted job has not finished, or a finished one has
        not been returned by :meth:`step` (or yielded by
        :meth:`as_completed`) yet.
        """
        return bool(self._finished) or self._unfinished()

    def step(self) -> Optional[JobResult]:
        """Drive the service one turn; a finished result, if any.

        Returns the oldest finished result not yet handed to the caller,
        each exactly once.  When there is none, the turn first dispatches:
        it picks the next worker (round-robin over workers with runnable
        jobs), selects that worker's next job under the
        priority/bounded-wait policy, and advances it up to
        ``rounds_per_slice`` driver rounds.  Under the cooperative
        transport that is the turn: one slice (after sleeping until a
        retry's backoff ends, when every pending job is backing off).
        Under ``transport="process"`` the turn posts a slice to every idle
        shard, then waits for the first replies (see :meth:`_advance`).
        Returns ``None`` while no job finished this turn (or no work is
        pending).
        """
        if not self._finished and self._unfinished():
            self._advance()
        if self._shutdown and not self._unfinished():
            self._release_executors()
        return self._finished.popleft() if self._finished else None

    def as_completed(self) -> Iterator[JobResult]:
        """Drive/drain the service, yielding each result as it finishes.

        The yield order is completion order: deterministic under the
        cooperative transport, *not* across process shards (use
        :meth:`run_until_complete` for submission-ordered collection).
        """
        while True:
            done = self.step()
            if done is not None:
                yield done
            elif not self.has_pending():
                return

    def run_until_complete(self) -> List[JobResult]:
        """Drain every pending job; results in submission order.

        The deterministic collection point shared by all transports:
        whatever order jobs *finish* in, the returned list is ordered by
        submission, so batch callers observe identical output across
        transports.
        """
        for _ in self.as_completed():
            pass
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

        Listeners run on the caller's thread, inside the :meth:`submit`
        (for a rejected request) or :meth:`step` that finished the job;
        they must be quick and must not raise.
        """
        self._listeners.append(listener)

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting submissions and wind the workers down.

        Pending jobs are *drained*, not dropped.  With ``wait`` the caller
        drives the service until every accepted job has finished, then
        stops the worker processes, whose warm cache bundles go with them;
        the finished results stay available to :meth:`result`,
        :meth:`step` and :meth:`as_completed`.  Without ``wait`` further
        submissions are refused and nothing else happens: the next drain
        (:meth:`as_completed`, :meth:`run_until_complete`) finishes the
        accepted jobs and releases the workers.  Idempotent.
        """
        self._shutdown = True
        if wait:
            while self._unfinished():
                self._advance()
            self._release_executors()

    def __enter__(self) -> "VerificationService":
        """Context-manager entry: the service itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: shut the transport down (draining)."""
        self.shutdown(wait=True)

    # -- results & stats -------------------------------------------------------
    def result(self, job_id: str) -> Optional[JobResult]:
        """The finished result of ``job_id`` (``None`` while running)."""
        return self._jobs[job_id].done

    def stats(self) -> dict:
        """Service-level counters: jobs, slices, robustness, pool stats."""
        return {
            "jobs_submitted": len(self._jobs),
            "jobs_completed": sum(1 for job in self._jobs.values()
                                  if job.done is not None),
            "jobs_failed": self._failed,
            "jobs_rejected": self._rejected,
            "jobs_inline": self._jobs_inline,
            "retries": self._retries,
            "worker_crashes": self._worker_crashes,
            "worker_restarts": self._worker_restarts,
            "transport_downgrades": [dict(entry)
                                     for entry in self._downgrades],
            "slices": self._slices,
            "pool_size": self.config.pool_size,
            "transport": self.config.transport,
            "pool": self.pool.stats(),
        }

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

    # -- the loop --------------------------------------------------------------
    def _unfinished(self) -> bool:
        return any(worker.jobs for worker in self._workers)

    def _advance(self) -> None:
        """One turn of the loop: dispatch, collect the replies, dispatch again.

        A turn whose first dispatch ran a slice on the caller's thread and
        left no shard busy ends there: the cooperative transport's one
        slice per turn.  Otherwise one ``connection.wait`` over the busy
        shards' pipes and sentinels collects the replies — without blocking
        after an inline slice, else until the first reply or the nearest
        instant at which a request times out or a backing-off job becomes
        runnable.  The second dispatch hands the shards that answered their
        next slice, so they work while the caller handles the results.
        """
        ran_here = self._dispatch()
        busy = [worker for worker in self._workers if worker.busy is not None]
        if ran_here and not busy:
            return
        owners = {waitable: worker for worker in busy
                  for waitable in worker.busy[1].supervisor.waitables}
        ready = wait(list(owners),
                     0.0 if ran_here else self._wait_timeout(busy))
        answered = {owners[waitable].index for waitable in ready}
        now = time.monotonic()
        for worker in busy:
            expires_at = worker.busy[1].supervisor.expires_at
            if worker.index in answered or (expires_at is not None
                                            and expires_at <= now):
                self._receive(worker)
        self._dispatch()

    def _dispatch(self) -> bool:
        """Start a slice on every idle worker that has a runnable job.

        Walks the workers round-robin from the cursor.  A slice that runs
        on the caller's thread (an inline executor) ends the walk and moves
        the cursor past its worker; returns whether one did.
        """
        count = len(self._workers)
        for offset in range(count):
            worker = self._workers[(self._next_worker + offset) % count]
            job = None if worker.busy is not None else self._pick_job(worker)
            if job is None:
                continue
            self._charge_waits(worker, job)
            self._run_slice(worker, job)
            if worker.busy is None:  # the slice ran on this thread
                self._next_worker = (worker.index + 1) % count
                return True
        return False

    def _wait_timeout(self, busy: List[_Worker]) -> Optional[float]:
        """Seconds the loop may wait for replies (``None``: until one comes).

        The nearest of: a posted request's slice-timeout expiry, and the
        end of a retry backoff or the deadline of a backing-off job.  Zero
        when no shard is busy and nothing is due: a backoff ended after the
        dispatch looked.
        """
        now = time.monotonic()
        instants = [worker.busy[1].supervisor.expires_at for worker in busy]
        for worker in self._workers:
            for job in worker.jobs:
                if job.not_before > now:
                    instants += [job.not_before, job.deadline_at]
        instants = [instant for instant in instants if instant is not None]
        if not instants:
            return None if busy else 0.0
        return max(0.0, min(instants) - now)

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
        # are invisible to selection until the window ends or their
        # deadline passes; without retries the filter is a no-op, so the
        # policy — and the conformance properties — are unchanged.
        now = time.monotonic()
        runnable = [job for job in worker.jobs
                    if job.not_before <= now
                    or (job.deadline_at is not None and job.deadline_at <= now)]
        if not runnable:
            return None
        starved = [job for job in runnable
                   if job.wait >= self.config.max_wait_slices]
        if starved:
            return min(starved, key=lambda job: job.seq)
        return max(runnable,
                   key=lambda job: (job.request.priority, -job.seq))

    def _run_slice(self, worker: _Worker, job: _Job) -> None:
        """Start ``job``'s next slice on its executor, opening its run first.

        The one slice path of every transport.  A job whose deadline passed
        before its run opened times out without setup; once open, the
        executor checks the deadline before every round.  An inline slice
        runs to its end here; a process slice leaves the shard busy until
        its reply is received.
        """
        self._slices += 1
        job.slices += 1
        executor = (worker.inline if job.inline_only
                    else self._shard_executor(worker))
        if job.done is not None:  # failed as the shard degraded
            return
        if job.job_id in executor.runs:
            self._post(worker, job, executor, executor.run_slice, job.job_id,
                       self.config.rounds_per_slice, job.deadline_at,
                       job.submitted_at)
            return
        if job.deadline_at is not None and time.monotonic() >= job.deadline_at:
            self._complete(worker, job, timeout_result(job.submitted_at), True)
            return
        job.attempts += 1
        factory = job.request.verifier_factory or self.verifier_factory
        try:
            self._post(worker, job, executor, executor.start_job, job.job_id,
                       job.fingerprint, job.request, factory, self.pool)
        except UnpicklableJob:
            # Not a failure: this job's payload cannot cross the pipe, so
            # it runs in-process while picklable jobs on the shard keep
            # their isolation.
            job.inline_only = True
            self._jobs_inline += 1
            self._post(worker, job, worker.inline, worker.inline.start_job,
                       job.job_id, job.fingerprint, job.request, factory,
                       self.pool)

    def _post(self, worker: _Worker, job: _Job, executor: Executor,
              request: Callable, *args) -> None:
        """Post ``request(*args)`` for ``job``; an inline reply is read at once."""
        try:
            request(*args)
        except WorkerCrashed as exc:
            self._handle_crash(worker, job, exc)
            return
        worker.busy = (job, executor)
        if executor is worker.inline:
            self._receive(worker)

    def _receive(self, worker: _Worker) -> None:
        """Read the reply to ``worker``'s posted request and act on it."""
        job, executor = worker.busy
        worker.busy = None
        try:
            reply = executor.receive()
        except WorkerCrashed as exc:
            self._handle_crash(worker, job, exc)
            return
        for key, value in reply["cache_delta"].items():
            job.cache_stats[key] = job.cache_stats.get(key, 0) + value
        if reply["op"] == "ok":  # the run opened; its first slice follows
            self._post(worker, job, executor, executor.run_slice, job.job_id,
                       self.config.rounds_per_slice, job.deadline_at,
                       job.submitted_at)
        elif reply["op"] == "error":
            self._fail(worker, job, reply_error(reply))
        elif reply["op"] == "done":
            self._complete(worker, job, reply["result"],
                           reply["deadline_exceeded"])

    # -- process supervision ---------------------------------------------------
    def _shard_executor(self, worker: _Worker) -> Executor:
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
        self._worker_restarts += 1

    def _handle_crash(self, worker: _Worker, job: _Job,
                      exc: WorkerCrashed) -> None:
        """A worker died under ``job``: retry, poison-fail, restart/degrade."""
        worker.crashes += 1
        job.crashes += 1
        self._worker_crashes += 1
        retry = self.config.retry
        if job.crashes >= retry.max_attempts \
                or not retry.retryable("WorkerCrash"):
            # Poison job: it keeps killing its worker, so it fails — the
            # service, the shard and every other job keep going.
            error = JobError(
                "WorkerCrash",
                f"worker process died executing this job "
                f"{job.crashes} time(s) (last: {exc})", "round")
            self._fail(worker, job, error, allow_retry=False)
        else:
            self._retries += 1
            job.not_before = (time.monotonic()
                              + retry.delay_seconds(job.job_id, job.crashes))
        self._recover(worker)

    def _degrade(self, worker: _Worker, reason: str) -> None:
        """Swap the shard's executor for its inline one, permanently.

        The degradation ladder's middle rung: the shard keeps draining its
        queue under the same policy, in the caller's thread, just without
        the process boundary.  The stopped worker's open runs are
        forgotten — the inline executor holds none, so their jobs restart
        from scratch.  Jobs implicated in worker crashes are failed instead
        of run inline — a job that kills its worker would kill the host —
        and the downgrade is recorded in :meth:`VerificationService.stats`.
        """
        self._downgrades.append({"worker": worker.index, "reason": reason})
        executor, worker.executor = worker.executor, worker.inline
        if executor is not None:
            executor.stop()
        for job in [job for job in worker.jobs if job.crashes > 0]:
            self._fail(worker, job, JobError(
                "WorkerCrash",
                f"shard degraded to in-process execution ({reason}); job "
                f"implicated in {job.crashes} worker crash(es)", "round"),
                allow_retry=False)

    def _release_executors(self) -> None:
        """Stop the worker processes; their warm bundles die with them."""
        for worker in self._workers:
            if isinstance(worker.executor, ShardExecutor):
                worker.executor.stop()
                worker.executor = None

    # -- completion ------------------------------------------------------------
    def _finish(self, job: _Job, done: JobResult) -> None:
        job.done = done
        self._finished.append(done)
        for listener in list(self._listeners):
            listener(done)

    def _complete(self, worker: _Worker, job: _Job,
                  result: VerificationResult,
                  deadline_exceeded: bool) -> None:
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
        worker.jobs.remove(job)
        self._finish(job, done)

    def _fail(self, worker: _Worker, job: _Job, error: JobError,
              allow_retry: bool = True) -> None:
        retry = self.config.retry
        self.pool.discard(job.fingerprint)
        if worker.executor is not None:
            worker.executor.discard(job.fingerprint)
        if (allow_retry and retry.retryable(error.kind)
                and job.attempts < retry.max_attempts):
            # Re-enqueue instead of finalising: the job stays in the
            # worker's queue and becomes runnable after its backoff.
            self._retries += 1
            job.not_before = (time.monotonic()
                              + retry.delay_seconds(job.job_id, job.attempts))
            return
        self._failed += 1
        worker.jobs.remove(job)
        self._finish(job, JobResult(
            job_id=job.job_id, fingerprint=job.fingerprint, error=error,
            slices=job.slices, wait_slices=job.total_wait,
            latency_seconds=time.monotonic() - job.submitted_at,
            attempts=max(job.attempts, 1), worker_crashes=job.crashes,
            cache_stats=dict(job.cache_stats)))
