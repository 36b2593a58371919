"""Shard executors: where a job's run is opened and advanced.

The scheduler drives every slice through one executor interface —
``start_job``, ``run_slice``, ``discard``, ``stop`` — and both executors
here run the same two functions: :func:`start_run` (the service's only
``start_run`` call) and :func:`advance_run` (its only ``step()`` and
``interrupt()`` calls, with the deadline checked before every round).

* :class:`InlineExecutor` calls them directly on the parent pool's
  bundles, in the calling thread: the cooperative transport,
  process-transport jobs whose payload does not pickle, and degraded
  shards.
* :class:`ShardExecutor` calls them in one supervised worker *process* per
  shard, one pipe round-trip per request, while the scheduler's shard
  thread keeps running the usual per-worker policy (priority, bounded
  wait, deadlines) in the parent — so the interleaving semantics and the
  transport-conformance properties are untouched.  What the process
  boundary buys is *crash isolation*: a segfaulting LP solve, an
  OOM-killed worker or a plain SIGKILL takes down one shard's process,
  which the supervisor detects and restarts, and the scheduler retries the
  interrupted jobs under its :class:`~repro.service.jobs.RetryPolicy` —
  the host service never dies.

Protocol
--------
Messages are dicts over a duplex pipe, one reply per request:

* ``ping`` → ``pong`` (liveness probe);
* ``bundle`` — hand over a fingerprint's cache bundle as a
  :meth:`~repro.service.pool.CacheBundle.to_payload` dict (the on-disk
  save/load format, shipped over the pipe instead of through a file);
* ``start`` — :func:`start_run` on the worker-local bundle (the verifier
  factory travels as its own pickle, loaded inside the setup guard);
  ``slice`` — :func:`advance_run`;
* ``discard`` — quarantine a fingerprint's worker-local bundle;
* ``collect`` — ship every worker-local bundle back as payloads (used at
  shutdown so the parent pool keeps the warmth accumulated in the worker);
* ``stop`` — exit the worker loop.

In-worker Python exceptions are *data* (``error`` replies that become
structured ``JobError``\\ s); only process death is a crash.  The
worker-local caches are rebuilt from the parent pool's bundles on every
restart, so a crash costs warmth, never correctness.
"""

from __future__ import annotations

import copy
import pickle
import time
from multiprocessing.connection import Connection
from typing import Callable, Dict, Optional, Set, Tuple

from repro.nn.network import Network
from repro.service.jobs import JobError, JobRequest
from repro.service.pool import CacheBundle, FingerprintCachePool
from repro.service.supervisor import WorkerSupervisor
from repro.specs.properties import Specification
from repro.utils.timing import Budget
from repro.verifiers.result import (
    VerificationResult,
    VerificationStatus,
    VerifierRun,
)

#: Exception types ``pickle`` raises for payloads that cannot cross the
#: pipe (lambdas, closures over live objects); they trigger the per-job
#: inline fallback rather than a job failure.
_PICKLE_ERRORS = (pickle.PicklingError, TypeError, AttributeError)

#: Open runs keyed by job id, each with the bundle its verifier was built on.
Runs = Dict[str, Tuple[VerifierRun, CacheBundle]]


class UnpicklableJob(RuntimeError):
    """A job's payload (factory, network, spec) cannot cross the pipe.

    Not a failure: the scheduler catches this and runs the job on the
    shard's :class:`InlineExecutor` instead — graceful degradation for jobs
    carrying closures while picklable jobs on the same shard keep their
    process isolation.
    """


def timeout_result(submitted_at: float) -> VerificationResult:
    """The TIMEOUT of a job whose run gave none: elapsed since submission."""
    return VerificationResult(status=VerificationStatus.TIMEOUT,
                              verifier="service",
                              elapsed_seconds=time.monotonic() - submitted_at)


def _error_reply(exc: Exception, stage: str) -> dict:
    return {"op": "error", "kind": type(exc).__name__, "message": str(exc),
            "stage": stage}


def start_run(runs: Runs, job_id: str, bundle: CacheBundle,
              factory: Callable, network: Network, spec: Specification,
              budget: Optional[Budget]) -> dict:
    """Build the job's verifier on ``bundle`` and open its run in ``runs``.

    The one place the service calls ``start_run``.  Returns ``{"op":
    "ok"}`` or a setup-stage ``error`` reply, with the bundle's
    ``cache_delta`` either way.
    """
    before = bundle.stats_snapshot()
    try:
        run = factory(bundle).start_run(network, spec, budget)
        runs[job_id] = (run, bundle)
        reply = {"op": "ok"}
    except Exception as exc:  # noqa: BLE001 - isolation boundary
        reply = _error_reply(exc, "setup")
    reply["cache_delta"] = CacheBundle.stats_delta(before,
                                                   bundle.stats_snapshot())
    return reply


def advance_run(runs: Runs, job_id: str, rounds: int,
                deadline_at: Optional[float], submitted_at: float) -> dict:
    """Advance an open run up to ``rounds`` rounds; a reply dict.

    The one place the service calls ``step()`` and ``interrupt()``.  The
    deadline is checked before every round, the first one after setup
    included; an expired run finishes through ``interrupt()``, or with
    :func:`timeout_result` when the run has no result to give.  Replies
    ``more``, ``done`` (with ``result`` and ``deadline_exceeded``) or a
    round-stage ``error``; ``done`` and ``error`` close the run.
    """
    entry = runs.get(job_id)
    if entry is None:
        return {"op": "error", "kind": "ProtocolError",
                "message": f"no open run for {job_id}", "stage": "round",
                "cache_delta": {}}
    run, bundle = entry
    before = bundle.stats_snapshot()
    result = None
    deadline_exceeded = False
    try:
        for _ in range(rounds):
            if deadline_at is not None and time.monotonic() >= deadline_at:
                result = run.interrupt() or timeout_result(submitted_at)
                deadline_exceeded = True
                break
            result = run.step()
            if result is not None:
                break
        reply = ({"op": "more"} if result is None else
                 {"op": "done", "result": result,
                  "deadline_exceeded": deadline_exceeded})
    except Exception as exc:  # noqa: BLE001 - isolation boundary
        reply = _error_reply(exc, "round")
    if reply["op"] != "more":
        del runs[job_id]
    reply["cache_delta"] = CacheBundle.stats_delta(before,
                                                   bundle.stats_snapshot())
    return reply


def _shipped_factory(factory_bytes: bytes) -> Callable:
    """The parent's factory, unpickled inside :func:`start_run`'s guard."""
    return lambda bundle: pickle.loads(factory_bytes)(bundle)


def worker_main(conn: Connection, lp_cache_size: int,
                bound_cache_size: int) -> None:
    """Entry point of one shard's worker process.

    Serves protocol requests until ``stop`` or pipe EOF.  Holds the
    worker-local state: fingerprint-keyed :class:`CacheBundle`\\ s (seeded
    by ``bundle`` handovers, replaced wholesale on ``discard``) and the
    open verifier runs keyed by job id.  Every per-op exception is caught
    and answered as an ``error`` reply — the loop itself only dies with the
    process, which is exactly the event the parent supervisor watches for.
    """
    bundles: Dict[str, CacheBundle] = {}
    runs: Runs = {}

    def bundle_for(fingerprint: str) -> CacheBundle:
        found = bundles.get(fingerprint)
        if found is None:
            from repro.bounds.cache import BoundCache, LpCache
            found = CacheBundle(fingerprint,
                                lp_cache=LpCache(lp_cache_size),
                                bound_cache=BoundCache(bound_cache_size))
            bundles[fingerprint] = found
        return found

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        op = message.get("op")
        if op == "stop":
            try:
                conn.send({"op": "bye"})
            except (BrokenPipeError, OSError):
                pass
            return
        try:
            conn.send(_serve(message, op, bundles, bundle_for, runs))
        except (BrokenPipeError, OSError):
            return


def _serve(message: dict, op: str, bundles: dict, bundle_for,
           runs: Runs) -> dict:
    """Dispatch one protocol request to a reply dict (never raises)."""
    if op == "ping":
        return {"op": "pong"}
    if op == "bundle":
        try:
            bundles[message["fingerprint"]] = CacheBundle.from_payload(
                message["payload"],
                expected_fingerprint=message["fingerprint"],
                source="handover")
            return {"op": "ok"}
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            return {**_error_reply(exc, "setup"), "cache_delta": {}}
    if op == "discard":
        bundles.pop(message["fingerprint"], None)
        return {"op": "ok"}
    if op == "collect":
        return {"op": "bundles",
                "payloads": [bundle.to_payload()
                             for bundle in bundles.values()]}
    if op == "start":
        return start_run(runs, message["job_id"],
                         bundle_for(message["fingerprint"]),
                         _shipped_factory(message["factory"]),
                         message["network"], message["spec"],
                         message["budget"])
    if op == "slice":
        return advance_run(runs, message["job_id"], message["rounds"],
                           message["deadline_at"], message["submitted_at"])
    return {"op": "error", "kind": "ProtocolError",
            "message": f"unknown op {op!r}", "stage": "round",
            "cache_delta": {}}


class InlineExecutor:
    """An executor that runs a shard's jobs in the calling thread.

    Calls :func:`start_run` and :func:`advance_run` directly on the parent
    pool's bundles, with the same methods and reply dicts as
    :class:`ShardExecutor`, so the scheduler drives every slice through one
    path.  It serves the cooperative transport, process-shard jobs whose
    payload cannot cross the pipe, and shards that degraded.  It
    never raises :class:`~repro.service.supervisor.WorkerCrashed`.
    """

    def __init__(self) -> None:
        self.runs: Runs = {}

    def start_job(self, job_id: str, fingerprint: str, request: JobRequest,
                  factory: Callable, pool: FingerprintCachePool) -> dict:
        """Open ``job_id``'s run on the pool's bundle; the reply dict.

        The run gets its own copy of the request's budget, as the worker
        process gets an unpickled one, so every attempt starts uncharged.
        """
        return start_run(self.runs, job_id, pool.bundle(fingerprint),
                         factory, request.network, request.spec,
                         copy.deepcopy(request.budget))

    def run_slice(self, job_id: str, rounds: int,
                  deadline_at: Optional[float], submitted_at: float) -> dict:
        """Advance ``job_id`` by up to ``rounds`` rounds; the reply dict."""
        return advance_run(self.runs, job_id, rounds, deadline_at,
                           submitted_at)

    def discard(self, fingerprint: str) -> None:
        """Nothing to drop: the runs use the parent pool's own bundles."""

    def stop(self, pool: Optional[FingerprintCachePool] = None) -> None:
        """Forget every open run."""
        self.runs.clear()


class ShardExecutor:
    """Parent-side handle of one shard's worker process.

    Owns the shard's :class:`~repro.service.supervisor.WorkerSupervisor`
    and the handover bookkeeping: which fingerprints' bundles the current
    worker generation has received, and which jobs hold open runs in it
    (``runs``).  Used only from the shard's scheduler thread, so it needs
    no locking.  Crash handling is split: the executor *detects* (its
    supervisor raises :class:`~repro.service.supervisor.WorkerCrashed`)
    while the scheduler decides (retry, poison, degrade) and then calls
    :meth:`restart`.
    """

    def __init__(self, index: int, lp_cache_size: int, bound_cache_size: int,
                 start_method: Optional[str] = None,
                 slice_timeout: Optional[float] = None) -> None:
        self.index = index
        self.slice_timeout = slice_timeout
        self.handed_over: Set[str] = set()
        self.runs: Set[str] = set()
        self.supervisor = WorkerSupervisor(
            target=worker_main, args=(lp_cache_size, bound_cache_size),
            start_method=start_method, name=f"verification-shard-{index}")
        self.supervisor.start()

    # -- lifecycle -------------------------------------------------------------
    def alive(self) -> bool:
        """Whether the shard's worker process is running."""
        return self.supervisor.alive()

    def restart(self) -> None:
        """Replace a dead worker with a fresh one (handover state reset).

        The new generation holds no bundles and no runs — fingerprints are
        re-handed from the parent pool on next use and interrupted jobs
        restart from scratch, which keeps their trajectories identical to
        an uninterrupted run (the run never resumes mid-state).
        """
        self.handed_over.clear()
        self.runs.clear()
        self.supervisor.restart()

    def stop(self, pool: Optional[FingerprintCachePool] = None) -> None:
        """Stop the worker, optionally collecting its warm bundles first.

        With ``pool`` given, the worker's bundles are shipped back over the
        pipe and adopted into the parent pool (same payload format as
        :meth:`CacheBundle.save`), so ``save_caches()`` after a process-run
        persists the warmth the workers accumulated.  Best-effort: a dead
        or unresponsive worker just gets killed.
        """
        if pool is not None and self.alive():
            try:
                reply = self.supervisor.request({"op": "collect"},
                                                timeout=10.0)
                for payload in reply.get("payloads", ()):
                    pool.adopt_payload(payload,
                                       source=f"worker-{self.index}")
            except Exception:  # noqa: BLE001 - shutdown is best-effort
                pass
        self.supervisor.stop()

    # -- job execution ---------------------------------------------------------
    def start_job(self, job_id: str, fingerprint: str, request: JobRequest,
                  factory: Callable, pool: FingerprintCachePool) -> dict:
        """Open ``job_id``'s run in the worker; the worker's reply dict.

        The reply is ``{"op": "ok"/"error", "cache_delta": ...}`` — the
        scheduler folds the delta into the job's counters and turns
        ``error`` replies into a setup-stage :class:`JobError` via
        :func:`reply_error`.  Hands the fingerprint's bundle over first
        when this worker generation has not seen it.  Raises
        :class:`UnpicklableJob` when the request cannot cross the pipe (the
        scheduler then runs the job on an :class:`InlineExecutor`) and
        :class:`~repro.service.supervisor.WorkerCrashed` when the worker
        died underneath the request.
        """
        if fingerprint not in self.handed_over:
            payload = pool.bundle(fingerprint).to_payload()
            reply = self.supervisor.request(
                {"op": "bundle", "fingerprint": fingerprint,
                 "payload": payload}, timeout=self.slice_timeout)
            if reply.get("op") == "error":
                return reply
            self.handed_over.add(fingerprint)
        try:
            factory_bytes = pickle.dumps(factory)
        except _PICKLE_ERRORS as exc:
            raise UnpicklableJob(
                f"verifier factory does not pickle: {exc}") from exc
        message = {"op": "start", "job_id": job_id,
                   "fingerprint": fingerprint, "network": request.network,
                   "spec": request.spec, "budget": request.budget,
                   "factory": factory_bytes}
        try:
            reply = self.supervisor.request(message,
                                            timeout=self.slice_timeout)
        except _PICKLE_ERRORS as exc:
            raise UnpicklableJob(
                f"job payload does not pickle: {exc}") from exc
        if reply["op"] != "error":
            self.runs.add(job_id)
        return reply

    def run_slice(self, job_id: str, rounds: int,
                  deadline_at: Optional[float], submitted_at: float) -> dict:
        """Advance ``job_id`` by up to ``rounds`` rounds; the reply dict.

        ``deadline_at`` and ``submitted_at`` are absolute
        ``time.monotonic()`` instants — comparable across processes on one
        host (CLOCK_MONOTONIC is system-wide on Linux), so the worker's
        :func:`advance_run` enforces the deadline exactly as in-process.
        Terminal replies (``done`` / ``error``) close the job's run.
        """
        reply = self.supervisor.request(
            {"op": "slice", "job_id": job_id, "rounds": rounds,
             "deadline_at": deadline_at, "submitted_at": submitted_at},
            timeout=self.slice_timeout)
        if reply["op"] != "more":
            self.runs.discard(job_id)
        return reply

    def discard(self, fingerprint: str) -> None:
        """Quarantine a fingerprint's worker-local bundle (best-effort).

        Mirrors the parent pool's quarantine: the next job on the
        fingerprint re-hands a fresh (post-quarantine) bundle, so poisoned
        entries never survive in the worker either.
        """
        self.handed_over.discard(fingerprint)
        if not self.alive():
            return
        try:
            self.supervisor.request({"op": "discard",
                                     "fingerprint": fingerprint},
                                    timeout=self.slice_timeout)
        except Exception:  # noqa: BLE001 - next dispatch handles a dead worker
            pass


def reply_error(reply: dict) -> JobError:
    """Translate a worker ``error`` reply into a structured JobError."""
    return JobError(reply.get("kind", "WorkerError"),
                    reply.get("message", ""), reply.get("stage", "round"))
