"""Shard executors: where a job's run is opened and advanced.

The scheduler drives every slice through one executor interface —
``start_job`` and ``run_slice`` post a request, ``receive`` reads its
reply, and ``discard`` and ``stop`` manage the shard — and both executors
here run the same two functions: :func:`start_run` (the service's only
``start_run`` call) and :func:`advance_run` (its only ``step()`` and
``interrupt()`` calls, with the deadline checked before every round).

* :class:`InlineExecutor` calls them directly on the parent pool's
  bundles, in the caller's thread, when the request is posted: the
  cooperative transport, process-transport jobs whose payload does not
  pickle, and degraded shards.
* :class:`ShardExecutor` calls them in one supervised worker *process* per
  shard: a request is posted at once and its reply read when the pipe is
  ready, while the scheduler runs the usual per-worker policy in the
  parent.  What the process boundary buys is *crash isolation*: a
  segfault, OOM kill or SIGKILL takes down one shard's process, which the
  supervisor detects and the scheduler restarts.

Protocol
--------
Messages are dicts over a duplex pipe:

* ``start`` — :func:`start_run` on the worker-local bundle (the verifier
  factory travels as its own pickle, loaded inside the setup guard).  In
  each worker generation, the first ``start`` on a network carries the
  network, and the first on a fingerprint carries its cache bundle as a
  :meth:`~repro.service.pool.CacheBundle.to_payload` dict (the on-disk
  save/load format);
* ``slice`` — :func:`advance_run`;
* ``discard`` — quarantine a fingerprint's worker-local bundle (no reply);
* ``collect`` — ship every worker-local bundle back as payloads (used at
  shutdown so the parent pool keeps the warmth accumulated in the worker);
* ``stop`` — exit the worker loop (no reply).

Every other request gets exactly one reply.  In-worker Python
exceptions are *data* (``error`` replies that become structured
``JobError``\\ s); only process death is a crash.  The worker-local caches
are rebuilt from the parent pool's bundles on every restart, so a crash
costs warmth, never correctness.
"""

from __future__ import annotations

import copy
import pickle
import time
import weakref
from multiprocessing.connection import Connection
from typing import Callable, Dict, Optional, Set, Tuple

from repro.nn.network import Network
from repro.service.jobs import JobError, JobRequest
from repro.service.pool import CacheBundle, FingerprintCachePool
from repro.service.supervisor import WorkerCrashed, WorkerSupervisor
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
    by the bundles ``start`` requests carry, dropped on ``discard``) and the
    open verifier runs keyed by job id.  Every per-op exception is caught
    and answered as an ``error`` reply — the loop itself only dies with the
    process, which is exactly the event the parent supervisor watches for.
    """
    bundles: Dict[str, CacheBundle] = {}
    networks: Dict[int, Network] = {}
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
            return
        reply = _serve(message, op, bundles, bundle_for, networks, runs)
        try:
            if reply is not None:
                conn.send(reply)
        except (BrokenPipeError, OSError):
            return


def _serve(message: dict, op: str, bundles: dict, bundle_for,
           networks: dict, runs: Runs) -> Optional[dict]:
    """One protocol request's reply dict, ``None`` for none (never raises)."""
    if op == "discard":
        bundles.pop(message["fingerprint"], None)
        return None
    if op == "collect":
        return {"op": "bundles",
                "payloads": [bundle.to_payload()
                             for bundle in bundles.values()]}
    if op == "start":
        if "payload" in message:
            try:
                bundles[message["fingerprint"]] = CacheBundle.from_payload(
                    message["payload"],
                    expected_fingerprint=message["fingerprint"],
                    source="handover")
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                return {**_error_reply(exc, "setup"), "cache_delta": {}}
        if "network" in message:
            networks[message["network_id"]] = message["network"]
        return start_run(runs, message["job_id"],
                         bundle_for(message["fingerprint"]),
                         _shipped_factory(message["factory"]),
                         networks.get(message["network_id"]),
                         message["spec"], message["budget"])
    if op == "slice":
        return advance_run(runs, message["job_id"], message["rounds"],
                           message["deadline_at"], message["submitted_at"])
    return {"op": "error", "kind": "ProtocolError",
            "message": f"unknown op {op!r}", "stage": "round",
            "cache_delta": {}}


class InlineExecutor:
    """An executor that runs a shard's jobs in the caller's thread.

    Calls :func:`start_run` and :func:`advance_run` on the parent pool's
    bundles when a request is posted, with the same methods and reply
    dicts as :class:`ShardExecutor`.  It serves the cooperative transport,
    process-shard jobs whose payload cannot cross the pipe, and degraded
    shards, and never raises ``WorkerCrashed``.
    """

    def __init__(self) -> None:
        self.runs: Runs = {}
        self._reply: dict = {}

    def start_job(self, job_id: str, fingerprint: str, request: JobRequest,
                  factory: Callable, pool: FingerprintCachePool) -> None:
        """Open ``job_id``'s run on the pool's bundle.

        The run gets its own copy of the request's budget, as the worker
        process gets an unpickled one, so every attempt starts uncharged.
        """
        self._reply = start_run(self.runs, job_id, pool.bundle(fingerprint),
                                factory, request.network, request.spec,
                                copy.deepcopy(request.budget))

    def run_slice(self, job_id: str, rounds: int,
                  deadline_at: Optional[float], submitted_at: float) -> None:
        """Advance ``job_id`` by up to ``rounds`` rounds."""
        self._reply = advance_run(self.runs, job_id, rounds, deadline_at,
                                  submitted_at)

    def receive(self) -> dict:
        """The reply of the last :meth:`start_job` or :meth:`run_slice`."""
        return self._reply

    def discard(self, fingerprint: str) -> None:
        """Nothing to drop: the runs use the parent pool's own bundles."""

    def stop(self, pool: Optional[FingerprintCachePool] = None) -> None:
        """Forget every open run."""
        self.runs.clear()


class ShardExecutor:
    """Parent-side handle of one shard's worker process.

    Owns the shard's :class:`~repro.service.supervisor.WorkerSupervisor`
    and what the current worker generation holds: the bundles and networks
    it was sent, and the jobs with open runs (``runs``).  The scheduler
    calls :meth:`receive` once the supervisor's ``waitables`` are ready or
    its ``expires_at`` has passed.  Crash handling is split: the executor
    *detects* (:meth:`receive` raises ``WorkerCrashed``) while the
    scheduler decides (retry, poison, degrade) and calls :meth:`restart`.
    """

    def __init__(self, index: int, lp_cache_size: int, bound_cache_size: int,
                 start_method: Optional[str] = None,
                 slice_timeout: Optional[float] = None) -> None:
        self.index = index
        self.slice_timeout = slice_timeout
        self.handed_over: Set[str] = set()
        self.shipped: "weakref.WeakSet[Network]" = weakref.WeakSet()
        self.runs: Set[str] = set()
        self._job_id = ""
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
        self.shipped.clear()
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
                  factory: Callable, pool: FingerprintCachePool) -> None:
        """Post the request that opens ``job_id``'s run in the worker.

        Its reply is ``{"op": "ok"/"error", "cache_delta": ...}``.  Carries
        the network and the fingerprint's bundle when this worker
        generation has not been sent them.  Raises :class:`UnpicklableJob` when the request cannot cross
        the pipe (the scheduler then runs the job on an
        :class:`InlineExecutor`) and
        :class:`~repro.service.supervisor.WorkerCrashed` when the worker is
        gone.
        """
        try:
            factory_bytes = pickle.dumps(factory)
        except _PICKLE_ERRORS as exc:
            raise UnpicklableJob(
                f"verifier factory does not pickle: {exc}") from exc
        message = {"op": "start", "job_id": job_id,
                   "fingerprint": fingerprint,
                   "network_id": id(request.network), "spec": request.spec,
                   "budget": request.budget, "factory": factory_bytes}
        if request.network not in self.shipped:
            message["network"] = request.network
        if fingerprint not in self.handed_over:
            message["payload"] = pool.bundle(fingerprint).to_payload()
        try:
            self._post(job_id, message)
        except _PICKLE_ERRORS as exc:
            raise UnpicklableJob(
                f"job payload does not pickle: {exc}") from exc
        self.handed_over.add(fingerprint)
        self.shipped.add(request.network)

    def run_slice(self, job_id: str, rounds: int,
                  deadline_at: Optional[float], submitted_at: float) -> None:
        """Post the request that advances ``job_id`` by up to ``rounds``.

        ``deadline_at`` and ``submitted_at`` are absolute
        ``time.monotonic()`` instants — comparable across processes on one
        host (CLOCK_MONOTONIC is system-wide on Linux), so the worker's
        :func:`advance_run` enforces the deadline exactly as in-process.
        """
        self._post(job_id, {"op": "slice", "job_id": job_id,
                            "rounds": rounds, "deadline_at": deadline_at,
                            "submitted_at": submitted_at})

    def receive(self) -> dict:
        """The posted request's reply (see ``WorkerSupervisor.receive``)."""
        reply = self.supervisor.receive()
        if reply["op"] == "ok":
            self.runs.add(self._job_id)
        elif reply["op"] != "more":
            self.runs.discard(self._job_id)
        return reply

    def discard(self, fingerprint: str) -> None:
        """Quarantine a fingerprint's worker-local bundle (best-effort).

        The next job on the fingerprint re-hands the parent's fresh bundle,
        so poisoned entries never survive in the worker either.
        """
        self.handed_over.discard(fingerprint)
        try:
            self.supervisor.post({"op": "discard",
                                  "fingerprint": fingerprint})
        except WorkerCrashed:  # the next dispatch handles a dead worker
            pass

    def _post(self, job_id: str, message: dict) -> None:
        self.supervisor.post(message, self.slice_timeout)
        self._job_id = job_id


def reply_error(reply: dict) -> JobError:
    """Translate a worker ``error`` reply into a structured JobError."""
    return JobError(reply.get("kind", "WorkerError"),
                    reply.get("message", ""), reply.get("stage", "round"))
