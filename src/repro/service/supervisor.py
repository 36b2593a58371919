"""Process supervision for the service's ``"process"`` transport.

A :class:`WorkerSupervisor` owns exactly one worker *process*: it spawns
the process with a duplex pipe, performs request/response round-trips, and
— the part that makes the transport crash-resilient — watches liveness the
whole time a reply is pending.  A worker that segfaults, is OOM-killed or
SIGKILLed mid-round never leaves the parent blocked: a reply is awaited
on the pipe *and* the process sentinel together, so a dead worker
surfaces as a :class:`WorkerCrashed` as soon as it exits.  The scheduler
translates that exception into its retry/poison/degradation policy (see
``docs/SERVICE.md#fault-model--supervision``); the supervisor itself is
policy-free — it only detects, restarts and stops.  A request is posted
and received separately, so the scheduler can post to every shard and
wait on all their ``waitables`` at once.

Start-method resolution prefers ``fork`` (cheap on Linux — the parent's
loaded numpy/model state is shared copy-on-write) and falls back to
``spawn``; hosts where neither is available raise
:class:`ProcessTransportUnavailable`, which the scheduler catches to
degrade the shard gracefully onto its in-process ``InlineExecutor``.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing.connection import wait
from typing import Callable, Optional, Tuple

#: Start methods tried, in order, when the user does not pin one.
PREFERRED_START_METHODS = ("fork", "spawn")

#: Seconds a worker is given to exit voluntarily on ``stop()`` before it is
#: killed.
STOP_GRACE_SECONDS = 2.0


class ProcessTransportUnavailable(RuntimeError):
    """Worker processes cannot be provided on this host/configuration.

    Raised when no multiprocessing start method works (or spawning itself
    fails).  The scheduler treats it as a degradation trigger — the shard
    falls back to in-process execution — never as a job failure.
    """


class WorkerCrashed(RuntimeError):
    """The supervised worker process died (or hung past its timeout).

    Carries the worker's ``exitcode`` when the process terminated (negative
    values are signal numbers: ``-9`` for SIGKILL) and ``None`` when the
    worker was killed by the supervisor for exceeding a reply timeout.
    """

    def __init__(self, message: str, exitcode: Optional[int] = None) -> None:
        super().__init__(message)
        self.exitcode = exitcode


def resolve_start_method(
        preferred: Optional[str] = None) -> multiprocessing.context.BaseContext:
    """The multiprocessing context to use, or raise if none is available.

    ``preferred`` pins a method (``"fork"`` / ``"spawn"`` / ``"forkserver"``);
    ``None`` tries :data:`PREFERRED_START_METHODS` in order.  Raises
    :class:`ProcessTransportUnavailable` when no candidate is supported,
    so callers can degrade instead of crash.
    """
    candidates = ((preferred,) if preferred is not None
                  else PREFERRED_START_METHODS)
    available = multiprocessing.get_all_start_methods()
    for method in candidates:
        if method in available:
            try:
                return multiprocessing.get_context(method)
            except ValueError:  # pragma: no cover - platform-dependent
                continue
    raise ProcessTransportUnavailable(
        f"no usable multiprocessing start method among {candidates} "
        f"(host supports {available})")


class WorkerSupervisor:
    """Spawn, watch, restart and stop one worker process.

    ``target`` is the worker main — a module-level function (spawn-safe)
    called as ``target(child_connection, *args)``.  At most one request is
    outstanding at a time; crash *detection* happens in the
    :meth:`receive` of the request that observed it, which is exactly the
    attribution the retry policy needs.
    """

    def __init__(self, target: Callable, args: Tuple = (),
                 start_method: Optional[str] = None,
                 name: str = "verification-shard") -> None:
        self._target = target
        self._args = tuple(args)
        self._start_method = start_method
        self._name = name
        self._context = None
        self._process = None
        self._conn = None
        self._timeout: Optional[float] = None
        #: ``time.monotonic()`` instant the posted request times out at.
        self.expires_at: Optional[float] = None
        #: Successful (re)starts performed — restarts = starts - 1.
        self.starts = 0

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker process (idempotent while one is alive).

        Raises :class:`ProcessTransportUnavailable` when the host cannot
        provide worker processes at all, letting the caller degrade.
        """
        if self.alive():
            return
        if self._context is None:
            self._context = resolve_start_method(self._start_method)
        self._drop_process()
        try:
            parent_conn, child_conn = self._context.Pipe(duplex=True)
            process = self._context.Process(
                target=self._target, args=(child_conn,) + self._args,
                name=f"{self._name}-gen{self.starts}", daemon=True)
            process.start()
        except Exception as exc:  # noqa: BLE001 - spawn failure of any shape
            raise ProcessTransportUnavailable(
                f"could not spawn worker process: {exc}") from exc
        child_conn.close()  # the child holds its own copy
        self._process = process
        self._conn = parent_conn
        self.starts += 1

    def restart(self) -> None:
        """Kill whatever is left of the worker and spawn a fresh one."""
        self._kill()
        self.start()

    def stop(self, timeout: float = STOP_GRACE_SECONDS) -> None:
        """Ask the worker to exit (``stop`` op), then kill it if it lingers."""
        process = self._process
        if process is None:
            return
        if process.is_alive() and self._conn is not None:
            try:
                self._conn.send({"op": "stop"})
            except (OSError, ValueError):
                pass  # already broken; the kill below cleans up
        process.join(timeout)
        self._kill()

    def alive(self) -> bool:
        """Whether a worker process is currently running."""
        return self._process is not None and self._process.is_alive()

    @property
    def exitcode(self) -> Optional[int]:
        """The last worker's exit code (``None`` while running/never started)."""
        return None if self._process is None else self._process.exitcode

    # -- requests --------------------------------------------------------------
    @property
    def waitables(self) -> Tuple:
        """The pipe and the process sentinel, for ``connection.wait``."""
        return (self._conn, self._process.sentinel)

    def post(self, message: dict, timeout: Optional[float] = None) -> None:
        """Send one request whose reply is due by :attr:`expires_at`.

        Raises :class:`WorkerCrashed` when the worker is not running or the
        pipe is broken; pickling errors propagate before any bytes are sent.
        """
        if not self.alive() or self._conn is None:
            raise WorkerCrashed("worker process is not running",
                                exitcode=self.exitcode)
        try:
            self._conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashed(f"worker pipe broken on send: {exc}",
                                exitcode=self._harvest_exitcode()) from exc
        self._timeout = timeout
        self.expires_at = None if timeout is None else time.monotonic() + timeout

    def receive(self) -> dict:
        """The reply to the posted request, watching liveness meanwhile.

        Waits on the pipe and the process sentinel together, so a worker
        that died mid-request raises :class:`WorkerCrashed` at once instead
        of blocking forever.  A worker still silent at :attr:`expires_at`
        is *killed* and reported as crashed (hung-worker containment).
        """
        ready = wait(self.waitables, None if self.expires_at is None
                     else max(0.0, self.expires_at - time.monotonic()))
        try:
            if self._conn in ready or self._conn.poll(0):
                # A reply written just before death still counts.
                return self._conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise WorkerCrashed(
                f"worker pipe closed mid-request: {exc}",
                exitcode=self._harvest_exitcode()) from exc
        if ready:
            exitcode = self._harvest_exitcode()
            raise WorkerCrashed(
                f"worker process died mid-request (exitcode {exitcode})",
                exitcode=exitcode)
        self._kill()
        raise WorkerCrashed(
            f"worker unresponsive for {self._timeout:.3g}s; killed")

    def request(self, message: dict, timeout: Optional[float] = None) -> dict:
        """One round-trip: :meth:`post` then :meth:`receive`."""
        self.post(message, timeout)
        return self.receive()

    # -- internals -------------------------------------------------------------
    def _harvest_exitcode(self) -> Optional[int]:
        """The dying worker's exit code, after a short join for the reap."""
        process = self._process
        if process is None:
            return None
        process.join(STOP_GRACE_SECONDS)
        return process.exitcode

    def _kill(self) -> None:
        process = self._process
        if process is not None and process.is_alive():
            process.kill()
            process.join(STOP_GRACE_SECONDS)
        self._drop_process()

    def _drop_process(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:  # pragma: no cover - double close
                pass
        self._conn = None
        self._process = None
