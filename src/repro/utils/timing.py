"""Timing primitives: stopwatch, phase timings, and combined budgets.

The paper terminates each verification run after a 1000 s wall-clock budget.
In this reproduction we support both wall-clock budgets and *node* budgets
(the number of AppVer calls), because node budgets make benchmark results
machine-independent and keep the benchmark harness fast.

:class:`PhaseTimings` is a run's stage clock: the frontier driver
(:mod:`repro.engine.driver`) owns one per run and times ``setup`` and each
round's ``select`` / ``branch`` / ``lp`` / ``bound`` / ``attach`` stages
into it, and the verifiers surface it as ``extras["timings"]`` — so a
result shows *where* its wall time went, not only its total.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional


class Stopwatch:
    """A simple restartable stopwatch measuring wall-clock seconds."""

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self._elapsed = 0.0
        self._started = False

    def start(self) -> "Stopwatch":
        if self._start is None:
            self._start = time.perf_counter()
            self._started = True
        return self

    def stop(self) -> float:
        if self._start is not None:
            self._elapsed += time.perf_counter() - self._start
            self._start = None
        return self._elapsed

    def reset(self) -> None:
        self._start = None
        self._elapsed = 0.0
        self._started = False

    @property
    def started(self) -> bool:
        """Whether the stopwatch has ever been started since creation/reset."""
        return self._started

    @property
    def elapsed(self) -> float:
        """Elapsed seconds, including the currently running span."""
        running = 0.0
        if self._start is not None:
            running = time.perf_counter() - self._start
        return self._elapsed + running

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class PhaseTimings:
    """Cumulative wall-clock seconds (and call counts) per named phase.

    One instance lives on each :class:`~repro.engine.driver.DriverRun`,
    which alone writes it: ``setup`` once, then one block per stage of
    every round.  The verifiers expose it as ``extras["timings"]``.
    Recording costs two ``perf_counter`` calls per measured block, so it is
    safe to leave on.
    """

    def __init__(self) -> None:
        self._seconds: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    def record(self, phase: str, seconds: float, count: int = 1) -> None:
        """Add ``seconds`` (and ``count`` occurrences) to a phase."""
        self._seconds[phase] = self._seconds.get(phase, 0.0) + float(seconds)
        self._counts[phase] = self._counts.get(phase, 0) + int(count)

    @contextmanager
    def measure(self, phase: str) -> Iterator[None]:
        """Context manager timing one block into ``phase``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(phase, time.perf_counter() - start)

    def as_dict(self) -> dict:
        """``{phase: {"seconds": ..., "count": ...}}`` for every phase."""
        return {phase: {"seconds": self._seconds[phase],
                        "count": self._counts.get(phase, 0)}
                for phase in sorted(self._seconds)}


@dataclass
class Budget:
    """A combined wall-clock-seconds and node-count budget.

    ``max_seconds=None`` or ``max_nodes=None`` disables the respective limit.
    ``nodes`` counts the number of AppVer (bound computation) calls charged
    via :meth:`charge_node`.

    The wall clock **auto-starts** on the first call to :meth:`exhausted` or
    read of :attr:`elapsed_seconds`: a budget handed to a consumer that never
    calls :meth:`start` still enforces ``max_seconds`` (previously the limit
    was silently a no-op — the unstarted stopwatch reported 0 s forever).
    :meth:`start` remains the explicit way to pin the measurement origin.

    ``inf`` is a valid limit meaning "no limit"; a NaN limit raises
    ``ValueError``.  NaN compares false with everything, so it would make
    :meth:`exhausted` say "not yet" forever while :meth:`remaining_nodes`
    says nothing is left — a run that can afford no child and never ends.
    """

    max_seconds: Optional[float] = None
    max_nodes: Optional[int] = None
    nodes: int = 0
    _watch: Stopwatch = field(default_factory=Stopwatch, repr=False)

    def __post_init__(self) -> None:
        for name in ("max_seconds", "max_nodes"):
            value = getattr(self, name)
            if value is not None and value != value:
                raise ValueError(f"{name} must not be NaN")

    def start(self) -> "Budget":
        self._watch.start()
        return self

    def charge_node(self, count: int = 1) -> None:
        """Charge ``count`` bound-computation calls against the budget."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self.nodes += count

    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock seconds consumed; starts the clock on first read."""
        if not self._watch.started:
            self._watch.start()
        return self._watch.elapsed

    def exhausted(self) -> bool:
        """Return True when either limit has been reached."""
        if self.max_seconds is not None and self.elapsed_seconds >= self.max_seconds:
            return True
        if self.max_nodes is not None and self.nodes >= self.max_nodes:
            return True
        return False

    def remaining_nodes(self) -> Optional[int]:
        if self.max_nodes is None:
            return None
        return max(0, self.max_nodes - self.nodes)

    def copy(self) -> "Budget":
        """Return a fresh, unstarted budget with the same limits."""
        return Budget(max_seconds=self.max_seconds, max_nodes=self.max_nodes)
