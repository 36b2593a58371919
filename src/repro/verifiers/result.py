"""Verification verdicts, results and the common verifier interface."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.nn.network import Network
from repro.specs.properties import Specification
from repro.utils.timing import Budget


class VerificationStatus(enum.Enum):
    """Outcome of a verification run (the paper's ``{true, false, timeout}``)."""

    VERIFIED = "verified"      # the specification holds on the whole input box
    FALSIFIED = "falsified"    # a real counterexample was found
    TIMEOUT = "timeout"        # the budget ran out before a conclusion
    UNKNOWN = "unknown"        # the verifier gave up for another reason

    @property
    def is_conclusive(self) -> bool:
        """Whether this status settles the problem (verified or falsified)."""
        return self in (VerificationStatus.VERIFIED, VerificationStatus.FALSIFIED)


@dataclass
class VerificationResult:
    """The outcome of one verifier run on one verification problem."""

    status: VerificationStatus
    verifier: str
    elapsed_seconds: float = 0.0
    #: Number of AppVer (bound computation) calls, i.e. visited sub-problems.
    nodes_explored: int = 0
    #: Total number of nodes in the final BaB tree (including the root).
    tree_size: int = 1
    counterexample: Optional[np.ndarray] = None
    #: Best (largest) specification-margin lower bound established, if any.
    bound: Optional[float] = None
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def solved(self) -> bool:
        """True when the verifier reached a conclusive verdict."""
        return self.status.is_conclusive

    def check_counterexample(self, network: Network, spec: Specification) -> bool:
        """Validate that a reported counterexample really violates the spec."""
        if self.counterexample is None:
            return False
        return spec.is_counterexample(network, self.counterexample)

    def summary(self) -> str:
        """One human-readable line: verifier, verdict, time, nodes, bound."""
        parts = [f"{self.verifier}: {self.status.value}",
                 f"time={self.elapsed_seconds:.3f}s",
                 f"nodes={self.nodes_explored}"]
        if self.bound is not None:
            parts.append(f"bound={self.bound:.4f}")
        return ", ".join(parts)


class VerifierRun:
    """A resumable verification run, preemptible at round boundaries.

    The verification service multiplexes many jobs over one process by
    advancing each job's run a few :class:`~repro.engine.driver.FrontierDriver`
    rounds at a time.  A run's contract:

    * :meth:`step` executes at most one unit of work (one driver round for
      the engine-backed verifiers) and returns the final
      :class:`VerificationResult` once the run finished, ``None`` while more
      work remains.  Stepping a run to completion produces exactly the
      result one uninterrupted ``verify`` call would.
    * :meth:`interrupt` finishes the run early with the verifier's budget-
      exhaustion result (a TIMEOUT), or returns ``None`` when the run
      cannot be interrupted (monolithic fallback runs); the deadline
      enforcement of the service is built on it.
    """

    def step(self) -> Optional[VerificationResult]:
        """Advance one round; the final result once finished, else ``None``."""
        raise NotImplementedError

    def interrupt(self) -> Optional[VerificationResult]:
        """Finish early with a TIMEOUT result (``None`` if unsupported)."""
        return None

    def run_to_completion(self) -> VerificationResult:
        """Step until the run finishes and return its result."""
        while True:
            result = self.step()
            if result is not None:
                return result


class CompletedRun(VerifierRun):
    """A run that settled during setup (e.g. the root bound decided it)."""

    def __init__(self, result: VerificationResult) -> None:
        self.result = result

    def step(self) -> VerificationResult:
        """Return the precomputed result."""
        return self.result

    def interrupt(self) -> VerificationResult:
        """The run is already finished; interrupting changes nothing."""
        return self.result


class MonolithicRun(VerifierRun):
    """Fallback run for verifiers without a resumable ``start_run``.

    The whole ``verify`` call executes inside the first :meth:`step`, so the
    job occupies its worker for one indivisible slice; :meth:`interrupt`
    stays unsupported (returns ``None``) before that slice completes.
    """

    def __init__(self, verifier: "Verifier", network: Network,
                 spec: Specification, budget: Optional[Budget] = None) -> None:
        self.verifier = verifier
        self.network = network
        self.spec = spec
        self.budget = budget
        self._result: Optional[VerificationResult] = None

    def step(self) -> VerificationResult:
        """Run ``verify`` to completion (first call) and return its result."""
        if self._result is None:
            self._result = self.verifier.verify(self.network, self.spec,
                                                self.budget)
        return self._result

    def interrupt(self) -> Optional[VerificationResult]:
        """Only an already-finished monolithic run can be 'interrupted'."""
        return self._result


class Verifier:
    """Common interface of every complete verifier in the library."""

    #: Human-readable name used in result tables.
    name: str = "verifier"

    def verify(self, network: Network, spec: Specification,
               budget: Optional[Budget] = None) -> VerificationResult:
        """Decide whether ``network`` satisfies ``spec`` within ``budget``.

        Runs :meth:`start_run`'s run to completion; a verifier without a
        resumable run overrides this instead.
        """
        return self.start_run(network, spec, budget).run_to_completion()

    def start_run(self, network: Network, spec: Specification,
                  budget: Optional[Budget] = None) -> VerifierRun:
        """Begin a (possibly resumable) verification run.

        The engine-backed verifiers override this with a run that is
        preemptible at :class:`~repro.engine.driver.FrontierDriver` round
        boundaries; the default wraps an overridden :meth:`verify` in a
        :class:`MonolithicRun` so every verifier can serve as a job backend
        of the verification service.  A subclass must override one of the
        two methods; with neither, this raises :class:`NotImplementedError`.
        """
        if type(self).verify is Verifier.verify:
            raise NotImplementedError(
                f"{type(self).__name__} overrides neither verify nor start_run")
        return MonolithicRun(self, network, spec, budget)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def make_budget(budget: Optional[Budget], default_nodes: int = 2000,
                default_seconds: Optional[float] = None) -> Budget:
    """Return a started copy of ``budget`` (or a default one)."""
    if budget is None:
        budget = Budget(max_seconds=default_seconds, max_nodes=default_nodes)
    else:
        budget = budget.copy()
    return budget.start()
