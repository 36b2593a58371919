"""An αβ-CROWN-like baseline verifier.

The paper compares ABONN against the αβ-CROWN tool, "the state-of-the-art
verification tool ... that features various sophisticated heuristics for
performance improvement".  The closed-source-free reproduction below keeps
the behaviours that matter for that comparison:

* **attack-first falsification** — a multi-restart PGD attack runs before
  any expensive bounding, so clearly-violated instances are dispatched
  immediately;
* **optimised root bounds** — the root sub-problem is bounded with α-CROWN
  (optimised lower-relaxation slopes), which certifies many instances
  without any branching;
* **bound-ordered best-first BaB** — remaining sub-problems are explored
  best-first by their bound (most-violated first), with per-neuron split
  constraints tightening the child bounds (the role β plays in the original
  tool) and batched, cached LP resolution of fully-decided leaves.  The
  frontier loop runs on the shared
  :class:`~repro.engine.driver.FrontierDriver` over a thin heap work
  source: each round pops the top-``frontier_size`` most-violated
  sub-problems and bounds all of their children in one batched call (the
  original tool batches hundreds of domains per GPU pass the same way);
  ``frontier_size=1`` reproduces the sequential loop's verdicts and
  charges (one deferred-leaf-LP caveat in the terminal round when a leaf
  LP falsifies — see the engine's docstring).

Node-budget accounting: one α-CROWN evaluation internally performs several
bound computations (a DeepPoly pass and a gradient step per slope
iteration), so the root is charged ``2 + 3 * iterations`` nodes.  The
charge is an accounting model of the original tool's higher per-call
cost, not a count of this implementation's ``1 + iterations`` DeepPoly
passes, so a faster optimiser moves ``us_per_node`` only through speed.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bab.heuristics import BranchingContext, BranchingHeuristic, make_heuristic
from repro.bounds.alpha_crown import AlphaCrownConfig
from repro.bounds.cache import LpCache
from repro.bounds.report import BoundReport
from repro.bounds.splits import ReluSplit, SplitAssignment
from repro.engine.driver import DriverVerdict, FrontierDriver, \
    LinearWorkSource, Neuron
from repro.nn.network import Network
from repro.specs.properties import Specification
from repro.utils.timing import Budget
from repro.utils.validation import require
from repro.verifiers.appver import ApproximateVerifier, AppVerOutcome
from repro.verifiers.attack import AttackConfig, pgd_attack
from repro.verifiers.milp import (
    LEAF_FALSIFIED,
    LEAF_VERIFIED,
    classify_leaf_optimum,
    problem_fingerprint,
    solve_leaf_lp_batch,
)
from repro.verifiers.result import (
    CompletedRun,
    VerificationResult,
    VerificationStatus,
    Verifier,
    VerifierRun,
    make_budget,
)

#: A heap entry: (bound, tie-break counter, splits, outcome).
HeapEntry = Tuple[float, int, SplitAssignment, AppVerOutcome]


class HeapFrontierSource(LinearWorkSource):
    """A best-first (most-violated-bound) heap as a work source.

    Budget starvation pushes the popped entry straight back onto the heap
    (its bound key is unchanged), keeping the unresolved sub-problem alive;
    the TIMEOUT-not-VERIFIED invariants live in
    :class:`~repro.engine.driver.LinearWorkSource`.
    """

    def __init__(self, root_entry: HeapEntry, appver: ApproximateVerifier,
                 heuristic: BranchingHeuristic, spec: Specification,
                 budget: Budget, lp_cache: LpCache, lp_leaf_refinement: bool,
                 root_bound: float,
                 lp_fingerprint: Optional[str] = None) -> None:
        super().__init__(root_bound)
        self.heap: List[HeapEntry] = [root_entry]
        self.appver = appver
        self.heuristic = heuristic
        self.spec = spec
        self.budget = budget
        self.lp_cache = lp_cache
        self.lp_fingerprint = lp_fingerprint
        self.lp_leaf_refinement = lp_leaf_refinement
        self.counter = itertools.count(1)
        self.lp_leaves = 0

    # -- gathering -------------------------------------------------------------
    def has_work(self) -> bool:
        """Whether any unresolved sub-problem is still on the heap."""
        return bool(self.heap)

    def _pop(self) -> HeapEntry:
        """Pop the most-violated sub-problem."""
        return heapq.heappop(self.heap)

    def _reinsert(self, entry: HeapEntry) -> None:
        """Undo a pop: the entry's bound key makes it the next pop again."""
        heapq.heappush(self.heap, entry)

    def select_neuron(self, entry: HeapEntry) -> Optional[Neuron]:
        """Pick the entry's branching neuron (no look-ahead probing)."""
        _, _, splits, outcome = entry
        context = BranchingContext(network=self.appver.lowered,
                                   spec=self.spec.output_spec,
                                   report=outcome.report, splits=splits)
        return self.heuristic.select(context)

    def child_splits(self, entry: HeapEntry, neuron: Neuron,
                     phases: Sequence[int]) -> List[SplitAssignment]:
        """The children's split assignments for the chosen neuron."""
        splits = entry[2]
        return [splits.with_split(ReluSplit(neuron[0], neuron[1], phase))
                for phase in phases]

    def item_report(self, entry: HeapEntry) -> BoundReport:
        """The entry's report — the parent its children are bounded against.

        The root entry holds the α-CROWN root report, so the root's
        children are bounded against the optimised root bounds.
        """
        return entry[3].report

    # -- batched exact leaf resolution -----------------------------------------
    def resolve_leaves(self, entries: List[HeapEntry]) -> Optional[DriverVerdict]:
        """Resolve decided leaves with one batched, cached leaf-LP call."""
        if not self.lp_leaf_refinement:
            self.has_unknown_leaf = True
            return None
        optima = solve_leaf_lp_batch(
            self.appver.lowered, self.spec.input_box, self.spec.output_spec,
            [(entry[2], entry[3].report) for entry in entries],
            cache=self.lp_cache, fingerprint=self.lp_fingerprint,
            timings=self.appver.timings)
        for optimum in optima:
            self.lp_leaves += 1
            verdict, counterexample = classify_leaf_optimum(optimum, self.spec,
                                                            self.appver.network)
            if verdict == LEAF_FALSIFIED:
                return DriverVerdict(VerificationStatus.FALSIFIED,
                                     counterexample=counterexample)
            if verdict != LEAF_VERIFIED:
                self.has_unknown_leaf = True
        return None

    # -- attachment ------------------------------------------------------------
    def attach(self, entry: HeapEntry, phase: int, splits: SplitAssignment,
               outcome: AppVerOutcome) -> Optional[DriverVerdict]:
        """Heap-push one bounded child unless its bound settles it."""
        if outcome.falsified:
            return DriverVerdict(VerificationStatus.FALSIFIED,
                                 counterexample=outcome.candidate,
                                 bound=outcome.p_hat)
        if outcome.verified or outcome.report.infeasible:
            return None
        heapq.heappush(self.heap, (outcome.p_hat, next(self.counter),
                                   splits, outcome))
        return None


class _AlphaBetaRun(VerifierRun):
    """A preemptible αβ-CROWN-style BaB run (stage 3 of ``start_run``)."""

    def __init__(self, verifier: "AlphaBetaCrownVerifier", budget: Budget,
                 lp_cache: LpCache, source: HeapFrontierSource,
                 driver: FrontierDriver,
                 sub_appver: ApproximateVerifier) -> None:
        self.verifier = verifier
        self.budget = budget
        self.lp_cache = lp_cache
        self.source = source
        self.sub_appver = sub_appver
        self._run = driver.start(source, budget)

    def _finish(self, verdict: DriverVerdict) -> VerificationResult:
        return self.verifier._finish(
            verdict.status, self.budget, self.budget.nodes, self.lp_cache,
            self.sub_appver, counterexample=verdict.counterexample,
            bound=verdict.bound, lp_leaves=self.source.lp_leaves)

    def step(self) -> Optional[VerificationResult]:
        """Advance one frontier round; the final result once decided."""
        verdict = self._run.step()
        if verdict is None:
            return None
        return self._finish(verdict)

    def interrupt(self) -> VerificationResult:
        """Stop early, reporting TIMEOUT with the best bound so far."""
        return self._finish(self.source.timeout())


class AlphaBetaCrownVerifier(Verifier):
    """Attack + α-CROWN root + bound-ordered best-first BaB.

    ``lp_cache`` optionally shares a leaf-LP cache across runs on the same
    verification problem (see :class:`~repro.bounds.cache.LpCache`).
    """

    name = "alpha-beta-CROWN"

    def __init__(self, heuristic: str = "deepsplit",
                 attack_config: Optional[AttackConfig] = None,
                 alpha_config: Optional[AlphaCrownConfig] = None,
                 lp_leaf_refinement: bool = True,
                 frontier_size: int = 1,
                 lp_cache: Optional[LpCache] = None,
                 incremental: bool = True) -> None:
        require(frontier_size >= 1, "frontier_size must be positive")
        self.heuristic_name = heuristic
        self.attack_config = attack_config or AttackConfig(steps=25, restarts=3)
        self.alpha_config = alpha_config or AlphaCrownConfig(iterations=6)
        self.lp_leaf_refinement = lp_leaf_refinement
        self.frontier_size = frontier_size
        self.lp_cache = lp_cache
        self.incremental = incremental

    def verify(self, network: Network, spec: Specification,
               budget: Optional[Budget] = None) -> VerificationResult:
        """Attack, then α-CROWN root bound, then best-first engine BaB."""
        return self.start_run(network, spec, budget).run_to_completion()

    def start_run(self, network: Network, spec: Specification,
                  budget: Optional[Budget] = None) -> VerifierRun:
        """Run the attack and root-bound stages; return a resumable BaB run.

        The cheap pre-BaB stages (PGD attack, α-CROWN root bound) execute
        here, so an instance they settle comes back as a
        :class:`~repro.verifiers.result.CompletedRun`; otherwise the
        returned run is preemptible at frontier-round boundaries like the
        other engine-backed verifiers.
        """
        budget = make_budget(budget)
        heuristic = make_heuristic(self.heuristic_name)
        lp_cache = self.lp_cache if self.lp_cache is not None else LpCache()
        # The root α-CROWN bound never reads a bound cache, so the root
        # AppVer runs without one; its (zero) cache counters are what a
        # pre-BaB exit reports.
        appver = ApproximateVerifier(network, spec, "alpha-crown",
                                     alpha_config=self.alpha_config,
                                     use_cache=False)

        # Stage 1: adversarial attack (cheap falsification).
        attack = pgd_attack(network, spec, self.attack_config)
        budget.charge_node()  # the attack costs roughly one bound computation
        if attack.is_counterexample:
            return CompletedRun(self._finish(
                VerificationStatus.FALSIFIED, budget, 1, lp_cache, appver,
                counterexample=attack.best_input,
                bound=attack.best_margin))

        # Stage 2: α-CROWN bound on the root problem.
        root_outcome = appver.evaluate()
        root_cost = 2 + 3 * self.alpha_config.iterations
        budget.charge_node(root_cost)
        if root_outcome.verified or root_outcome.report.infeasible:
            return CompletedRun(self._finish(
                VerificationStatus.VERIFIED, budget, budget.nodes,
                lp_cache, appver, bound=root_outcome.p_hat))
        if root_outcome.falsified:
            return CompletedRun(self._finish(
                VerificationStatus.FALSIFIED, budget, budget.nodes,
                lp_cache, appver, counterexample=root_outcome.candidate,
                bound=root_outcome.p_hat))

        # Stage 3: best-first BaB ordered by the bound (most violated first)
        # on the shared frontier engine, using the cheaper DeepPoly back-end
        # for sub-problems.
        sub_appver = ApproximateVerifier(network, spec, "deeppoly",
                                         incremental=self.incremental)
        root_entry: HeapEntry = (root_outcome.p_hat, 0,
                                 SplitAssignment.empty(), root_outcome)
        # Fingerprint-scoping only matters for an externally shared cache.
        lp_fingerprint = (problem_fingerprint(sub_appver.lowered, spec.input_box,
                                              spec.output_spec)
                          if self.lp_cache is not None else None)
        source = HeapFrontierSource(root_entry, sub_appver, heuristic, spec,
                                    budget, lp_cache, self.lp_leaf_refinement,
                                    root_outcome.p_hat,
                                    lp_fingerprint=lp_fingerprint)
        driver = FrontierDriver(sub_appver, self.frontier_size)
        return _AlphaBetaRun(self, budget, lp_cache, source, driver, sub_appver)

    # -- helpers ---------------------------------------------------------------
    def _finish(self, status: VerificationStatus, budget: Budget, nodes: int,
                lp_cache: LpCache, appver: ApproximateVerifier,
                counterexample: Optional[np.ndarray] = None,
                bound: Optional[float] = None,
                lp_leaves: int = 0) -> VerificationResult:
        return VerificationResult(
            status=status,
            verifier=self.name,
            elapsed_seconds=budget.elapsed_seconds,
            nodes_explored=budget.nodes,
            tree_size=nodes,
            counterexample=counterexample,
            bound=bound,
            extras={"heuristic": self.heuristic_name,
                    "alpha_iterations": self.alpha_config.iterations,
                    "frontier_size": self.frontier_size,
                    "incremental": self.incremental,
                    "lp_leaves_resolved": lp_leaves,
                    "bound_cache": appver.cache_stats(),
                    "lp_cache": lp_cache.stats.as_dict(),
                    "timings": appver.timings.as_dict()},
        )
