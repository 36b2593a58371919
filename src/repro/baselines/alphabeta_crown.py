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
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional

from repro.bab.heuristics import make_heuristic
from repro.bounds.alpha_crown import AlphaCrownConfig
from repro.bounds.cache import LpCache
from repro.bounds.splits import SplitAssignment
from repro.engine.driver import (
    DriverVerdict,
    FrontierDriver,
    LinearWorkSource,
    leaf_lp_cache,
    settle_root,
    verification_result,
)
from repro.nn.network import Network
from repro.specs.properties import Specification
from repro.utils.timing import Budget, PhaseTimings
from repro.utils.validation import require
from repro.verifiers.appver import ApproximateVerifier, AppVerOutcome
from repro.verifiers.attack import AttackConfig, pgd_attack
from repro.verifiers.milp import (
    LEAF_FALSIFIED,
    LEAF_VERIFIED,
    classify_leaf_optimum,
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


@dataclass(order=True)
class HeapNode:
    """A best-first sub-problem, ordered by ``(p̂, counter)``: most violated
    first, ties in push order."""

    p_hat: float
    counter: int
    splits: SplitAssignment = field(compare=False)
    outcome: AppVerOutcome = field(compare=False)


class HeapFrontierSource(LinearWorkSource):
    """A best-first (most-violated-bound) heap as a work source.

    Budget starvation pushes the popped node straight back onto the heap
    (its ``(p̂, counter)`` key is unchanged), keeping the unresolved
    sub-problem alive; the TIMEOUT-not-VERIFIED invariants live in
    :class:`~repro.engine.driver.LinearWorkSource`.  Branching never bounds
    look-ahead children.  The constructor arguments after ``root`` are
    :class:`~repro.engine.driver.WorkSource`'s.
    """

    probes = False

    def __init__(self, root: HeapNode, *args, **kwargs) -> None:
        super().__init__(root.p_hat, *args, **kwargs)
        self.heap: List[HeapNode] = [root]
        self.counter = itertools.count(root.counter + 1)
        self.lp_leaves = 0

    # -- gathering -------------------------------------------------------------
    def has_work(self) -> bool:
        """Whether any unresolved sub-problem is still on the heap."""
        return bool(self.heap)

    def _pop(self) -> HeapNode:
        """Pop the most-violated sub-problem."""
        return heapq.heappop(self.heap)

    def _reinsert(self, node: HeapNode) -> None:
        """Undo a pop: the node's key makes it the next pop again."""
        heapq.heappush(self.heap, node)

    # -- batched exact leaf resolution -----------------------------------------
    def resolve_leaves(self, nodes: List[HeapNode]) -> Optional[DriverVerdict]:
        """Resolve decided leaves with one batched, cached leaf-LP call."""
        optima = solve_leaf_lp_batch(
            self.appver.lowered, self.spec.input_box, self.spec.output_spec,
            [(node.splits, node.outcome.report) for node in nodes],
            cache=self.lp_cache, fingerprint=self.lp_fingerprint)
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
    def attach(self, node: HeapNode, phase: int, splits: SplitAssignment,
               outcome: AppVerOutcome) -> Optional[DriverVerdict]:
        """Heap-push one bounded child unless its bound settles it."""
        if outcome.falsified:
            return DriverVerdict(VerificationStatus.FALSIFIED,
                                 counterexample=outcome.candidate,
                                 bound=outcome.p_hat)
        if outcome.verified or outcome.report.infeasible:
            return None
        heapq.heappush(self.heap, HeapNode(outcome.p_hat, next(self.counter),
                                           splits, outcome))
        return None


class AlphaBetaCrownVerifier(Verifier):
    """Attack + α-CROWN root + bound-ordered best-first BaB.

    ``lp_cache`` optionally shares a leaf-LP cache across runs on the same
    verification problem (see :class:`~repro.bounds.cache.LpCache`).
    """

    name = "alpha-beta-CROWN"

    def __init__(self, heuristic: str = "deepsplit",
                 attack_config: Optional[AttackConfig] = None,
                 alpha_config: Optional[AlphaCrownConfig] = None,
                 frontier_size: int = 1,
                 lp_cache: Optional[LpCache] = None,
                 incremental: bool = True) -> None:
        require(frontier_size >= 1, "frontier_size must be positive")
        self.heuristic_name = heuristic
        self.attack_config = attack_config or AttackConfig(steps=25, restarts=3)
        self.alpha_config = alpha_config or AlphaCrownConfig(iterations=6)
        self.frontier_size = frontier_size
        self.lp_cache = lp_cache
        self.incremental = incremental

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
        # The root α-CROWN bound never reads a bound cache, so the root
        # AppVer runs without one; its (zero) cache counters are what a
        # pre-BaB exit reports.
        appver = ApproximateVerifier(network, spec, "alpha-crown",
                                     alpha_config=self.alpha_config,
                                     use_cache=False)
        lp_cache, lp_fingerprint = leaf_lp_cache(self.lp_cache, appver, spec)

        def finish(verdict: DriverVerdict, timings: Optional[PhaseTimings] = None,
                   source: Optional[HeapFrontierSource] = None) -> VerificationResult:
            # Node counts are budget charges; a BaB exit reports the DeepPoly
            # sub-AppVer, a pre-BaB exit the α-CROWN root AppVer.
            return verification_result(
                self.name, verdict, budget, source.appver if source else appver,
                lp_cache, nodes=budget.nodes, frontier_size=self.frontier_size,
                incremental=self.incremental, timings=timings,
                extras={"heuristic": self.heuristic_name,
                        "alpha_iterations": self.alpha_config.iterations,
                        "lp_leaves_resolved": source.lp_leaves if source else 0})

        # Stage 1: adversarial attack (cheap falsification).
        attack = pgd_attack(network, spec, self.attack_config)
        budget.charge_node()  # the attack costs roughly one bound computation
        if attack.is_counterexample:
            return CompletedRun(finish(DriverVerdict(
                VerificationStatus.FALSIFIED, counterexample=attack.best_input,
                bound=attack.best_margin)))

        # Stage 2: α-CROWN bound on the root problem.
        root_outcome = appver.evaluate()
        budget.charge_node(2 + 3 * self.alpha_config.iterations)
        settled = settle_root(root_outcome)
        if settled is not None:
            return CompletedRun(finish(settled))

        # Stage 3: best-first BaB ordered by the bound (most violated first)
        # on the shared frontier engine, using the cheaper DeepPoly back-end
        # for sub-problems.  The root node holds the α-CROWN report, so the
        # root's children are bounded against the optimised root bounds.
        sub_appver = ApproximateVerifier(network, spec, "deeppoly",
                                         incremental=self.incremental)
        root = HeapNode(root_outcome.p_hat, 0, sub_appver.root_splits,
                        root_outcome)
        source = HeapFrontierSource(root, sub_appver, spec, heuristic, budget,
                                    lp_cache, lp_fingerprint)
        driver = FrontierDriver(sub_appver, self.frontier_size)
        return driver.start(source, budget, partial(finish, source=source))
