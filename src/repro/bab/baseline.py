"""The naive BaB verifier the paper uses as ``BaB-baseline``.

It explores the sub-problem space breadth-first ("first come, first served",
§IV): whenever a sub-problem's bound raises a false alarm, both children are
created, bounded, and appended to a FIFO queue.  A depth-first variant is
also provided because it is a useful ablation point.

The frontier loop itself runs on the shared
:class:`~repro.engine.driver.FrontierDriver`: this module contributes a thin
queue work source that pops up to ``frontier_size`` sub-problems per round
(FIFO or LIFO) and pushes starved sub-problems back so budget exhaustion
surfaces as TIMEOUT — never as a spurious VERIFIED from an emptied queue.
``frontier_size=1`` (the default) reproduces the sequential loop's
verdicts, counterexamples and charges (one deferred-leaf-LP caveat in the
terminal round when a leaf LP falsifies — see the engine's docstring).

Completeness: when a sub-problem has no unstable neuron left but its bound
is still negative (an artefact of the linear relaxation not feeding the
split constraints back into the input region), the sub-problem is resolved
exactly with the leaf LP of :mod:`repro.verifiers.milp` — the same role the
paper's GUROBI back-end plays.  All decided leaves of one round are solved
through one batched, cached :func:`~repro.verifiers.milp.solve_leaf_lp_batch`
call.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Deque, List, Optional, Sequence

import numpy as np

from repro.bab.domain import BaBNode, BaBStatistics
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


class QueueFrontierSource(LinearWorkSource):
    """A FIFO/LIFO queue of BaB sub-problems as a work source.

    Pops record expansion statistics; budget starvation pushes the popped
    node back to the *front* of its exploration order (undoing the pop's
    statistics) so the unresolved sub-problem keeps the queue alive — the
    TIMEOUT-not-VERIFIED invariants live in
    :class:`~repro.engine.driver.LinearWorkSource`.
    """

    def __init__(self, root: BaBNode, exploration: str,
                 appver: ApproximateVerifier, heuristic: BranchingHeuristic,
                 spec: Specification, statistics: BaBStatistics, budget: Budget,
                 lp_cache: LpCache, lp_leaf_refinement: bool,
                 root_bound: float,
                 lp_fingerprint: Optional[str] = None) -> None:
        super().__init__(root_bound)
        self.queue: Deque[BaBNode] = deque([root])
        self.exploration = exploration
        self.appver = appver
        self.heuristic = heuristic
        self.spec = spec
        self.statistics = statistics
        self.budget = budget
        self.lp_cache = lp_cache
        self.lp_fingerprint = lp_fingerprint
        self.lp_leaf_refinement = lp_leaf_refinement

    # -- gathering -------------------------------------------------------------
    def has_work(self) -> bool:
        """Whether any unresolved sub-problem is still queued."""
        return bool(self.queue)

    def _pop(self) -> BaBNode:
        """Pop in exploration order, recording expansion statistics."""
        node = self.queue.popleft() if self.exploration == "bfs" else self.queue.pop()
        self.statistics.nodes_expanded += 1
        self.statistics.record_depth(node.depth)
        return node

    def _reinsert(self, node: BaBNode) -> None:
        """Undo a pop: restore the statistics and the exploration order."""
        self.statistics.nodes_expanded -= 1
        self.statistics.nodes_split -= 1
        if self.exploration == "bfs":
            self.queue.appendleft(node)
        else:
            self.queue.append(node)

    def select_neuron(self, node: BaBNode) -> Optional[Neuron]:
        """Pick the node's branching neuron and record split statistics."""
        context = BranchingContext(network=self.appver.lowered,
                                   spec=self.spec.output_spec,
                                   report=node.outcome.report, splits=node.splits,
                                   evaluate_split=partial(self._probe, node))
        neuron = self.heuristic.select(context)
        if neuron is not None:
            node.branch_neuron = neuron
            self.statistics.nodes_split += 1
        return neuron

    def child_splits(self, node: BaBNode, neuron: Neuron,
                     phases: Sequence[int]) -> List[SplitAssignment]:
        """The children's split assignments for the chosen neuron."""
        return [node.child_splits(ReluSplit(neuron[0], neuron[1], phase))
                for phase in phases]

    def item_report(self, node: BaBNode) -> BoundReport:
        """The node's report — the parent its children are bounded against."""
        return node.outcome.report

    # -- batched exact leaf resolution -----------------------------------------
    def resolve_leaves(self, nodes: List[BaBNode]) -> Optional[DriverVerdict]:
        """Resolve decided leaves with one batched, cached leaf-LP call."""
        if not self.lp_leaf_refinement:
            self.has_unknown_leaf = True
            return None
        optima = solve_leaf_lp_batch(
            self.appver.lowered, self.spec.input_box, self.spec.output_spec,
            [(node.splits, node.outcome.report) for node in nodes],
            cache=self.lp_cache, fingerprint=self.lp_fingerprint,
            timings=self.appver.timings)
        for optimum in optima:
            self.statistics.leaves_lp_resolved += 1
            verdict, counterexample = classify_leaf_optimum(optimum, self.spec,
                                                            self.appver.network)
            if verdict == LEAF_VERIFIED:
                self.statistics.nodes_verified += 1
            elif verdict == LEAF_FALSIFIED:
                return DriverVerdict(VerificationStatus.FALSIFIED,
                                     counterexample=counterexample)
            else:
                self.has_unknown_leaf = True
        return None

    # -- attachment ------------------------------------------------------------
    def attach(self, node: BaBNode, phase: int, splits: SplitAssignment,
               outcome: AppVerOutcome) -> Optional[DriverVerdict]:
        """Attach one bounded child; queue it unless settled by its bound."""
        child = BaBNode(splits, depth=node.depth + 1, outcome=outcome, parent=node)
        node.children.append(child)
        if outcome.falsified:
            return DriverVerdict(VerificationStatus.FALSIFIED,
                                 counterexample=outcome.candidate,
                                 bound=outcome.p_hat)
        if outcome.verified or outcome.report.infeasible:
            self.statistics.nodes_verified += 1
            return None
        self.queue.append(child)
        return None

    # -- helpers ---------------------------------------------------------------
    def _probe(self, node: BaBNode, split: ReluSplit) -> float:
        """Bound one look-ahead child against the node, as its expansion would."""
        self.budget.charge_node()
        return self.appver.evaluate(node.child_splits(split),
                                    parent=(node.outcome.report, split)).p_hat


class _BaselineRun(VerifierRun):
    """A resumable BaB-baseline run: one driver round per :meth:`step`."""

    def __init__(self, verifier: "BaBBaselineVerifier", budget: Budget,
                 appver: ApproximateVerifier, statistics: BaBStatistics,
                 lp_cache: LpCache, source: QueueFrontierSource,
                 driver: FrontierDriver) -> None:
        self.verifier = verifier
        self.budget = budget
        self.appver = appver
        self.statistics = statistics
        self.lp_cache = lp_cache
        self.source = source
        self._run = driver.start(source, budget)
        self._result: Optional[VerificationResult] = None

    def _finish(self, verdict: DriverVerdict) -> VerificationResult:
        return self.verifier._finish(
            verdict.status, self.budget, self.appver, self.statistics,
            self.lp_cache, counterexample=verdict.counterexample,
            bound=verdict.bound)

    def step(self) -> Optional[VerificationResult]:
        """Advance one frontier round; the final result once finished."""
        if self._result is not None:
            return self._result
        verdict = self._run.step()
        if verdict is None:
            return None
        self._result = self._finish(verdict)
        return self._result

    def interrupt(self) -> VerificationResult:
        """Finish early with the queue source's TIMEOUT (root bound kept)."""
        if self._result is None:
            self._result = self._finish(self.source.timeout())
        return self._result


class BaBBaselineVerifier(Verifier):
    """Breadth-first (or depth-first) branch-and-bound verification.

    ``lp_cache`` optionally shares a leaf-LP cache across runs on the same
    verification problem (see :class:`~repro.bounds.cache.LpCache`);
    ``bound_cache`` does the same for the bound cache (the
    verification service scopes both by the problem fingerprint).
    """

    name = "BaB-baseline"

    def __init__(self, heuristic: str = "deepsplit", bound_method: str = "deeppoly",
                 exploration: str = "bfs", lp_leaf_refinement: bool = True,
                 alpha_config: Optional[AlphaCrownConfig] = None,
                 frontier_size: int = 1,
                 lp_cache: Optional[LpCache] = None,
                 incremental: bool = True,
                 bound_cache=None) -> None:
        require(exploration in ("bfs", "dfs"),
                f"exploration must be 'bfs' or 'dfs', got {exploration!r}")
        require(frontier_size >= 1, "frontier_size must be positive")
        self.heuristic_name = heuristic
        self.bound_method = bound_method
        self.exploration = exploration
        self.lp_leaf_refinement = lp_leaf_refinement
        self.alpha_config = alpha_config
        self.frontier_size = frontier_size
        self.lp_cache = lp_cache
        self.incremental = incremental
        self.bound_cache = bound_cache
        if exploration == "dfs":
            self.name = "BaB-dfs"

    def _make_heuristic(self) -> BranchingHeuristic:
        return make_heuristic(self.heuristic_name)

    def start_run(self, network: Network, spec: Specification,
                  budget: Optional[Budget] = None) -> VerifierRun:
        """Set up BaB and return a run preemptible at round boundaries."""
        budget = make_budget(budget)
        appver = ApproximateVerifier(network, spec, self.bound_method,
                                     alpha_config=self.alpha_config,
                                     incremental=self.incremental,
                                     bound_cache=self.bound_cache)
        heuristic = self._make_heuristic()
        statistics = BaBStatistics()
        lp_cache = self.lp_cache if self.lp_cache is not None else LpCache()

        root_outcome = appver.evaluate()
        budget.charge_node()
        if root_outcome.verified or root_outcome.report.infeasible:
            return CompletedRun(self._finish(
                VerificationStatus.VERIFIED, budget, appver, statistics,
                lp_cache, bound=root_outcome.p_hat))
        if root_outcome.falsified:
            return CompletedRun(self._finish(
                VerificationStatus.FALSIFIED, budget, appver, statistics,
                lp_cache, counterexample=root_outcome.candidate,
                bound=root_outcome.p_hat))

        root = BaBNode(SplitAssignment.empty(), depth=0, outcome=root_outcome)
        # Fingerprint-scoping only matters for an externally shared cache.
        lp_fingerprint = (problem_fingerprint(appver.lowered, spec.input_box,
                                              spec.output_spec)
                          if self.lp_cache is not None else None)
        source = QueueFrontierSource(root, self.exploration, appver, heuristic,
                                     spec, statistics, budget, lp_cache,
                                     self.lp_leaf_refinement, root_outcome.p_hat,
                                     lp_fingerprint=lp_fingerprint)
        driver = FrontierDriver(appver, self.frontier_size)
        return _BaselineRun(self, budget, appver, statistics, lp_cache,
                            source, driver)

    def verify(self, network: Network, spec: Specification,
               budget: Optional[Budget] = None) -> VerificationResult:
        """Run breadth/depth-first BaB on the shared frontier engine."""
        return self.start_run(network, spec, budget).run_to_completion()

    # -- helpers --------------------------------------------------------------
    def _finish(self, status: VerificationStatus, budget: Budget,
                appver: ApproximateVerifier, statistics: BaBStatistics,
                lp_cache: LpCache,
                counterexample: Optional[np.ndarray] = None,
                bound: Optional[float] = None) -> VerificationResult:
        statistics.tree_size = appver.num_calls
        extras = statistics.as_dict()
        extras["frontier_size"] = self.frontier_size
        extras["incremental"] = self.incremental
        extras["bound_cache"] = appver.cache_stats()
        extras["lp_cache"] = lp_cache.stats.as_dict()
        extras["timings"] = appver.timings.as_dict()
        return VerificationResult(
            status=status,
            verifier=self.name,
            elapsed_seconds=budget.elapsed_seconds,
            nodes_explored=appver.num_calls,
            tree_size=appver.num_calls,
            counterexample=counterexample,
            bound=bound,
            extras=extras,
        )
