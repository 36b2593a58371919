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
from typing import Deque, List, Optional

from repro.bab.domain import BaBNode, BaBStatistics
from repro.bab.heuristics import make_heuristic
from repro.bounds.alpha_crown import AlphaCrownConfig
from repro.bounds.cache import LpCache
from repro.bounds.splits import SplitAssignment
from repro.engine.driver import (
    DriverVerdict,
    FrontierDriver,
    LinearWorkSource,
    Neuron,
    leaf_lp_cache,
    settle_root,
    verification_result,
)
from repro.nn.network import Network
from repro.specs.properties import Specification
from repro.utils.timing import Budget, PhaseTimings
from repro.utils.validation import require
from repro.verifiers.appver import ApproximateVerifier, AppVerOutcome
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


class QueueFrontierSource(LinearWorkSource):
    """A FIFO/LIFO queue of BaB sub-problems as a work source.

    Pops record expansion statistics; budget starvation pushes the popped
    node back to the *front* of its exploration order (undoing the pop's
    statistics) so the unresolved sub-problem keeps the queue alive — the
    TIMEOUT-not-VERIFIED invariants live in
    :class:`~repro.engine.driver.LinearWorkSource`.  The constructor
    arguments after ``statistics`` are
    :class:`~repro.engine.driver.WorkSource`'s.
    """

    def __init__(self, root: BaBNode, exploration: str,
                 statistics: BaBStatistics, *args, **kwargs) -> None:
        super().__init__(root.outcome.p_hat, *args, **kwargs)
        self.queue: Deque[BaBNode] = deque([root])
        self.exploration = exploration
        self.statistics = statistics

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
        neuron = super().select_neuron(node)
        if neuron is not None:
            self.statistics.nodes_split += 1
        return neuron

    # -- batched exact leaf resolution -----------------------------------------
    def resolve_leaves(self, nodes: List[BaBNode]) -> Optional[DriverVerdict]:
        """Resolve decided leaves with one batched, cached leaf-LP call."""
        optima = solve_leaf_lp_batch(
            self.appver.lowered, self.spec.input_box, self.spec.output_spec,
            [(node.splits, node.outcome.report) for node in nodes],
            cache=self.lp_cache, fingerprint=self.lp_fingerprint)
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
        """Queue one bounded child unless its bound settles it."""
        if outcome.falsified:
            return DriverVerdict(VerificationStatus.FALSIFIED,
                                 counterexample=outcome.candidate,
                                 bound=outcome.p_hat)
        if outcome.verified or outcome.report.infeasible:
            self.statistics.nodes_verified += 1
            return None
        self.queue.append(BaBNode(splits, depth=node.depth + 1, outcome=outcome))
        return None


class BaBBaselineVerifier(Verifier):
    """Breadth-first (or depth-first) branch-and-bound verification.

    ``lp_cache`` optionally shares a leaf-LP cache across runs on the same
    verification problem (see :class:`~repro.bounds.cache.LpCache`);
    ``bound_cache`` does the same for the bound cache (the
    verification service scopes both by the problem fingerprint).
    """

    name = "BaB-baseline"

    def __init__(self, heuristic: str = "deepsplit", bound_method: str = "deeppoly",
                 exploration: str = "bfs",
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
        self.alpha_config = alpha_config
        self.frontier_size = frontier_size
        self.lp_cache = lp_cache
        self.incremental = incremental
        self.bound_cache = bound_cache
        if exploration == "dfs":
            self.name = "BaB-dfs"

    def start_run(self, network: Network, spec: Specification,
                  budget: Optional[Budget] = None) -> VerifierRun:
        """Set up BaB and return a run preemptible at round boundaries."""
        budget = make_budget(budget)
        appver = ApproximateVerifier(network, spec, self.bound_method,
                                     alpha_config=self.alpha_config,
                                     incremental=self.incremental,
                                     bound_cache=self.bound_cache)
        heuristic = make_heuristic(self.heuristic_name)
        statistics = BaBStatistics()
        lp_cache, lp_fingerprint = leaf_lp_cache(self.lp_cache, appver, spec)

        def finish(verdict: DriverVerdict,
                   timings: Optional[PhaseTimings] = None) -> VerificationResult:
            statistics.tree_size = appver.num_calls
            return verification_result(
                self.name, verdict, budget, appver, lp_cache,
                nodes=appver.num_calls, frontier_size=self.frontier_size,
                incremental=self.incremental, extras=statistics.as_dict(),
                timings=timings)

        root_outcome = appver.evaluate()
        budget.charge_node()
        settled = settle_root(root_outcome)
        if settled is not None:
            return CompletedRun(finish(settled))

        root = BaBNode(appver.root_splits, depth=0, outcome=root_outcome)
        source = QueueFrontierSource(root, self.exploration, statistics, appver,
                                     spec, heuristic, budget, lp_cache,
                                     lp_fingerprint)
        driver = FrontierDriver(appver, self.frontier_size)
        return driver.start(source, budget, finish)
