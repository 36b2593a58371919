"""ABONN: Adaptive BaB with Order for Neural Network verification (Alg. 1).

ABONN explores the BaB sub-problem space in an MCTS style.  Every iteration
selects up to ``frontier_size`` distinct unexpanded nodes by repeated UCB1
descent from the root (with virtual-loss exclusion so the selections spread
over the tree, and deeper re-descent so dead-ended descents refill the
frontier in sparser trees), expands all of their phase-split children
through **one** batched AppVer call, scores the children with the
counterexample potentiality (Def. 1), and back-propagates rewards (max over
children) and subtree sizes towards the root.  Fully phase-decided leaves
are resolved exactly, one batched (and cached) leaf-LP pass per iteration.

The iteration itself — gathering, budget accounting, batched expansion,
attachment order — is executed by the shared
:class:`~repro.engine.driver.FrontierDriver`; this module contributes the
MCTS work source (selection, potentiality scoring, reward propagation).
With ``frontier_size=1`` (the default) this is exactly the sequential
Alg. 1 loop; larger frontiers feed the batched bound back-ends realised
batch sizes of up to ``2 * frontier_size`` while preserving the sequential
per-child budget semantics at node and wall-clock boundaries (see
``docs/ENGINE.md`` and ``docs/BATCHING.md``).  The run terminates as soon
as

* ``R(ε) = +inf`` — a real counterexample was found (verdict ``false``),
* ``R(ε) = -inf`` — every sub-problem is verified (verdict ``true``), or
* the budget is exhausted (verdict ``timeout``).
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

from repro.bab.heuristics import BranchingHeuristic, make_heuristic
from repro.bounds.cache import LpCache
from repro.bounds.splits import SplitAssignment
from repro.core.config import AbonnConfig
from repro.core.mcts import (
    MctsNode,
    descend_to_leaf,
    propagate_rewards,
    propagate_sizes,
    select_frontier,
)
from repro.core.potentiality import PotentialityScorer
from repro.engine.driver import (
    DriverVerdict,
    FrontierDriver,
    WorkSource,
    leaf_lp_cache,
    settle_root,
    verification_result,
)
from repro.nn.network import Network
from repro.specs.properties import Specification
from repro.utils.timing import Budget, PhaseTimings
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


def _score_child(parent: MctsNode, splits: SplitAssignment,
                 outcome: AppVerOutcome, scorer: PotentialityScorer) -> MctsNode:
    """Create and potentiality-score one freshly bounded child node."""
    child = MctsNode(splits, depth=parent.depth + 1, outcome=outcome, parent=parent)
    child.reward = scorer.score(outcome.p_hat, outcome.falsified, child.depth)
    if outcome.report.infeasible:
        child.reward = float("-inf")
    if outcome.falsified:
        child.counterexample = outcome.candidate
    return child


class MctsFrontierSource(WorkSource):
    """ABONN's MCTS tree as a :class:`~repro.engine.driver.WorkSource`.

    One round gathers a frontier through :func:`select_frontier` (UCB1 with
    virtual-loss exclusion and deeper re-descent), hands unexpanded leaves
    to the driver, and keeps every tree-shaped concern — potentiality
    scoring, reward/size back-propagation, exact LP resolution of decided
    leaves — on this side of the engine contract.  The tree persists across
    rounds, so budget starvation needs no push-back: a starved leaf simply
    stays selectable.
    """

    def __init__(self, root: MctsNode, scorer: PotentialityScorer,
                 config: AbonnConfig, appver: ApproximateVerifier,
                 spec: Specification, heuristic: BranchingHeuristic,
                 budget: Budget, lp_cache: LpCache,
                 lp_fingerprint: Optional[str]) -> None:
        super().__init__(appver, spec, heuristic, budget, lp_cache,
                         lp_fingerprint)
        self.root = root
        self.scorer = scorer
        self.config = config
        self.max_depth = 0
        self.lp_leaves = 0
        self._leaves: List[MctsNode] = []
        self._cursor = 0

    # -- gathering -------------------------------------------------------------
    def has_work(self) -> bool:
        """Always true: the tree persists and verdicts surface elsewhere."""
        # The tree always holds the search state; termination surfaces
        # through ``round_complete`` (root reward) or the driver's budget
        # check (timeout).
        return True

    def begin_round(self, budget: Budget) -> bool:
        """Select the round's frontier by repeated virtual-loss UCB1 descent."""
        self._leaves = select_frontier(self.root, self.config.exploration,
                                       self.config.frontier_size)
        self._cursor = 0
        if not self._leaves:
            # Every reachable branch is verified.  Back-propagate -inf from
            # the dead end, as the sequential loop does; the repeated
            # descent is sound because select_frontier restored all virtual
            # state and UCB1 descent is deterministic.
            propagate_rewards(descend_to_leaf(self.root, self.config.exploration))
            return False
        return True

    def next_item(self, budget: Budget, gathered: int,
                  planned: int) -> Optional[MctsNode]:
        """Yield the next selected leaf, re-checking the node headroom."""
        if self._cursor >= len(self._leaves):
            return None
        if self._cursor:
            # Sequential iterations re-check the budget before every leaf;
            # charges already committed for earlier expansions (``planned``)
            # count against the node headroom too.
            remaining = budget.remaining_nodes()
            if budget.exhausted() or (remaining is not None
                                      and remaining <= planned):
                return None
        leaf = self._leaves[self._cursor]
        self._cursor += 1
        return leaf

    def push_back(self, leaf: MctsNode, gathered: int) -> Optional[DriverVerdict]:
        """Budget starvation: nothing to do, the leaf stays in the tree."""
        # The leaf was never removed from the tree: it stays selectable, and
        # the main loop re-checks the budget (surfacing TIMEOUT) next round.
        return None

    # -- batched exact leaf resolution -----------------------------------------
    def resolve_leaves(self, leaves: List[MctsNode]) -> Optional[DriverVerdict]:
        """Resolve decided leaves with one batched, cached leaf-LP call."""
        optima = solve_leaf_lp_batch(
            self.appver.lowered, self.spec.input_box, self.spec.output_spec,
            [(leaf.splits, leaf.outcome.report) for leaf in leaves],
            cache=self.lp_cache, fingerprint=self.lp_fingerprint)
        for leaf, optimum in zip(leaves, optima):
            self.lp_leaves += 1
            self._apply_leaf_optimum(leaf, optimum)
            propagate_rewards(leaf.parent or leaf)
            if self.root.reward == float("inf"):
                # A leaf LP produced a real counterexample: abandon the rest
                # of the round, exactly as the sequential loop returns.
                return DriverVerdict(VerificationStatus.FALSIFIED,
                                     counterexample=self.root.counterexample)
        return None

    def _apply_leaf_optimum(self, node: MctsNode, optimum) -> None:
        verdict, counterexample = classify_leaf_optimum(optimum, self.spec,
                                                        self.appver.network)
        if verdict == LEAF_FALSIFIED:
            node.reward = float("inf")
            node.counterexample = counterexample
            return
        if verdict != LEAF_VERIFIED:
            self.has_unknown_leaf = True
        node.reward = float("-inf")

    # -- attachment ------------------------------------------------------------
    def attach(self, leaf: MctsNode, phase: int, splits: SplitAssignment,
               outcome: AppVerOutcome) -> Optional[DriverVerdict]:
        """Attach one potentiality-scored child under its frontier leaf."""
        self.scorer.observe(outcome.p_hat)
        child = _score_child(leaf, splits, outcome, self.scorer)
        leaf.children[phase] = child
        self.max_depth = max(self.max_depth, child.depth)
        return None

    def attach_exhausted(self) -> Optional[DriverVerdict]:
        """Wall-clock exhaustion mid-attachment: stop without a verdict."""
        # Stop attaching; the partial expansion stays in the tree and the
        # main loop surfaces TIMEOUT.
        return None

    def leaf_attached(self, leaf: MctsNode, added: int) -> bool:
        """Back-propagate sizes and rewards; stop on a root counterexample."""
        propagate_sizes(leaf, added)
        propagate_rewards(leaf)
        return self.root.reward == float("inf")

    # -- verdicts --------------------------------------------------------------
    def round_complete(self) -> Optional[DriverVerdict]:
        """Map the root reward to a verdict (±inf), or keep searching."""
        if self.root.reward == float("inf"):
            return DriverVerdict(VerificationStatus.FALSIFIED,
                                 counterexample=self.root.counterexample)
        if self.root.reward == float("-inf"):
            status = (VerificationStatus.UNKNOWN if self.has_unknown_leaf
                      else VerificationStatus.VERIFIED)
            return DriverVerdict(status)
        return None

    def timeout(self) -> DriverVerdict:
        """ABONN reports plain TIMEOUT (no bound survives exhaustion)."""
        return DriverVerdict(VerificationStatus.TIMEOUT)

    def drained(self) -> DriverVerdict:  # pragma: no cover - has_work is constant
        """Unreachable (``has_work`` is constant); defensive TIMEOUT."""
        return self.timeout()


class AbonnVerifier(Verifier):
    """The paper's proposed verifier.

    ``lp_cache`` optionally shares a leaf-LP cache across runs *on the same
    verification problem* (the cache key is the leaf's phase-row bytes,
    which only identifies a sub-problem for a fixed network,
    input box and output spec); by default every run gets a fresh cache.
    ``bound_cache`` likewise shares the bound cache across runs
    on one problem (the verification service scopes both by the problem
    fingerprint); it only applies while ``config.use_bound_cache`` is on.
    """

    name = "ABONN"

    def __init__(self, config: Optional[AbonnConfig] = None,
                 lp_cache: Optional[LpCache] = None,
                 bound_cache=None) -> None:
        self.config = config or AbonnConfig()
        self.lp_cache = lp_cache
        self.bound_cache = bound_cache

    # -- public API -----------------------------------------------------------
    def start_run(self, network: Network, spec: Specification,
                  budget: Optional[Budget] = None) -> VerifierRun:
        """Set up Alg. 1 and return a run preemptible at round boundaries."""
        config = self.config
        budget = make_budget(budget)
        appver = ApproximateVerifier(network, spec, config.bound_method,
                                     alpha_config=config.alpha_config,
                                     use_cache=config.use_bound_cache,
                                     cache_size=config.bound_cache_size,
                                     incremental=config.incremental,
                                     bound_cache=self.bound_cache)
        heuristic = make_heuristic(config.heuristic)
        scorer = PotentialityScorer(max(appver.num_relu_neurons, 1), config.lam)
        lp_cache, lp_fingerprint = leaf_lp_cache(self.lp_cache, appver, spec)

        def finish(verdict: DriverVerdict, timings: Optional[PhaseTimings] = None,
                   source: Optional[MctsFrontierSource] = None) -> VerificationResult:
            if source is not None:
                # The search is over: cut the upward links so the tree is
                # no reference cycle and reference counting frees it with
                # the run, not the next generation-2 collection.
                for node in source.root.descendants():
                    node.parent = None
            return verification_result(
                self.name, verdict, budget, appver, lp_cache,
                nodes=appver.num_calls, frontier_size=config.frontier_size,
                incremental=config.incremental, timings=timings,
                extras={"max_depth": source.max_depth if source else 0,
                        "lambda": config.lam,
                        "exploration": config.exploration,
                        "heuristic": config.heuristic,
                        "lp_leaves_resolved": source.lp_leaves if source else 0})

        # Initialisation (Alg. 1 lines 1-3, 8-9).
        root_outcome = appver.evaluate()
        budget.charge_node()
        scorer.observe(root_outcome.p_hat)
        settled = settle_root(root_outcome)
        if settled is not None:
            return CompletedRun(finish(settled))

        root = MctsNode(appver.root_splits, depth=0, outcome=root_outcome)
        root.reward = scorer.score(root_outcome.p_hat, False, 0)

        # Main loop (Alg. 1 lines 4-7) on the shared frontier engine: every
        # round expands up to ``frontier_size`` leaves through one batched
        # AppVer call and resolves the round's decided leaves through one
        # batched, cached leaf-LP call.
        source = MctsFrontierSource(root, scorer, config, appver, spec,
                                    heuristic, budget, lp_cache, lp_fingerprint)
        driver = FrontierDriver(appver, config.frontier_size)
        return driver.start(source, budget, partial(finish, source=source))
