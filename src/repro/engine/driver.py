"""The shared frontier-driver engine behind every BaB-style verifier.

Before this module existed, the frontier loop — gather up to ``K``
sub-problems, flatten their phase-split children, bound all of them through
one batched AppVer call, then attach the results — was implemented three
times (in ABONN, the BaB baseline, and the αβ-CROWN baseline), each copy
re-stating the budget invariants.  :class:`FrontierDriver` now owns that
loop exactly once, parameterised over a :class:`WorkSource` that describes
*where sub-problems come from* (an MCTS tree, a FIFO/LIFO queue, a
best-first heap) and *where their children go*.

One driver **round** is:

1. **Gather** — pop up to ``frontier_size`` work items from the source.
   Items whose branching heuristic finds no unstable neuron are *fully
   phase-decided leaves*: the driver charges one node for each (the leaf LP
   costs about one bound computation) and defers them for batched exact
   resolution.  For every splittable item the driver asks
   :func:`~repro.verifiers.appver.affordable_phases` which children the
   node budget still pays for, accounting for charges already committed to
   earlier items of the same round (``planned``); a starved item is handed
   back to the source (`push-back`_), and a truncated expansion (only the
   ``r+`` child affordable) ends the gather.
2. **Resolve** — all deferred leaves are resolved in pop order through one
   :func:`~repro.verifiers.milp.solve_leaf_lp_batch` call (the source owns
   the call so it can thread its :class:`~repro.bounds.cache.LpCache`).
3. **Expand** — the children of the whole round are flattened into one
   ``evaluate_batch`` call on the driver's
   :class:`~repro.verifiers.appver.ApproximateVerifier`; this is the only
   place in the library where a search driver reaches the batched bound
   back-ends, so realised batch sizes are accounted exactly once.  Each
   child is dispatched together with its *parent*: the gathered item's own
   bound report (via :meth:`WorkSource.item_report`) and the split that
   creates the child.  The bound back-end then re-bounds only the neurons
   unstable in the parent, so the ≤2K children of a round cost only their
   parents' unstable rows above each split layer.
4. **Attach** — outcomes are handed back to the source one child at a time
   in selection order, each preceded by the sequential wall-clock re-check
   and followed by one node charge, so a frontier of ``K`` behaves at
   budget boundaries exactly like ``K`` sequential iterations.

.. _push-back:

**Budget-starvation push-back.**  When ``affordable_phases`` returns no
phases for a gathered item, the sub-problem is *unresolved but unexpanded*.
Queue/heap sources must push the item back so the unresolved sub-problem
keeps the source non-empty and exhaustion surfaces as TIMEOUT — never as a
spurious VERIFIED from a drained queue; when nothing else was gathered they
return TIMEOUT immediately.  Tree sources simply leave the leaf in the tree
(it stays selectable) and let the main loop re-check the budget.

Verdicts flow back as :class:`DriverVerdict` values; ``None`` from a hook
always means "keep going".

A verifier is its search order.  Everything else the three verifiers share
lives here once: the expansion path over node items (branching with the
look-ahead probe, the children's splits, the parent report) on
:class:`WorkSource`, the resumable run (:class:`DriverRun`, which maps the
terminal verdict to a :class:`~repro.verifiers.result.VerificationResult`
through the verifier's finish function), the result with its shared
``extras`` blocks (:func:`verification_result`), the run's leaf-LP cache
(:func:`leaf_lp_cache`) and the root settlement (:func:`settle_root`).
Each verifier module keeps only its search state and its leaf-LP call.

The run's one clock lives here too: each :class:`DriverRun` owns a
:class:`~repro.utils.timing.PhaseTimings` that only the engine writes
(``setup``, then each round's ``select`` / ``branch`` / ``lp`` /
``bound`` / ``attach``), reported as ``extras["timings"]``.  Nothing
below the engine takes or records a timing.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import partial
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional, Protocol,
                    Sequence, Tuple)

import numpy as np

from repro.bounds.cache import LpCache
from repro.bounds.report import BoundReport
from repro.bounds.splits import ReluSplit, SplitAssignment
from repro.specs.properties import Specification
from repro.utils.timing import Budget, PhaseTimings
from repro.utils.validation import require
from repro.verifiers.appver import (
    ApproximateVerifier,
    AppVerOutcome,
    affordable_phases,
)
from repro.verifiers.milp import problem_fingerprint
from repro.verifiers.result import (
    VerificationResult,
    VerificationStatus,
    VerifierRun,
)

if TYPE_CHECKING:  # the ``repro.bab`` package imports this module
    from repro.bab.heuristics import BranchingHeuristic

#: A ReLU neuron identified by ``(layer, unit)``.
Neuron = Tuple[int, int]


@dataclass
class DriverVerdict:
    """A terminal outcome of a driver run (or of one of its hooks).

    ``status`` is the verification verdict; ``counterexample`` is a real,
    validated counterexample when the status is FALSIFIED; ``bound`` is the
    bound the owning verifier wants reported (sources that track the root
    ``p̂`` attach it to their TIMEOUT verdicts).
    """

    status: VerificationStatus
    counterexample: Optional[np.ndarray] = None
    bound: Optional[float] = None


def settle_root(outcome: AppVerOutcome) -> Optional[DriverVerdict]:
    """The verdict when the root bound alone decides the problem, else ``None``.

    A positive or infeasible root is VERIFIED and a root whose candidate is
    a real counterexample is FALSIFIED; both report the root ``p̂``.
    """
    if outcome.verified or outcome.report.infeasible:
        return DriverVerdict(VerificationStatus.VERIFIED, bound=outcome.p_hat)
    if outcome.falsified:
        return DriverVerdict(VerificationStatus.FALSIFIED,
                             counterexample=outcome.candidate,
                             bound=outcome.p_hat)
    return None


def leaf_lp_cache(shared: Optional[LpCache], appver: ApproximateVerifier,
                  spec: Specification) -> Tuple[LpCache, Optional[str]]:
    """The run's leaf-LP cache and the fingerprint that scopes its keys.

    Without a ``shared`` cache the run gets a fresh one; it never sees
    another problem's keys, so the weight digest is skipped (``None``).  A
    cache pinned to this problem (:attr:`LpCache.fingerprint
    <repro.bounds.cache.LpCache>`, as in a service cache bundle) supplies
    its fingerprint; any other shared cache has the problem hashed here.
    """
    if shared is None:
        return LpCache(), None
    return shared, shared.fingerprint or problem_fingerprint(
        appver.lowered, spec.input_box, spec.output_spec)


def verification_result(verifier: str, verdict: DriverVerdict, budget: Budget,
                        appver: ApproximateVerifier, lp_cache: LpCache, *,
                        nodes: int, frontier_size: int, incremental: bool,
                        extras: Dict[str, object],
                        timings: Optional[PhaseTimings] = None) -> VerificationResult:
    """Map a terminal verdict to the result every verifier reports.

    ``nodes`` is the verifier's node count (``nodes_explored`` and
    ``tree_size``) and ``extras`` its own keys; this function adds the
    shared blocks: ``frontier_size``, ``incremental``, ``bound_cache`` and
    ``lp_cache`` (from ``appver`` and ``lp_cache``) and ``timings``, the
    run's stage times as ``{stage: {"seconds", "count"}}``.  ``timings`` is
    the :class:`DriverRun`'s (see :meth:`FrontierDriver._round` for the
    stages); a result that never reached the driver (a root-settled run, an
    attack's counterexample) spent all of its time in ``setup``.
    """
    elapsed = budget.elapsed_seconds
    if timings is None:
        timings = PhaseTimings()
        timings.record("setup", elapsed)
    return VerificationResult(
        status=verdict.status,
        verifier=verifier,
        elapsed_seconds=elapsed,
        nodes_explored=nodes,
        tree_size=nodes,
        counterexample=verdict.counterexample,
        bound=verdict.bound,
        extras={**extras,
                "frontier_size": frontier_size,
                "incremental": incremental,
                "bound_cache": appver.cache_stats(),
                "lp_cache": lp_cache.stats.as_dict(),
                "timings": timings.as_dict()},
    )


class Node(Protocol):
    """A work item: one sub-problem's split assignment and AppVer outcome."""

    splits: SplitAssignment
    outcome: AppVerOutcome


@dataclass
class Expansion:
    """One gathered work item together with its planned phase-split children.

    ``item`` is the node the :class:`WorkSource` yielded; ``phases`` are the
    affordable child phases in expansion order and ``child_splits`` the
    corresponding split assignments, index-aligned with ``phases``.
    """

    item: Any
    neuron: Neuron
    phases: Tuple[int, ...]
    child_splits: List[SplitAssignment]


class WorkSource(abc.ABC):
    """What a verifier must provide to run on the :class:`FrontierDriver`.

    A source is constructed per run and owns the run's mutable search state
    (tree / queue / heap, statistics).  Hooks returning
    ``Optional[DriverVerdict]`` end the run when they return a verdict and
    continue otherwise.

    Work items are :class:`Node` objects (``.splits`` and ``.outcome``), so
    the base class implements the expansion path every search order
    shares: :meth:`select_neuron` (with the look-ahead probe),
    :meth:`child_splits` and :meth:`item_report`.  It also holds what
    every source's ``resolve_leaves`` reads: the AppVer, the specification,
    the run's leaf-LP cache and its fingerprint.
    """

    #: Whether branching may bound look-ahead children (FSB's probes, each
    #: charged as one node).
    probes = True

    def __init__(self, appver: ApproximateVerifier, spec: Specification,
                 heuristic: BranchingHeuristic, budget: Budget, lp_cache: LpCache,
                 lp_fingerprint: Optional[str]) -> None:
        self.appver = appver
        self.spec = spec
        self.heuristic = heuristic
        self.budget = budget
        self.lp_cache = lp_cache
        self.lp_fingerprint = lp_fingerprint
        self.has_unknown_leaf = False

    @abc.abstractmethod
    def has_work(self) -> bool:
        """Whether any unresolved sub-problem remains (checked per round)."""

    def begin_round(self, budget: Budget) -> bool:
        """Prepare one round; ``False`` skips gathering for this round.

        Tree sources run their frontier selection here (and handle a
        dead-ended descent by back-propagating before returning ``False``);
        queue/heap sources need no preparation.
        """
        return True

    @abc.abstractmethod
    def next_item(self, budget: Budget, gathered: int, planned: int) -> Any:
        """Pop the next work item, or ``None`` to stop gathering this round.

        ``gathered`` is the number of expansions already planned this round
        and ``planned`` the node charges they have committed; sources use
        them for their pre-pop budget policy.  Returning a
        :class:`DriverVerdict` aborts the run (after deferred leaves are
        resolved) — this is how queue/heap sources surface wall-clock
        TIMEOUT when nothing could be gathered.
        """

    def select_neuron(self, node: Node) -> Optional[Neuron]:
        """Pick the node's branching neuron, or ``None`` for a decided leaf.

        With :attr:`probes` on, a look-ahead heuristic (FSB) bounds
        candidate children through :meth:`_probe`.
        """
        # Imported here: the ``repro.bab`` package imports this module.
        from repro.bab.heuristics import BranchingContext
        context = BranchingContext(
            network=self.appver.lowered, spec=self.spec.output_spec,
            report=node.outcome.report, splits=node.splits,
            evaluate_split=partial(self._probe, node) if self.probes else None)
        return self.heuristic.select(context)

    def _probe(self, node: Node, split: ReluSplit) -> float:
        """Bound one look-ahead child against the node, as its expansion would."""
        self.budget.charge_node()
        return self.appver.evaluate(node.splits.with_split(split),
                                    parent=(node.outcome.report, split)).p_hat

    def child_splits(self, node: Node, neuron: Neuron,
                     phases: Sequence[int]) -> List[SplitAssignment]:
        """Split assignments of the node's children, aligned with ``phases``."""
        layer, unit = neuron
        return [node.splits.with_split(ReluSplit(layer, unit, phase))
                for phase in phases]

    def item_report(self, node: Node) -> BoundReport:
        """The node's own bound report (the parent of its children).

        The driver passes it with each child's split through
        ``evaluate_batch(parents=...)``, so the child is bounded against it.
        """
        return node.outcome.report

    @abc.abstractmethod
    def push_back(self, item: Any, gathered: int) -> Optional[DriverVerdict]:
        """Budget starvation: no child of ``item`` is affordable.

        Queue/heap sources re-enqueue the item (and return TIMEOUT when
        ``gathered`` is zero, i.e. the whole round starved); tree sources
        leave the leaf selectable and return ``None``.
        """

    @abc.abstractmethod
    def resolve_leaves(self, items: List[Any]) -> Optional[DriverVerdict]:
        """Exactly resolve fully phase-decided leaves, in pop order.

        The driver has already charged one node per leaf.  Sources resolve
        all leaves through one :func:`~repro.verifiers.milp.solve_leaf_lp_batch`
        call (threading their LP cache) and apply the outcomes in order,
        returning FALSIFIED as soon as an optimum yields a real
        counterexample.
        """

    @abc.abstractmethod
    def attach(self, item: Any, phase: int, splits: SplitAssignment,
               outcome: AppVerOutcome) -> Optional[DriverVerdict]:
        """Attach one bounded child (already charged) to the search state."""

    def attach_exhausted(self) -> Optional[DriverVerdict]:
        """Wall-clock ran out between two children of the same round.

        Queue/heap sources return TIMEOUT; tree sources return ``None`` so
        the driver just stops attaching (the partial expansion stays in the
        tree and the main loop surfaces TIMEOUT).
        """
        return None

    def leaf_attached(self, item: Any, added: int) -> bool:
        """All of ``item``'s children for this round are attached.

        ``added`` is at least 1.  Tree sources back-propagate here and
        return ``True`` to stop attaching the rest of the round (a real
        counterexample reached the root); others return ``False``.
        """
        return False

    def round_complete(self) -> Optional[DriverVerdict]:
        """Inspect the search state after a round (e.g. the root reward)."""
        return None

    def truncated(self) -> Optional[DriverVerdict]:
        """The round's last expansion was truncated to a single child.

        Queue/heap sources return TIMEOUT (the budget affords no sibling and
        the search cannot make further progress this run); tree sources
        return ``None`` and let the main loop re-check the budget.
        """
        return None

    @abc.abstractmethod
    def timeout(self) -> DriverVerdict:
        """The TIMEOUT verdict (sources attach their reported bound)."""

    @abc.abstractmethod
    def drained(self) -> DriverVerdict:
        """Verdict when no work remains: VERIFIED, or UNKNOWN when any leaf
        resisted exact resolution."""


class LinearWorkSource(WorkSource):
    """Shared behaviour of sources backed by a linear container (queue/heap).

    Unlike a tree source, a linear source *removes* items when popping, so
    the soundness-critical invariants live here exactly once: budget
    starvation re-inserts the popped item (``_reinsert``) so the unresolved
    sub-problem keeps the container non-empty and exhaustion surfaces as
    TIMEOUT — never as a spurious VERIFIED from a drained container — and
    every exhaustion verdict (``timeout``/``truncated``/``attach_exhausted``)
    carries the root bound.  Subclasses provide ``_pop`` (which may also
    record statistics) and ``_reinsert`` (which must undo them).  The
    constructor takes the root bound, then :class:`WorkSource`'s arguments.
    """

    def __init__(self, root_bound: float, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.root_bound = root_bound

    def next_item(self, budget: Budget, gathered: int, planned: int) -> Any:
        """Pop the next sub-problem, minding the wall clock before the pop."""
        if not self.has_work():
            return None
        if budget.exhausted():
            if gathered:
                return None  # charge the gathered batch; TIMEOUT surfaces next round
            return self.timeout()
        return self._pop()

    def push_back(self, item: Any, gathered: int) -> Optional[DriverVerdict]:
        """Budget starvation: re-insert the item (TIMEOUT when round empty)."""
        if not gathered:
            return self.timeout()
        self._reinsert(item)
        return None

    def attach_exhausted(self) -> Optional[DriverVerdict]:
        """Wall-clock exhaustion between two children is a TIMEOUT."""
        return self.timeout()

    def truncated(self) -> Optional[DriverVerdict]:
        """A truncated expansion means the budget is effectively spent."""
        return self.timeout()

    def timeout(self) -> DriverVerdict:
        """TIMEOUT carrying the root bound, as the sequential loops reported."""
        return DriverVerdict(VerificationStatus.TIMEOUT, bound=self.root_bound)

    def drained(self) -> DriverVerdict:
        """Container empty: VERIFIED, or UNKNOWN if any leaf resisted the LP."""
        status = (VerificationStatus.UNKNOWN if self.has_unknown_leaf
                  else VerificationStatus.VERIFIED)
        return DriverVerdict(status)

    @abc.abstractmethod
    def _pop(self):
        """Remove and return the next sub-problem in exploration order."""

    @abc.abstractmethod
    def _reinsert(self, item) -> None:
        """Undo a pop so the item is the next to be re-popped."""


class DriverRun(VerifierRun):
    """A resumable :class:`FrontierDriver` run: one :meth:`step` per round.

    The driver's main loop — check work, check the wall clock, execute one
    gather → resolve → expand → attach round, consult ``round_complete`` —
    is re-entrant at round boundaries, which is what lets a scheduler
    multiplex many verification jobs over one process: each job advances one
    round at a time and yields between rounds, with all budget accounting
    (``affordable_phases``, per-child charges, wall-clock re-checks)
    happening inside the round, so interleaving the steps of several runs
    cannot change any single run's trajectory.

    ``finish`` maps the terminal verdict and the run's :attr:`timings` to
    the verifier's result.  The run memoises that result: every later
    :meth:`step` and :meth:`interrupt` returns the identical object.

    :attr:`timings` is the run's one clock.  It opens with ``setup``, the
    budget's elapsed seconds when the run is created (AppVer construction,
    the root bound and any pre-search stage), and each round adds its
    stages (see :meth:`FrontierDriver._round`).
    """

    def __init__(self, driver: "FrontierDriver", source: WorkSource,
                 budget: Budget,
                 finish: Callable[[DriverVerdict, PhaseTimings],
                                  VerificationResult]) -> None:
        self.driver = driver
        self.source = source
        self.budget = budget
        self.finish = finish
        self.timings = PhaseTimings()
        self.timings.record("setup", budget.elapsed_seconds)
        self._result: Optional[VerificationResult] = None

    def step(self) -> Optional[VerificationResult]:
        """Execute at most one driver round.

        Returns the finished result once the run has a verdict (and on every
        call thereafter), ``None`` while more rounds remain.
        """
        if self._result is not None:
            return self._result
        if not self.source.has_work():
            verdict = self.source.drained()
        elif self.budget.exhausted():
            verdict = self.source.timeout()
        else:
            verdict = self.driver._round(self.source, self.budget, self.timings)
            if verdict is None:
                verdict = self.source.round_complete()
            if verdict is None:
                return None
        self._result = self.finish(verdict, self.timings)
        return self._result

    def interrupt(self) -> VerificationResult:
        """The finished result, or finish now with the source's TIMEOUT."""
        if self._result is None:
            self._result = self.finish(self.source.timeout(), self.timings)
        return self._result


class FrontierDriver:
    """Runs a :class:`WorkSource` to a verdict with frontier-wide batching.

    The driver owns the loop skeleton and the budget invariants — the
    ``affordable_phases(budget, planned)`` accounting, the one-node charge
    per attached child and per deferred leaf LP, and the wall-clock
    re-checks between children — while every search-strategy decision stays
    in the source.  ``frontier_size=1`` reproduces the sequential drivers'
    verdicts, counterexamples and charges, with one caveat from the
    deferred leaf-LP batching: a round's decided leaves resolve *after*
    gathering, so when a leaf LP falsifies, items popped later in the same
    round were already popped and charged (further decided leaves charge
    their LP node; a probing heuristic additionally charges its look-ahead
    probes) where the sequential loop returned mid-gather before reaching
    them.  The verdict and counterexample are unchanged; only the terminal
    round's charge count can differ, and only when a round mixes a
    falsifying decided leaf with later pops.
    """

    def __init__(self, appver: ApproximateVerifier, frontier_size: int = 1) -> None:
        require(frontier_size >= 1, "frontier_size must be positive")
        self.appver = appver
        self.frontier_size = int(frontier_size)

    def start(self, source: WorkSource, budget: Budget,
              finish: Callable[[DriverVerdict, PhaseTimings],
                               VerificationResult]) -> DriverRun:
        """Begin a resumable run; the caller steps it one round at a time."""
        return DriverRun(self, source, budget, finish)

    # -- one gather → resolve → expand → attach round --------------------------
    def _round(self, source: WorkSource, budget: Budget,
               timings: PhaseTimings) -> Optional[DriverVerdict]:
        """One round, each stage timed into ``timings``.

        The stages are ``select`` (:meth:`WorkSource.begin_round`),
        ``branch`` (the gather: pops, the branching heuristic with any
        look-ahead probes, and the children's splits), ``lp`` (the deferred
        leaves' :meth:`WorkSource.resolve_leaves`), ``bound`` (the batched
        ``evaluate_batch`` call with candidate validation) and ``attach``
        (:meth:`_attach`, with the sources' back-propagation).
        """
        with timings.measure("select"):
            ready = source.begin_round(budget)
        if not ready:
            return None

        plan: List[Expansion] = []
        pending: List[Any] = []  # fully phase-decided leaves, in pop order
        planned = 0
        truncated = False
        gather_verdict: Optional[DriverVerdict] = None
        with timings.measure("branch"):
            while len(plan) < self.frontier_size and not truncated:
                item = source.next_item(budget, len(plan), planned)
                if item is None:
                    break
                if isinstance(item, DriverVerdict):
                    gather_verdict = item
                    break
                neuron = source.select_neuron(item)
                if neuron is None:
                    # The leaf LP costs about one bound computation; the
                    # solve itself is deferred so the whole round resolves
                    # in one batched call.
                    budget.charge_node()
                    pending.append(item)
                    continue
                phases = affordable_phases(budget, planned)
                if not phases:
                    gather_verdict = source.push_back(item, len(plan))
                    break
                plan.append(Expansion(item, neuron, phases,
                                      source.child_splits(item, neuron, phases)))
                planned += len(phases)
                truncated = len(phases) < 2

        # Deferred exact resolution before any verdict: the leaves were
        # charged, so their outcomes (in pop order) take effect exactly as
        # in the sequential interleaving.
        if pending:
            with timings.measure("lp"):
                verdict = source.resolve_leaves(pending)
            if verdict is not None:
                return verdict
        if gather_verdict is not None:
            return gather_verdict
        if not plan:
            return None

        # One batched AppVer call bounds the children of the whole round;
        # this is the engine's single point of batched-bound dispatch.  Each
        # child carries its parent's report and its own split, so it is
        # bounded against the parent instead of from scratch.
        with timings.measure("bound"):
            flat_splits = [splits for expansion in plan
                           for splits in expansion.child_splits]
            flat_parents = []
            for expansion in plan:
                report = source.item_report(expansion.item)
                layer, unit = expansion.neuron
                flat_parents.extend((report, ReluSplit(layer, unit, phase))
                                    for phase in expansion.phases)
            outcomes = self.appver.evaluate_batch(flat_splits, parents=flat_parents)

        with timings.measure("attach"):
            verdict = self._attach(source, plan, outcomes, budget)
        if verdict is not None:
            return verdict
        if truncated:
            return source.truncated()
        return None

    def _attach(self, source: WorkSource, plan: List[Expansion],
                outcomes: List[AppVerOutcome],
                budget: Budget) -> Optional[DriverVerdict]:
        """Hand outcomes back in selection order with sequential charges.

        Wall-clock exhaustion between two children ends the attachment: the
        cut expansion is not handed to ``leaf_attached``, whose contract is
        "all children attached", so it is never back-propagated as complete.
        """
        outcomes = iter(outcomes)
        first_child = True
        for expansion in plan:
            for phase, splits in zip(expansion.phases, expansion.child_splits):
                if not first_child and budget.exhausted():
                    return source.attach_exhausted()
                budget.charge_node()
                first_child = False
                verdict = source.attach(expansion.item, phase, splits, next(outcomes))
                if verdict is not None:
                    return verdict
            if source.leaf_attached(expansion.item, len(expansion.phases)):
                break  # a real counterexample surfaced; stop attaching more
        return None
