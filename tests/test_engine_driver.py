"""Tests for the shared frontier engine (``repro.engine.driver``).

Two layers of coverage:

* **contract tests** drive :class:`FrontierDriver` with a scripted
  :class:`WorkSource` and a stub AppVer, pinning the round lifecycle —
  charge points, deferred leaf-LP resolution order, starvation push-back,
  truncation — independently of any real verifier;
* **integration tests** assert verdict equality at ``K ∈ {1, 2, 8}`` for
  all three work sources (MCTS tree, FIFO/LIFO queue, best-first heap) and
  that the engine is the *only* place that dispatches batched bounds.
"""

import inspect
from pathlib import Path

import pytest

import repro.bab.baseline
import repro.baselines.alphabeta_crown
import repro.core.abonn

from repro.bab import BaBBaselineVerifier
from repro.baselines.alphabeta_crown import AlphaBetaCrownVerifier
from repro.bounds.splits import SplitAssignment
from repro.core.abonn import AbonnVerifier
from repro.core.config import AbonnConfig
from repro.engine.driver import DriverVerdict, FrontierDriver, WorkSource
from repro.specs.robustness import local_robustness_spec
from repro.utils import Budget
from repro.verifiers.appver import ApproximateVerifier
from repro.verifiers.milp import MilpVerifier
from repro.verifiers.result import (
    CompletedRun,
    MonolithicRun,
    VerificationResult,
    VerificationStatus,
    Verifier,
    VerifierRun,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def problem(dataset, index, epsilon):
    image, label = dataset.sample(index)
    return local_robustness_spec(image.reshape(-1), epsilon, label,
                                 dataset.num_classes)


class StubAppver:
    """Records evaluate_batch calls and returns placeholder outcomes."""

    def __init__(self):
        self.batches = []
        self.parent_batches = []

    def evaluate_batch(self, splits_list, parents=None):
        self.batches.append(list(splits_list))
        self.parent_batches.append(list(parents) if parents is not None else None)
        return [f"outcome-{i}" for i in range(len(splits_list))]


class ScriptedSource(WorkSource):
    """A WorkSource driven by a script of (kind, payload) work items.

    ``items`` entries: ``("leaf", name)`` → fully decided leaf;
    ``("split", name)`` → splittable item with two children.
    """

    def __init__(self, items, resolve_verdict=None, starve_after=None):
        self.items = list(items)
        self.resolve_verdict = resolve_verdict
        self.starve_after = starve_after  # item names that starve (no phases)
        self.events = []
        self.resolved = []
        self.attached = []
        self.unknown = False

    def has_work(self):
        return bool(self.items)

    def next_item(self, budget, gathered, planned):
        if not self.items:
            return None
        return self.items.pop(0)

    def select_neuron(self, item):
        kind, name = item
        return None if kind == "leaf" else (0, 0)

    def child_splits(self, item, neuron, phases):
        return [SplitAssignment.empty((1,)) for _ in phases]

    def item_report(self, item):
        return f"report-{item[1]}"

    def push_back(self, item, gathered):
        self.events.append(("push_back", item[1], gathered))
        if not gathered:
            return self.timeout()
        self.items.insert(0, item)
        return None

    def resolve_leaves(self, items):
        self.resolved.append([name for _, name in items])
        return self.resolve_verdict

    def attach(self, item, phase, splits, outcome):
        self.attached.append((item[1], phase, outcome))
        return None

    def timeout(self):
        return DriverVerdict(VerificationStatus.TIMEOUT)

    def drained(self):
        return DriverVerdict(VerificationStatus.VERIFIED)


def drive(driver, source, budget):
    """Step a run to its terminal verdict (``finish`` passes it through)."""
    return driver.start(source, budget,
                        lambda verdict, timings: verdict).run_to_completion()


class ScriptedBudget(Budget):
    """A budget whose ``exhausted()`` answers follow a script (then False).

    Lets a test exhaust the wall clock at an exact point of the attach
    loop without sleeping.
    """

    def __init__(self, script, **kwargs):
        super().__init__(**kwargs)
        self.script = list(script)

    def exhausted(self):
        if self.script:
            return bool(self.script.pop(0))
        return False


class BackpropRecordingSource(ScriptedSource):
    """ScriptedSource that records ``leaf_attached`` back-propagations."""

    def __init__(self, items):
        super().__init__(items)
        self.completed = []

    def leaf_attached(self, item, added):
        self.completed.append((item[1], added))
        return False


class TestPartialAttachBackprop:
    """Regression: ``leaf_attached`` fired on wall-clock-cut expansions.

    The hook's contract is "all of the item's children for this round are
    attached"; when ``attach_exhausted`` stops the round between two
    children, the expansion is partial and must not be back-propagated as
    complete.
    """

    def test_exhausted_expansion_is_not_reported_complete(self):
        appver = StubAppver()
        source = BackpropRecordingSource([("split", "a")])
        # run-loop check, affordable_phases check, then exhaustion between
        # the two children of "a".
        budget = ScriptedBudget([False, False, True])
        drive(FrontierDriver(appver, frontier_size=1), source, budget)
        assert [name for name, _, _ in source.attached] == ["a"]
        assert source.completed == []  # partial: leaf_attached must not fire

    def test_complete_expansion_is_reported_with_all_children(self):
        appver = StubAppver()
        source = BackpropRecordingSource([("split", "a")])
        drive(FrontierDriver(appver, frontier_size=1), source, Budget())
        assert [name for name, _, _ in source.attached] == ["a", "a"]
        assert source.completed == [("a", 2)]


class TestDriverContract:
    def test_rejects_invalid_frontier_size(self):
        with pytest.raises(ValueError):
            FrontierDriver(StubAppver(), frontier_size=0)

    def test_round_gathers_up_to_frontier_size_and_batches_children(self):
        appver = StubAppver()
        source = ScriptedSource([("split", "a"), ("split", "b"), ("split", "c")])
        driver = FrontierDriver(appver, frontier_size=2)
        verdict = drive(driver, source, Budget())
        # Two rounds of two/one expansions; every child bounded in one call
        # per round, attached in order, then the drained verdict.
        assert verdict.status == VerificationStatus.VERIFIED
        assert [len(batch) for batch in appver.batches] == [4, 2]
        assert [name for name, _, _ in source.attached] == ["a", "a", "b", "b",
                                                            "c", "c"]

    def test_children_charge_one_node_each(self):
        appver = StubAppver()
        source = ScriptedSource([("split", "a"), ("split", "b")])
        budget = Budget()
        drive(FrontierDriver(appver, frontier_size=2), source, budget)
        assert budget.nodes == 4  # two children per expansion

    def test_decided_leaves_charged_and_resolved_in_pop_order(self):
        appver = StubAppver()
        source = ScriptedSource([("leaf", "l1"), ("split", "a"), ("leaf", "l2")])
        budget = Budget()
        verdict = drive(FrontierDriver(appver, frontier_size=8), source, budget)
        assert verdict.status == VerificationStatus.VERIFIED
        # One charge per leaf LP + two child charges.
        assert budget.nodes == 4
        assert source.resolved == [["l1", "l2"]]

    def test_lp_falsification_aborts_round_before_bounding(self):
        appver = StubAppver()
        falsified = DriverVerdict(VerificationStatus.FALSIFIED)
        source = ScriptedSource([("split", "a"), ("leaf", "bad")],
                                resolve_verdict=falsified)
        verdict = drive(FrontierDriver(appver, frontier_size=8), source, Budget())
        assert verdict.status == VerificationStatus.FALSIFIED
        # The planned expansion of "a" must never have been bounded.
        assert appver.batches == []
        assert source.attached == []

    def test_starved_round_resolves_pending_before_timing_out(self):
        appver = StubAppver()
        source = ScriptedSource([("leaf", "l"), ("split", "a")])
        # The leaf LP charge exhausts the single node of budget, so "a"
        # starves with nothing gathered: push_back returns TIMEOUT — but the
        # charged leaf must still be resolved first.
        verdict = drive(FrontierDriver(appver, frontier_size=2), source,
                        Budget(max_nodes=1))
        assert ("push_back", "a", 0) in source.events
        assert source.resolved == [["l"]]
        assert verdict.status == VerificationStatus.TIMEOUT
        assert appver.batches == []

    def test_push_back_keeps_item_for_next_round(self):
        appver = StubAppver()

        class StarvingOnce(ScriptedSource):
            def __init__(self, items):
                super().__init__(items)
                self.starved_names = []

        source = StarvingOnce([("split", "a"), ("split", "b")])
        budget = Budget(max_nodes=2)  # round 1: a's 2 children; b starves
        verdict = drive(FrontierDriver(appver, frontier_size=2), source, budget)
        # b was pushed back (gathered=1), the first batch holds only a's
        # children, and exhaustion then surfaces as the source's TIMEOUT.
        assert ("push_back", "b", 1) in source.events
        assert [len(batch) for batch in appver.batches] == [2]
        assert verdict.status == VerificationStatus.TIMEOUT


class TestVerdictEqualityAcrossSources:
    """Verdicts must not depend on K for any of the three work sources."""

    @pytest.mark.parametrize("index,epsilon", [(12, 0.2), (13, 0.2), (13, 0.12)])
    def test_mcts_source(self, index, epsilon, trained_network):
        network, dataset = trained_network
        spec = problem(dataset, index, epsilon)
        statuses = {
            AbonnVerifier(AbonnConfig(frontier_size=k)).verify(
                network, spec, Budget(max_nodes=2000)).status
            for k in (1, 2, 8)
        }
        assert len(statuses) == 1

    @pytest.mark.parametrize("exploration", ["bfs", "dfs"])
    def test_queue_source(self, exploration, trained_network):
        network, dataset = trained_network
        spec = problem(dataset, 13, 0.2)
        statuses = {
            BaBBaselineVerifier(exploration=exploration,
                                frontier_size=k).verify(
                network, spec, Budget(max_nodes=2000)).status
            for k in (1, 2, 8)
        }
        assert len(statuses) == 1

    def test_heap_source(self, trained_network):
        network, dataset = trained_network
        spec = problem(dataset, 13, 0.2)
        statuses = {
            AlphaBetaCrownVerifier(frontier_size=k).verify(
                network, spec, Budget(max_nodes=2000)).status
            for k in (1, 2, 8)
        }
        assert len(statuses) == 1

    def test_lp_cache_stats_exposed_by_all_sources(self, trained_network):
        network, dataset = trained_network
        spec = problem(dataset, 13, 0.12)
        for verifier in (AbonnVerifier(AbonnConfig(frontier_size=2)),
                         BaBBaselineVerifier(frontier_size=2),
                         AlphaBetaCrownVerifier(frontier_size=2)):
            result = verifier.verify(network, spec, Budget(max_nodes=300))
            stats = result.extras["lp_cache"]
            assert set(stats) == LP_CACHE_KEYS
            assert stats["misses"] == stats["solves"]
            assert 0 <= stats["proven_empty"] <= stats["solves"]


VERIFIER_FACTORIES = {
    "abonn": lambda: AbonnVerifier(AbonnConfig(frontier_size=2)),
    "bab": lambda: BaBBaselineVerifier(frontier_size=2),
    "alphabeta": lambda: AlphaBetaCrownVerifier(frontier_size=2),
}
#: ``extras["lp_cache"]`` keys: ``proven_empty`` counts the solves closed by
#: the emptiness certificate before HiGHS.
LP_CACHE_KEYS = {"hits", "misses", "solves", "proven_empty", "evictions",
                 "hit_rate"}
SHARED_EXTRAS = {"bound_cache", "lp_cache", "timings", "frontier_size",
                 "incremental"}
#: Each verifier's own ``extras`` keys on top of the shared blocks.
OWN_EXTRAS = {
    "abonn": {"exploration", "heuristic", "lambda", "lp_leaves_resolved",
              "max_depth"},
    "bab": {"leaves_lp_resolved", "max_depth", "nodes_expanded",
            "nodes_split", "nodes_verified", "tree_size"},
    "alphabeta": {"alpha_iterations", "heuristic", "lp_leaves_resolved"},
}
#: ``(index, epsilon, branches)`` problems on the trained network.
EXTRAS_CASES = [
    (12, 0.2, True),     # every verifier enters BaB
    (13, 0.12, False),   # the root bound verifies
    (13, 0.3, False),    # falsified before any split (αβ: by the attack)
]
#: The stages of ``extras["timings"]`` (see ``FrontierDriver._round``).
STAGES = {"setup", "select", "branch", "lp", "bound", "attach"}


class TestResultExtrasSchema:
    """All three verifiers report the same ``extras`` blocks, BaB or not."""

    @pytest.mark.parametrize("name", sorted(VERIFIER_FACTORIES))
    @pytest.mark.parametrize("index,epsilon,branches", EXTRAS_CASES)
    def test_schema_exposed_by_all_verifiers(self, name, index, epsilon,
                                             branches, trained_network):
        network, dataset = trained_network
        spec = problem(dataset, index, epsilon)
        result = VERIFIER_FACTORIES[name]().verify(network, spec,
                                                   Budget(max_nodes=300))
        extras = result.extras
        # Exact key sets: the shared blocks are present and nothing else
        # (no block of a removed mechanism) lingers.
        assert set(extras) == SHARED_EXTRAS | OWN_EXTRAS[name]
        reference = ApproximateVerifier(network, spec).cache_stats()
        assert set(extras["bound_cache"]) == set(reference)
        assert set(extras["lp_cache"]) == LP_CACHE_KEYS
        if branches:
            assert extras["bound_cache"]["layer_misses"] > 0


class TestStageTimings:
    """``extras["timings"]`` is the driver's stage clock for every verifier."""

    @pytest.mark.parametrize("name", sorted(VERIFIER_FACTORIES))
    @pytest.mark.parametrize("index,epsilon,branches", EXTRAS_CASES)
    def test_stages_partition_the_run(self, name, index, epsilon, branches,
                                      trained_network):
        network, dataset = trained_network
        spec = problem(dataset, index, epsilon)
        result = VERIFIER_FACTORIES[name]().verify(network, spec,
                                                   Budget(max_nodes=300))
        timings = result.extras["timings"]
        assert set(timings) <= STAGES
        assert all(stage["seconds"] >= 0.0 for stage in timings.values())
        # The stages are disjoint spans of the run's wall clock.
        assert sum(stage["seconds"] for stage in timings.values()) \
            <= result.elapsed_seconds
        if not branches:
            # Settled before the driver: everything was set-up.
            assert set(timings) == {"setup"}
            assert timings["setup"]["seconds"] == result.elapsed_seconds
        else:
            assert {"setup", "select", "branch", "bound",
                    "attach"} <= set(timings)
            # The bound stage times exactly the driver's batched calls.
            assert timings["bound"]["count"] == \
                result.extras["bound_cache"]["batched_calls"]


class TestFinishedRunContract:
    """After a run finishes, ``step`` and ``interrupt`` return the result it
    finished with — the identical object, not a rebuilt or TIMEOUT one."""

    @pytest.mark.parametrize("name", sorted(VERIFIER_FACTORIES))
    @pytest.mark.parametrize("index,epsilon,in_setup", [
        (12, 0.2, False),   # settled in BaB
        (13, 0.12, True),   # settled by the root bound
        (13, 0.3, True),    # settled by the root (αβ: by the attack)
    ])
    def test_step_and_interrupt_return_the_finished_result(
            self, name, index, epsilon, in_setup, trained_network):
        network, dataset = trained_network
        spec = problem(dataset, index, epsilon)
        run = VERIFIER_FACTORIES[name]().start_run(network, spec,
                                                   Budget(max_nodes=300))
        assert isinstance(run, CompletedRun) == in_setup
        result = run.run_to_completion()
        assert result.solved
        assert run.step() is result
        assert run.interrupt() is result


#: The search orders whose trees :class:`TestSearchOrderInvariance` compares.
SEARCH_ORDERS = {
    "abonn-k1": lambda: AbonnVerifier(AbonnConfig(frontier_size=1)),
    "abonn-k8": lambda: AbonnVerifier(AbonnConfig(frontier_size=8)),
    "bfs-k8": lambda: BaBBaselineVerifier(exploration="bfs", frontier_size=8),
    "dfs-k1": lambda: BaBBaselineVerifier(exploration="dfs", frontier_size=1),
}


class TestSearchOrderInvariance:
    """A VERIFIED tree has the same nodes under every search order.

    DeepSplit picks each node's neuron from the node's own report, so once
    every leaf is verified the tree is fixed; the order it is visited in
    (MCTS at any ``K``, BFS, DFS) must not change how many nodes it has.
    """

    @pytest.mark.parametrize("index,epsilon,nodes", [
        (0, 0.2, 29), (8, 0.2, 5), (12, 0.2, 13), (14, 0.15, 13),
    ])
    def test_verified_tree_is_order_independent(self, index, epsilon, nodes,
                                                trained_network):
        network, dataset = trained_network
        spec = problem(dataset, index, epsilon)
        results = {order: factory().verify(network, spec, Budget(max_nodes=2000))
                   for order, factory in SEARCH_ORDERS.items()}
        assert {order: result.status for order, result in results.items()} == \
            dict.fromkeys(SEARCH_ORDERS, VerificationStatus.VERIFIED)
        assert {order: result.nodes_explored for order, result in results.items()} == \
            dict.fromkeys(SEARCH_ORDERS, nodes)


VERIFIER_MODULES = (repro.core.abonn, repro.bab.baseline,
                    repro.baselines.alphabeta_crown)


class TestSingleFrontierLoop:
    def test_verifiers_keep_only_their_search_order(self):
        """The run and the result are the engine's: no verifier module
        defines its own run class or builds a result itself."""
        for module in VERIFIER_MODULES:
            runs = [name for name, cls in inspect.getmembers(module, inspect.isclass)
                    if cls.__module__ == module.__name__
                    and issubclass(cls, VerifierRun)]
            assert runs == [], f"{module.__name__} defines run classes {runs}"
            text = Path(module.__file__).read_text(encoding="utf-8")
            assert "VerificationResult(" not in text, \
                f"{module.__name__} builds a VerificationResult itself"

    def test_only_the_engine_dispatches_batched_bounds(self):
        """The gather/flatten/attach loop exists exactly once: the three
        driver modules never call the batched bound entry points."""
        drivers = [
            REPO_ROOT / "src" / "repro" / "core" / "abonn.py",
            REPO_ROOT / "src" / "repro" / "bab" / "baseline.py",
            REPO_ROOT / "src" / "repro" / "baselines" / "alphabeta_crown.py",
        ]
        for path in drivers:
            text = path.read_text(encoding="utf-8")
            assert "evaluate_batch" not in text, f"{path.name} bypasses the engine"
            assert "engine" in text, f"{path.name} does not use the engine"
        engine = (REPO_ROOT / "src" / "repro" / "engine" / "driver.py").read_text(
            encoding="utf-8")
        assert engine.count("self.appver.evaluate_batch") == 1


class TestVerifierEntryPoints:
    """``Verifier.verify`` runs ``start_run`` to completion, once, for all."""

    def test_engine_verifiers_inherit_verify(self):
        for cls in (AbonnVerifier, BaBBaselineVerifier, AlphaBetaCrownVerifier):
            assert "verify" not in vars(cls), f"{cls.__name__} copies verify"
            assert "start_run" in vars(cls)

    def test_verifier_with_only_verify_runs_monolithically(self, trained_network):
        network, dataset = trained_network
        spec = problem(dataset, 13, 0.12)
        assert "verify" in vars(MilpVerifier)
        run = MilpVerifier().start_run(network, spec)
        assert isinstance(run, MonolithicRun)
        assert run.interrupt() is None
        result = run.run_to_completion()
        assert result.status is VerificationStatus.VERIFIED
        assert run.interrupt() is result

    def test_subclass_overriding_neither_method_raises(self, trained_network):
        class Bare(Verifier):
            name = "bare"

        network, dataset = trained_network
        spec = problem(dataset, 13, 0.12)
        with pytest.raises(NotImplementedError, match="Bare"):
            Bare().verify(network, spec)
        with pytest.raises(NotImplementedError, match="Bare"):
            Bare().start_run(network, spec)

    def test_subclass_overriding_only_verify_serves_runs(self, trained_network):
        expected = VerificationResult(status=VerificationStatus.UNKNOWN,
                                      verifier="fixed")

        class Fixed(Verifier):
            def verify(self, network, spec, budget=None):
                return expected

        network, dataset = trained_network
        assert Fixed().start_run(network, problem(dataset, 13, 0.12)).step() is expected
