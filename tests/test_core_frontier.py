"""Tests for frontier-wide batched expansion (ABONN, BaB-baseline, αβ-CROWN).

The contract under test (see ``docs/BATCHING.md``):

* ``frontier_size=1`` reproduces the sequential drivers exactly;
* larger frontiers return identical verdicts on the seed families, with
  counterexamples that remain real and budget edges that still time out;
* the realised ``evaluate_batch`` sizes grow with the frontier and are
  observable through the result extras.
"""

import numpy as np
import pytest

from repro.bab import BaBBaselineVerifier
from repro.baselines.alphabeta_crown import AlphaBetaCrownVerifier
from repro.bounds.splits import ACTIVE, INACTIVE, ReluSplit, SplitAssignment
from repro.core.abonn import AbonnVerifier, _score_child
from repro.core.config import AbonnConfig
from repro.core.mcts import (
    MctsNode,
    descend_to_leaf,
    select_frontier,
)
from repro.core.potentiality import PotentialityScorer
from repro.specs.robustness import local_robustness_spec
from repro.utils import Budget
from repro.verifiers.appver import ApproximateVerifier
from repro.verifiers.result import VerificationStatus


def problem(network, dataset, index, epsilon):
    image, label = dataset.sample(index)
    return local_robustness_spec(image.reshape(-1), epsilon, label,
                                 dataset.num_classes)


def _make_tree():
    """A small hand-built MCTS tree: root with two expanded children."""
    root = MctsNode(SplitAssignment.empty((2,)), depth=0, outcome=None)
    root.reward = 0.5
    left = MctsNode(root.splits.with_split(ReluSplit(0, 0, ACTIVE)),
                    depth=1, outcome=None, parent=root)
    right = MctsNode(root.splits.with_split(ReluSplit(0, 0, INACTIVE)),
                     depth=1, outcome=None, parent=root)
    left.reward, right.reward = 0.5, 0.4
    root.children = {ACTIVE: left, INACTIVE: right}
    root.subtree_size = 3
    return root, left, right


class TestSelectFrontier:
    def test_selects_distinct_leaves_up_to_limit(self):
        root, left, right = _make_tree()
        leaves = select_frontier(root, exploration=0.2, limit=8)
        assert len(leaves) == 2
        assert leaves[0] is left  # higher reward first
        assert leaves[1] is right
        assert len({id(leaf) for leaf in leaves}) == 2

    def test_limit_one_matches_sequential_descent(self):
        root, left, _ = _make_tree()
        assert descend_to_leaf(root, 0.2) is left
        assert select_frontier(root, 0.2, 1) == [left]

    def test_restores_rewards_and_sizes(self):
        root, left, right = _make_tree()
        before = [(node, node.reward, node.subtree_size)
                  for node in (root, left, right)]
        select_frontier(root, exploration=0.2, limit=8)
        for node, reward, size in before:
            assert node.reward == reward
            assert node.subtree_size == size

    def test_unexpanded_root_selected_once(self):
        root = MctsNode(SplitAssignment.empty((2,)), depth=0, outcome=None)
        root.reward = 0.3
        leaves = select_frontier(root, exploration=0.2, limit=8)
        assert leaves == [root]
        assert root.reward == 0.3

    def test_exhausted_branches_are_never_selected(self):
        root, left, right = _make_tree()
        right.reward = float("-inf")  # verified branch
        leaves = select_frontier(root, exploration=0.2, limit=8)
        assert leaves == [left]


class TestAbonnFrontierVerdicts:
    @pytest.mark.parametrize("index,epsilon", [(12, 0.2), (13, 0.2), (14, 0.2),
                                               (13, 0.12), (25, 0.12)])
    def test_verdicts_identical_across_frontier_sizes(self, index, epsilon,
                                                      trained_network):
        network, dataset = trained_network
        spec = problem(network, dataset, index, epsilon)
        results = {
            frontier: AbonnVerifier(AbonnConfig(frontier_size=frontier)).verify(
                network, spec, Budget(max_nodes=2000))
            for frontier in (1, 2, 8)
        }
        statuses = {result.status for result in results.values()}
        assert len(statuses) == 1
        for result in results.values():
            if result.status == VerificationStatus.FALSIFIED:
                assert spec.is_counterexample(network, result.counterexample)

    def test_realised_batch_grows_with_frontier(self, trained_network):
        network, dataset = trained_network
        spec = problem(network, dataset, 13, 0.2)  # instance that branches
        means = {}
        for frontier in (1, 8):
            result = AbonnVerifier(AbonnConfig(frontier_size=frontier)).verify(
                network, spec, Budget(max_nodes=2000))
            stats = result.extras["bound_cache"]
            assert stats["batch_histogram"], "no batched call was recorded"
            means[frontier] = stats["mean_realised_batch"]
            assert result.extras["frontier_size"] == frontier
        assert means[1] <= 2.0
        assert means[8] > 2.0

    @pytest.mark.parametrize("max_nodes", [3, 15])
    def test_budget_exhaustion_edges(self, max_nodes, trained_network):
        network, dataset = trained_network
        for frontier in (1, 2, 8):
            for index in (18, 19, 20):
                spec = problem(network, dataset, index, 0.25)
                budget = Budget(max_nodes=max_nodes)
                result = AbonnVerifier(AbonnConfig(frontier_size=frontier)).verify(
                    network, spec, budget)
                assert result.status in (VerificationStatus.TIMEOUT,
                                         VerificationStatus.VERIFIED,
                                         VerificationStatus.FALSIFIED)
                # Planned charges respect the node budget: batched evaluation
                # never evaluates children the budget cannot afford, and LP
                # leaf resolutions between frontier leaves stay within it.
                assert result.nodes_explored <= max_nodes + 1
                assert budget.nodes <= max_nodes

    def test_infeasible_split_children_are_exhausted(self, small_network):
        """A frontier batch containing an infeasible child must mark it
        verified (reward -inf), exactly as the sequential expansion does."""
        reference = np.array([0.4, 0.5, 0.6, 0.3])
        label = int(small_network.predict(reference.reshape(1, -1))[0])
        spec = local_robustness_spec(reference, 0.12, label, 3)
        appver = ApproximateVerifier(small_network, spec)
        root_report = appver.evaluate().report
        stable = None
        for layer, bounds in enumerate(root_report.pre_activation_bounds):
            negative = np.where(bounds.upper < 0)[0]
            if len(negative):
                stable = (layer, int(negative[0]))
                break
        assert stable is not None, "fixture network must have a stable-off neuron"
        # Forcing a stable-off neuron ACTIVE empties the region.
        splits = appver.root_splits.with_split(ReluSplit(stable[0], stable[1], ACTIVE))
        outcomes = appver.evaluate_batch([splits, appver.root_splits])
        assert outcomes[0].report.infeasible
        scorer = PotentialityScorer(appver.num_relu_neurons, 0.5)
        parent = MctsNode(appver.root_splits, depth=0, outcome=outcomes[1])
        child = _score_child(parent, splits, outcomes[0], scorer)
        assert child.reward == float("-inf")

    def test_frontier_with_alpha_crown_backend(self, trained_network):
        network, dataset = trained_network
        spec = problem(network, dataset, 13, 0.12)
        results = {
            frontier: AbonnVerifier(AbonnConfig(bound_method="alpha-crown",
                                                frontier_size=frontier)).verify(
                network, spec, Budget(max_nodes=60))
            for frontier in (1, 4)
        }
        assert results[1].status == results[4].status


class TestBaselineFrontiers:
    @pytest.mark.parametrize("exploration", ["bfs", "dfs"])
    def test_bab_baseline_verdicts_identical(self, exploration, trained_network):
        network, dataset = trained_network
        for index, epsilon in ((12, 0.2), (13, 0.2), (13, 0.12)):
            spec = problem(network, dataset, index, epsilon)
            results = {
                frontier: BaBBaselineVerifier(exploration=exploration,
                                              frontier_size=frontier).verify(
                    network, spec, Budget(max_nodes=2000))
                for frontier in (1, 2, 8)
            }
            statuses = {result.status for result in results.values()}
            assert len(statuses) == 1
            for result in results.values():
                if result.status == VerificationStatus.FALSIFIED:
                    assert spec.is_counterexample(network, result.counterexample)

    def test_bab_baseline_frontier_one_is_sequential(self, trained_network):
        """K=1 must be charge-for-charge identical to the sequential loop."""
        network, dataset = trained_network
        spec = problem(network, dataset, 13, 0.2)
        default = BaBBaselineVerifier().verify(network, spec, Budget(max_nodes=500))
        explicit = BaBBaselineVerifier(frontier_size=1).verify(
            network, spec, Budget(max_nodes=500))
        assert default.status == explicit.status
        assert default.nodes_explored == explicit.nodes_explored
        assert default.extras["nodes_expanded"] == explicit.extras["nodes_expanded"]

    def test_bab_baseline_budget_edges(self, trained_network):
        network, dataset = trained_network
        spec = problem(network, dataset, 19, 0.25)
        for frontier in (1, 4):
            result = BaBBaselineVerifier(frontier_size=frontier).verify(
                network, spec, Budget(max_nodes=10))
            assert result.status in (VerificationStatus.TIMEOUT,
                                     VerificationStatus.VERIFIED,
                                     VerificationStatus.FALSIFIED)
            assert result.nodes_explored <= 11

    def test_budget_starvation_never_verifies_falsifiable(self, trained_network):
        """When the gather loop runs out of node budget mid-frontier, the
        unexpandable sub-problem must stay queued: the run times out rather
        than returning a spurious VERIFIED from an emptied queue/heap."""
        network, dataset = trained_network
        spec = problem(network, dataset, 13, 0.2)
        reference = BaBBaselineVerifier().verify(network, spec,
                                                 Budget(max_nodes=2000))
        assert reference.status == VerificationStatus.FALSIFIED
        for frontier in (2, 4, 8):
            for max_nodes in range(3, 12):
                for verifier in (BaBBaselineVerifier(frontier_size=frontier),
                                 AlphaBetaCrownVerifier(frontier_size=frontier)):
                    result = verifier.verify(network, spec,
                                             Budget(max_nodes=max_nodes))
                    assert result.status != VerificationStatus.VERIFIED

    def test_alphabeta_crown_verdicts_identical(self, trained_network):
        network, dataset = trained_network
        for index, epsilon in ((12, 0.2), (13, 0.2)):
            spec = problem(network, dataset, index, epsilon)
            results = {
                frontier: AlphaBetaCrownVerifier(frontier_size=frontier).verify(
                    network, spec, Budget(max_nodes=2000))
                for frontier in (1, 4)
            }
            assert results[1].status == results[4].status

    def test_invalid_frontier_size_rejected(self):
        with pytest.raises(ValueError):
            AbonnConfig(frontier_size=0)
        with pytest.raises(ValueError):
            BaBBaselineVerifier(frontier_size=0)
        with pytest.raises(ValueError):
            AlphaBetaCrownVerifier(frontier_size=-1)
