"""Tests for repro.core.mcts (reward/visit bookkeeping) and the UCB1 rule.

The one-level UCB1 score and child selection live in
``tests/reference_mcts.py``, the oracle the library's written-out descent
is checked against, so their unit tests run on those copies.
"""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_mcts import select_child, ucb1_score
from repro.bounds.splits import ACTIVE, INACTIVE, SplitAssignment
from repro.core import mcts
from repro.core.mcts import MctsNode, propagate_rewards, propagate_sizes


def make_node(reward=0.0, depth=0, parent=None, subtree_size=1):
    node = MctsNode(SplitAssignment.empty((2,)), depth=depth, outcome=None,
                    reward=reward, parent=parent)
    node.subtree_size = subtree_size
    return node


def attach_children(parent, reward_plus, reward_minus, size_plus=1, size_minus=1):
    plus = make_node(reward=reward_plus, depth=parent.depth + 1, parent=parent,
                     subtree_size=size_plus)
    minus = make_node(reward=reward_minus, depth=parent.depth + 1, parent=parent,
                      subtree_size=size_minus)
    parent.children[ACTIVE] = plus
    parent.children[INACTIVE] = minus
    parent.subtree_size = 1 + size_plus + size_minus
    return plus, minus


class TestUcb1:
    def test_formula(self):
        expected = 0.4 + 0.2 * math.sqrt(2 * math.log(9) / 3)
        assert ucb1_score(0.4, 9, 3, 0.2) == pytest.approx(expected)

    def test_zero_exploration_is_pure_exploitation(self):
        assert ucb1_score(0.7, 100, 1, 0.0) == pytest.approx(0.7)

    def test_verified_child_is_never_selected(self):
        assert ucb1_score(float("-inf"), 10, 1, 10.0) == float("-inf")

    def test_falsified_child_dominates(self):
        assert ucb1_score(float("inf"), 10, 5, 0.2) == float("inf")

    def test_less_visited_child_gets_larger_bonus(self):
        rare = ucb1_score(0.5, 100, 1, 0.3)
        frequent = ucb1_score(0.5, 100, 50, 0.3)
        assert rare > frequent

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            ucb1_score(0.5, 0, 1, 0.2)


class TestSelectChild:
    def test_prefers_higher_reward_without_exploration(self):
        root = make_node()
        plus, minus = attach_children(root, reward_plus=0.9, reward_minus=0.4)
        assert select_child(root, exploration=0.0) is plus

    def test_exploration_can_flip_the_choice(self):
        root = make_node()
        # The + child has slightly higher reward but has been visited a lot.
        plus, minus = attach_children(root, reward_plus=0.55, reward_minus=0.5,
                                      size_plus=200, size_minus=1)
        root.subtree_size = 202
        assert select_child(root, exploration=0.0) is plus
        assert select_child(root, exploration=1.0) is minus

    def test_all_children_verified_returns_none(self):
        root = make_node()
        attach_children(root, float("-inf"), float("-inf"))
        assert select_child(root, exploration=0.5) is None

    def test_tie_breaks_towards_active_child(self):
        root = make_node()
        plus, _ = attach_children(root, reward_plus=0.5, reward_minus=0.5)
        assert select_child(root, exploration=0.0) is plus

    def test_unexpanded_node_rejected(self):
        with pytest.raises(ValueError):
            select_child(make_node(), exploration=0.1)


class TestPropagation:
    def test_sizes_propagate_to_ancestors(self):
        root = make_node()
        plus, minus = attach_children(root, 0.1, 0.2)
        grandchild_parent = plus
        propagate_sizes(grandchild_parent, 2)
        assert grandchild_parent.subtree_size == 3
        assert root.subtree_size == 5

    def test_rewards_propagate_as_max_of_children(self):
        root = make_node(reward=0.0)
        plus, minus = attach_children(root, 0.3, 0.8)
        propagate_rewards(root)
        assert root.reward == pytest.approx(0.8)

    def test_counterexample_bubbles_up(self):
        root = make_node()
        plus, minus = attach_children(root, 0.3, float("inf"))
        minus.counterexample = "witness"
        propagate_rewards(root)
        assert root.reward == float("inf")
        assert root.counterexample == "witness"

    def test_refresh_without_children_is_noop(self):
        node = make_node(reward=0.42)
        node.refresh_from_children()
        assert node.reward == pytest.approx(0.42)

    def test_descendants(self):
        root = make_node()
        plus, minus = attach_children(root, 0.1, 0.2)
        descendants = root.descendants()
        assert len(descendants) == 3
        for node in (root, plus, minus):
            assert any(node is candidate for candidate in descendants)


class TestNodeAccessors:
    def test_child_lookup(self):
        root = make_node()
        plus, minus = attach_children(root, 0.1, 0.2)
        assert root.child(ACTIVE) is plus
        assert root.child(INACTIVE) is minus

    def test_missing_child_rejected(self):
        with pytest.raises(ValueError):
            make_node().child(ACTIVE)

    def test_is_root_and_expanded_flags(self):
        root = make_node()
        assert root.is_root and not root.is_expanded
        plus, _ = attach_children(root, 0.1, 0.2)
        assert root.is_expanded and not plus.is_root


# ---------------------------------------------------------------------------
# Early-stopping back-propagation against a full-recompute reference
# ---------------------------------------------------------------------------

def _full_propagate(node):
    """Reference back-propagation: refresh every node from ``node`` to the
    root, whether or not anything changed."""
    while node is not None:
        node.refresh_from_children()
        node = node.parent


REWARDS = st.sampled_from([float("-inf"), -1.0, -0.25, 0.0, 0.5, 1.0, float("inf")])

#: One tree operation: expand an unexpanded node (``leaf_attached``),
#: select and restore a frontier (``select_frontier``'s exclusion), or
#: resolve an unexpanded node to a final reward (a leaf LP).
OPERATIONS = st.one_of(
    st.tuples(st.just("expand"), st.integers(0, 63), REWARDS, REWARDS),
    st.tuples(st.just("select"), st.integers(1, 4)),
    st.tuples(st.just("resolve"), st.integers(0, 63),
              st.sampled_from([float("-inf"), float("inf")])),
)


def _unexpanded(root):
    return [node for node in _walk(root) if not node.is_expanded]


def _walk(root):
    """Every node, parents before children, ``r+`` before ``r-``."""
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node.children[phase] for phase in (INACTIVE, ACTIVE)
                     if phase in node.children)
    return nodes


def _snapshot(root):
    return [(node.depth, node.reward, node.subtree_size,
             None if node.counterexample is None else tuple(node.counterexample))
            for node in _walk(root)]


def _replay(operations):
    """Run ``operations`` on a fresh tree; the snapshot and the selected
    frontier after each one."""
    root = make_node(reward=0.0)
    trace = []
    for operation in operations:
        selected = []
        if operation[0] == "expand":
            _, pick, reward_plus, reward_minus = operation
            leaves = _unexpanded(root)
            leaf = leaves[pick % len(leaves)]
            for phase, reward in ((ACTIVE, reward_plus), (INACTIVE, reward_minus)):
                child = make_node(reward=reward, depth=leaf.depth + 1, parent=leaf)
                if reward == float("inf"):
                    child.counterexample = (leaf.depth, phase)
                leaf.children[phase] = child
            propagate_sizes(leaf, 2)
            mcts.propagate_rewards(leaf)
        elif operation[0] == "select":
            frontier = mcts.select_frontier(root, 0.3, operation[1])
            walk = _walk(root)
            selected = [next(i for i, node in enumerate(walk) if node is leaf)
                        for leaf in frontier]
        else:
            _, pick, reward = operation
            leaves = _unexpanded(root)
            leaf = leaves[pick % len(leaves)]
            leaf.reward = reward
            if reward == float("inf"):
                leaf.counterexample = (leaf.depth, 0)
            mcts.propagate_rewards(leaf.parent or leaf)
        trace.append((_snapshot(root), selected))
        for node in _walk(root):
            if node.is_expanded:
                assert node.reward == max(c.reward for c in node.children.values())
    return trace


class TestEarlyStoppingBackPropagation:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(OPERATIONS, min_size=1, max_size=40))
    def test_matches_full_recompute(self, operations):
        """Stopping at the first unchanged ancestor gives the same rewards,
        counterexamples, sizes and frontiers as refreshing every ancestor,
        and keeps every expanded node's reward the max over its children."""
        fast = _replay(operations)
        with mock.patch.object(mcts, "propagate_rewards", _full_propagate):
            full = _replay(operations)
        assert fast == full

    def test_stops_at_the_first_unchanged_ancestor(self):
        root = make_node(reward=0.9)
        plus, minus = attach_children(root, 0.9, 0.1)
        grand_plus, grand_minus = attach_children(minus, 0.2, 0.1)
        minus.reward = 0.2
        calls = []
        original = MctsNode.refresh_from_children

        def counting(node):
            calls.append(node)
            original(node)

        with mock.patch.object(MctsNode, "refresh_from_children", counting):
            propagate_rewards(minus)
        # minus is unchanged (0.2), so root is never refreshed.
        assert len(calls) == 1 and calls[0] is minus
        assert root.reward == 0.9
