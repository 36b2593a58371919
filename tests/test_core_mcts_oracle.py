"""The written-out MCTS selection against the helper-per-level oracle.

``tests/reference_mcts.py`` keeps the UCB1 descent, the virtual-loss
frontier and the reward back-propagation as they were before
:mod:`repro.core.mcts` wrote them out in place.  On random consistent trees
(finite and ±inf rewards, counterexamples, subtree sizes that count their
nodes) both must select the same nodes in the same order and leave every
reward, size and counterexample exactly as the other does.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_mcts as reference
from repro.bounds.splits import ACTIVE, INACTIVE, SplitAssignment
from repro.core import mcts
from repro.core.mcts import MctsNode

#: Few distinct finite values, so UCB1 ties (and the ``r+`` tie-break) occur.
REWARDS = st.sampled_from([float("-inf"), -0.5, 0.0, 0.25, 0.5, 1.0, float("inf")])

#: Expand the ``pick``-th unexpanded node with children in the given phase
#: order (one child, as a budget-truncated expansion leaves, or two).
EXPANSIONS = st.lists(
    st.tuples(st.integers(0, 63),
              st.sampled_from([(ACTIVE,), (INACTIVE,), (ACTIVE, INACTIVE),
                               (INACTIVE, ACTIVE)]),
              REWARDS, REWARDS),
    max_size=30)

EXPLORATIONS = st.sampled_from([0.0, 0.2, 1.0])

ROOT_SPLITS = SplitAssignment.empty((2,))


def _walk(root):
    """Every node, parents before children, ``r+`` before ``r-``."""
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node.children[phase] for phase in (INACTIVE, ACTIVE)
                     if phase in node.children)
    return nodes


def _settle(node):
    """Sizes that count each subtree's nodes and rewards that are the max
    over the children (the oracle's refresh), bottom-up."""
    for child in node.children.values():
        _settle(child)
    node.subtree_size = 1 + sum(child.subtree_size for child in node.children.values())
    reference.refresh_from_children(node)


def _build(expansions, root_reward):
    root = MctsNode(ROOT_SPLITS, depth=0, outcome=None, reward=root_reward)
    for pick, phases, first, second in expansions:
        leaves = [node for node in _walk(root) if not node.children]
        leaf = leaves[pick % len(leaves)]
        for phase, reward in zip(phases, (first, second)):
            child = MctsNode(ROOT_SPLITS, depth=leaf.depth + 1, outcome=None,
                             reward=reward, parent=leaf)
            if reward == float("inf"):
                child.counterexample = np.array([leaf.depth, phase], dtype=float)
            leaf.children[phase] = child
    _settle(root)
    return root


def _clone(node, parent=None):
    """A field-for-field copy sharing the counterexample objects."""
    copy = MctsNode(node.splits, node.depth, node.outcome, reward=node.reward,
                    subtree_size=node.subtree_size, parent=parent,
                    counterexample=node.counterexample)
    for phase, child in node.children.items():
        copy.children[phase] = _clone(child, copy)
    return copy


def _path(node):
    """A node's phases from the root."""
    phases = []
    while node.parent is not None:
        phases.append(next(phase for phase, child in node.parent.children.items()
                            if child is node))
        node = node.parent
    return tuple(reversed(phases))


def _snapshot(root):
    return [(_path(node), node.reward, node.subtree_size, id(node.counterexample))
            for node in _walk(root)]


def _trees(expansions, root_reward):
    fast = _build(expansions, root_reward)
    return fast, _clone(fast)


class TestSelectionOracle:
    @settings(max_examples=300, deadline=None)
    @given(EXPANSIONS, REWARDS, st.integers(1, 8), EXPLORATIONS)
    def test_frontier_matches_the_oracle_and_restores_the_tree(
            self, expansions, root_reward, limit, exploration):
        fast, slow = _trees(expansions, root_reward)
        before = _snapshot(fast)
        selected = mcts.select_frontier(fast, exploration, limit)
        expected = reference.select_frontier(slow, exploration, limit)
        assert [_path(node) for node in selected] == [_path(node) for node in expected]
        assert _snapshot(fast) == _snapshot(slow) == before

    @settings(max_examples=200, deadline=None)
    @given(EXPANSIONS, REWARDS, EXPLORATIONS)
    def test_descent_matches_the_oracle(self, expansions, root_reward, exploration):
        fast, slow = _trees(expansions, root_reward)
        assert (_path(mcts.descend_to_leaf(fast, exploration))
                == _path(reference.descend_to_leaf(slow, exploration)))

    @settings(max_examples=200, deadline=None)
    @given(EXPANSIONS, REWARDS, st.integers(0, 63), REWARDS, EXPLORATIONS)
    def test_back_propagation_matches_the_oracle(self, expansions, root_reward,
                                                 pick, reward, exploration):
        """Resolve one unexpanded node (a leaf LP) or expand it, then
        back-propagate as the verifier does, and select again."""
        fast, slow = _trees(expansions, root_reward)
        for root, module in ((fast, mcts), (slow, reference)):
            leaves = [node for node in _walk(root) if not node.children]
            leaf = leaves[pick % len(leaves)]
            if pick % 2:
                leaf.reward = reward
                if reward == float("inf"):
                    leaf.counterexample = "resolved"
                module.propagate_rewards(leaf.parent or leaf)
            else:
                for phase in (ACTIVE, INACTIVE):
                    leaf.children[phase] = MctsNode(ROOT_SPLITS, leaf.depth + 1,
                                                    None, reward=reward, parent=leaf)
                module.propagate_sizes(leaf, 2)
                module.propagate_rewards(leaf)
        assert _snapshot(fast) == _snapshot(slow)
        assert ([_path(node) for node in mcts.select_frontier(fast, exploration, 4)]
                == [_path(node) for node in reference.select_frontier(slow, exploration, 4)])
        assert _snapshot(fast) == _snapshot(slow)
