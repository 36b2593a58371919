"""The MCTS selection and back-propagation oracle.

:mod:`repro.core.mcts` writes the UCB1 descent, the virtual-loss frontier
and the reward refresh out in place for speed.  This module keeps the
helper-per-level version they replaced, verbatim but for the node's refresh
method, which is a free function here: ``refresh_from_children``,
``ucb1_score``, ``select_child``, ``descend_to_leaf``, ``select_frontier``,
``propagate_sizes`` and ``propagate_rewards``.  The one-level
``ucb1_score`` and ``select_child`` exist only here now; the library's
descent scores each level in place.  These functions read and write only the
node fields ``reward``, ``subtree_size``, ``parent``, ``children`` and
``counterexample``, so they run on :class:`~repro.core.mcts.MctsNode` trees.
The library must select the same nodes in the same order and leave every
field exactly as these do.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.bounds.splits import ACTIVE, INACTIVE
from repro.core.mcts import MctsNode
from repro.utils.validation import require


def refresh_from_children(node: MctsNode) -> None:
    """Back-propagation step: reward becomes the max over the children."""
    if not node.children:
        return
    node.reward = max(child.reward for child in node.children.values())
    for child in node.children.values():
        if child.counterexample is not None:
            node.counterexample = child.counterexample
            break


def ucb1_score(child_reward: float, parent_subtree_size: int,
               child_subtree_size: int, exploration: float) -> float:
    """The UCB1 value of one child (Alg. 1 line 13)."""
    require(parent_subtree_size >= 1 and child_subtree_size >= 1,
            "subtree sizes must be positive")
    if child_reward == float("-inf"):
        # A fully verified branch can never yield a counterexample; the
        # exploration bonus must not resurrect it.
        return float("-inf")
    if child_reward == float("inf"):
        return float("inf")
    bonus = exploration * math.sqrt(
        2.0 * math.log(parent_subtree_size) / child_subtree_size)
    return child_reward + bonus


def select_child(node: MctsNode, exploration: float) -> Optional[MctsNode]:
    """Pick the child to descend into, or ``None`` when all are exhausted.

    Ties are broken in favour of the ``r+`` child for determinism.
    """
    require(node.is_expanded, "cannot select a child of an unexpanded node")
    best_child: Optional[MctsNode] = None
    best_score = float("-inf")
    for phase in (ACTIVE, INACTIVE):
        child = node.children.get(phase)
        if child is None:
            continue
        score = ucb1_score(child.reward, node.subtree_size, child.subtree_size,
                           exploration)
        if score > best_score:
            best_score = score
            best_child = child
    if best_score == float("-inf"):
        return None
    return best_child


def descend_to_leaf(node: MctsNode, exploration: float) -> MctsNode:
    """Follow UCB1 selections from ``node`` downwards (Alg. 1 lines 12-14).

    Returns either an unexpanded node (the next node to expand) or an
    *expanded* dead end whose children are all exhausted (reward ``-inf``);
    callers distinguish the two via :attr:`MctsNode.is_expanded` and should
    back-propagate from a dead end.
    """
    current = node
    while current.is_expanded:
        child = select_child(current, exploration)
        if child is None:
            return current
        current = child
    return current


def select_frontier(root: MctsNode, exploration: float,
                    limit: int) -> List[MctsNode]:
    """Select up to ``limit`` *distinct* unexpanded nodes for batched expansion.

    Repeats the UCB1 descent of Alg. 1 with a virtual-loss / exclusion scheme
    so the selections do not collapse onto one path: each selected leaf's
    reward is temporarily forced to ``-inf`` (so no later descent re-enters
    it), one virtual visit is added along its path, and the ancestors'
    rewards are refreshed to steer later descents away from fully excluded
    subtrees.  All virtual state is restored before returning, so the tree
    the caller sees is exactly the tree before the call.

    A descent that dead-ends on an *expanded* node whose children are all
    exhausted does not end the gathering: the dead end's reward is back-propagated (refreshing any
    ancestor whose reward had not yet absorbed its exhausted subtree) and
    the descent retried, so sparser trees still fill their frontier.  Each
    distinct dead end is re-propagated at most once per call, which bounds
    the retries by the number of expanded nodes; a repeated dead end means
    every reachable branch is excluded and the gathering stops.  Because
    back-propagating from a dead end is exactly what the sequential loop
    does before its next iteration, re-descending never changes which nodes
    are eventually selected or charged — it only selects them a round
    earlier.

    With ``limit=1`` this is precisely one sequential UCB1 selection.
    """
    require(limit >= 1, "frontier limit must be positive")
    selected: List[MctsNode] = []
    saved_rewards: List[Tuple[MctsNode, float]] = []
    redescended: set = set()  # ids of dead ends already back-propagated
    while len(selected) < limit:
        leaf = descend_to_leaf(root, exploration)
        if leaf.is_expanded:
            # Dead end: all reachable subtrees virtually excluded or
            # exhausted.  Deeper virtual back-propagation re-descends once
            # per distinct dead end; the restoration loop below undoes any
            # virtual component of the refreshed rewards.
            if id(leaf) in redescended:
                break
            redescended.add(id(leaf))
            propagate_rewards(leaf)
            continue
        if any(leaf is node for node in selected):
            # An unexpanded root re-selected: stop early.
            break
        selected.append(leaf)
        saved_rewards.append((leaf, leaf.reward))
        leaf.reward = float("-inf")
        propagate_sizes(leaf, 1)
        propagate_rewards(leaf.parent or leaf)
    # Undo the virtual loss: restore leaf rewards, remove virtual visits,
    # then recompute ancestor rewards from the restored children.
    for leaf, reward in saved_rewards:
        leaf.reward = reward
        propagate_sizes(leaf, -1)
    for leaf, _ in saved_rewards:
        propagate_rewards(leaf.parent or leaf)
    return selected


def propagate_sizes(node: MctsNode, added: int) -> None:
    """Add ``added`` new nodes to the subtree sizes of ``node`` and its ancestors."""
    current: Optional[MctsNode] = node
    while current is not None:
        current.subtree_size += added
        current = current.parent


def propagate_rewards(node: MctsNode) -> None:
    """Recompute rewards from ``node`` upwards (max over children), stopping
    at the first node whose reward and counterexample do not change.

    Invariant: every expanded node's reward equals the max over its
    children (and it holds a child's counterexample when one has any).  A
    caller that changes a node's reward or counterexample then propagates
    from that node's parent (or from the node, after changing its
    children), so only the path above the change can be stale; once a node
    is unchanged, every ancestor above it still satisfies the invariant.
    The one exception is a partial expansion cut off by the wall clock,
    which is never propagated; the run ends right after it.
    """
    current: Optional[MctsNode] = node
    while current is not None:
        reward, counterexample = current.reward, current.counterexample
        refresh_from_children(current)
        if current.reward == reward and current.counterexample is counterexample:
            return
        current = current.parent
