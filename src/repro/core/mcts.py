"""The MCTS tree structure used by ABONN's adaptive exploration.

Alg. 1 maintains, for every node Γ of the BaB tree,

* a reward ``R(Γ)`` — the counterexample potentiality of the best node in
  the subtree rooted at Γ (rewards are back-propagated as the maximum over
  children);
* the node set ``T(Γ)`` of that subtree — only its cardinality matters for
  the UCB1 rule, so this implementation stores the size.

Child selection uses UCB1 (line 13):

``argmax_a  R(Γ·a) + c · sqrt(2 ln |T(Γ)| / |T(Γ·a)|)``.

Each node owns its children through ``children``.  The ``parent`` links
serve back-propagation and the virtual-loss frontier only while a run
searches: with them every node sits on a reference cycle, so a finished
tree would wait for Python's generation-2 collection with all its bound
reports.  ABONN therefore cuts them once a run has its result (see
:class:`MctsNode`) and the tree is freed by reference counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bounds.splits import ACTIVE, INACTIVE, SplitAssignment
from repro.utils.validation import require
from repro.verifiers.appver import AppVerOutcome

_INF = float("inf")
_NEG_INF = float("-inf")


@dataclass(slots=True)
class MctsNode:
    """A node of ABONN's search tree (one BaB sub-problem).

    The node owns its ``children``, keyed by phase.  ``parent`` points back
    up while the run searches; when the run has its result, the verifier
    sets every node's ``parent`` to ``None`` so the finished tree holds no
    reference cycle and is freed as soon as the run is dropped.  After
    that every node reports :attr:`is_root`.
    """

    splits: SplitAssignment
    depth: int
    outcome: Optional[AppVerOutcome]
    reward: float = float("-inf")
    subtree_size: int = 1
    parent: Optional["MctsNode"] = None
    children: Dict[int, "MctsNode"] = field(default_factory=dict)
    #: A real counterexample found in this node's subtree, if any.
    counterexample: Optional[np.ndarray] = None

    @property
    def is_expanded(self) -> bool:
        """Whether any child has been attached."""
        return bool(self.children)

    @property
    def is_root(self) -> bool:
        """Whether the node has no parent link."""
        return self.parent is None

    @property
    def p_hat(self) -> Optional[float]:
        """The node's AppVer bound ``p̂``, or ``None`` without an outcome."""
        return None if self.outcome is None else self.outcome.p_hat

    def child(self, phase: int) -> "MctsNode":
        """The expanded child of ``phase`` (``+1`` or ``-1``)."""
        require(phase in (ACTIVE, INACTIVE), "phase must be +1 or -1")
        require(phase in self.children, "child has not been expanded")
        return self.children[phase]

    def refresh_from_children(self) -> bool:
        """Back-propagation step: reward becomes the max over the children
        (the first child's reward, replaced only by a strictly greater one,
        as ``max`` does) and the first child counterexample, if any,
        replaces the node's.  Returns whether either changed."""
        reward, counterexample = self.reward, self.counterexample
        if self.children:
            best = found = None
            for child in self.children.values():
                if best is None or child.reward > best:
                    best = child.reward
                if found is None:
                    found = child.counterexample
            self.reward = best
            if found is not None:
                self.counterexample = found
        return not (self.reward == reward and self.counterexample is counterexample)

    def descendants(self) -> List["MctsNode"]:
        """All nodes of this subtree (including the node itself)."""
        nodes = [self]
        stack = list(self.children.values())
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node.children.values())
        return nodes


def descend_to_leaf(node: MctsNode, exploration: float) -> MctsNode:
    """Follow UCB1 selections from ``node`` downwards (Alg. 1 lines 12-14).

    Returns either an unexpanded node (the next node to expand) or an
    *expanded* dead end whose children are all exhausted (reward ``-inf``);
    callers distinguish the two via :attr:`MctsNode.is_expanded` and should
    back-propagate from a dead end.

    Each level scores both children with the UCB1 rule written out,
    ``2 ln |T(Γ)|`` taken once; ties go to the ``r+`` child and exhausted
    (``-inf``) children are skipped.
    """
    log, sqrt = math.log, math.sqrt
    current = node
    while current.children:
        children = current.children
        two_log = 2.0 * log(current.subtree_size)
        best, best_score = None, _NEG_INF
        for phase in (ACTIVE, INACTIVE):
            child = children.get(phase)
            if child is None or child.reward == _NEG_INF:
                continue
            reward = child.reward
            score = (_INF if reward == _INF else
                     reward + exploration * sqrt(two_log / child.subtree_size))
            if score > best_score:
                best, best_score = child, score
        if best is None:
            return current
        current = best
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
        if leaf.children:
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
        leaf.reward = _NEG_INF
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
    while current is not None and current.refresh_from_children():
        current = current.parent
