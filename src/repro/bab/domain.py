"""BaB tree nodes (sub-problems) shared by the baseline BaB verifier.

Each node corresponds to a sub-problem Γ of the original verification
problem: the conjunction of the original input box with a sequence of ReLU
phase constraints.  The node stores the AppVer outcome obtained when it was
created, which is all that later exploration decisions need.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bounds.splits import SplitAssignment
from repro.verifiers.appver import AppVerOutcome


@dataclass
class BaBNode:
    """One sub-problem in the BaB tree."""

    splits: SplitAssignment
    depth: int
    outcome: AppVerOutcome


@dataclass
class BaBStatistics:
    """Aggregate statistics of one BaB run (used by figures and tests)."""

    nodes_expanded: int = 0
    nodes_verified: int = 0
    nodes_split: int = 0
    leaves_lp_resolved: int = 0
    max_depth: int = 0
    tree_size: int = 1

    def record_depth(self, depth: int) -> None:
        self.max_depth = max(self.max_depth, depth)

    def as_dict(self) -> dict:
        return {
            "nodes_expanded": self.nodes_expanded,
            "nodes_verified": self.nodes_verified,
            "nodes_split": self.nodes_split,
            "leaves_lp_resolved": self.leaves_lp_resolved,
            "max_depth": self.max_depth,
            "tree_size": self.tree_size,
        }
