"""The paper's contribution: counterexample potentiality + MCTS-style BaB (ABONN)."""

from repro.core.abonn import AbonnVerifier
from repro.core.config import DEFAULT_EXPLORATION, DEFAULT_LAMBDA, AbonnConfig
from repro.core.mcts import (
    MctsNode,
    propagate_rewards,
    propagate_sizes,
)
from repro.core.potentiality import PotentialityScorer, counterexample_potentiality

__all__ = [
    "AbonnVerifier",
    "AbonnConfig",
    "DEFAULT_EXPLORATION",
    "DEFAULT_LAMBDA",
    "MctsNode",
    "propagate_rewards",
    "propagate_sizes",
    "PotentialityScorer",
    "counterexample_potentiality",
]
