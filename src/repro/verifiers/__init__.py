"""Verification front-ends: AppVer, attacks, MILP/LP backends, result types."""

from repro.verifiers.appver import (
    BOUND_METHODS,
    AppVerOutcome,
    ApproximateVerifier,
)
from repro.verifiers.attack import (
    AttackConfig,
    AttackResult,
    empirical_robustness_radius,
    fgsm,
    margin_and_gradient,
    pgd_attack,
)
from repro.verifiers.milp import (
    MilpVerifier,
    RowOptimum,
    solve_leaf_lp,
    solve_leaf_lp_batch,
)
from repro.verifiers.result import (
    VerificationResult,
    VerificationStatus,
    Verifier,
    make_budget,
)

__all__ = [
    "BOUND_METHODS",
    "AppVerOutcome",
    "ApproximateVerifier",
    "AttackConfig",
    "AttackResult",
    "empirical_robustness_radius",
    "fgsm",
    "margin_and_gradient",
    "pgd_attack",
    "MilpVerifier",
    "RowOptimum",
    "solve_leaf_lp",
    "solve_leaf_lp_batch",
    "VerificationResult",
    "VerificationStatus",
    "Verifier",
    "make_budget",
]
