"""Configuration of the ABONN verifier (the hyperparameters of Alg. 1)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bounds.alpha_crown import AlphaCrownConfig
from repro.bounds.cache import DEFAULT_CACHE_SIZE
from repro.utils.validation import require

#: The paper's default hyperparameters (§V-A): λ = 0.5, c = 0.2.
DEFAULT_LAMBDA = 0.5
DEFAULT_EXPLORATION = 0.2


@dataclass(frozen=True)
class AbonnConfig:
    """Hyperparameters of ABONN (Alg. 1).

    Attributes
    ----------
    lam:
        λ of Def. 1 — the weight of the depth attribute in the
        counterexample potentiality (the remaining ``1 - λ`` weights the
        normalised ``p̂`` attribute).
    exploration:
        ``c`` of the UCB1 rule in Alg. 1 line 13 — the exploration bonus
        weight (0 means pure exploitation).
    heuristic:
        Name of the ReLU branching heuristic ``H`` (see
        :mod:`repro.bab.heuristics`); the paper uses DeepSplit.
    bound_method:
        AppVer back-end: ``"deeppoly"`` (default) or ``"alpha-crown"``
        (αβ-CROWN's optimised-slope bound, so ABONN and the BaB baseline
        can run on the baseline's bound).
    frontier_size:
        ``K`` — the number of distinct MCTS leaves expanded per iteration.
        Each iteration selects up to ``K`` leaves by repeated UCB1 descent
        (with virtual-loss exclusion so selections spread over the tree) and
        bounds all of their phase-split children through **one**
        ``evaluate_batch`` call of up to ``2K`` sub-problems.  ``K=1``
        (default) reproduces the sequential Alg. 1 loop exactly; larger
        values trade strict selection order for realised AppVer batch sizes
        that actually reach the batched back-end's throughput regime.
        Verdicts remain sound for every ``K``.
    use_bound_cache:
        Memoise whole bound reports, keyed by their search path, in the
        AppVer's bound cache.  Caching never changes verdicts — a hit
        returns exactly what recomputation would.
    bound_cache_size:
        Maximum number of bound-cache entries (LRU eviction beyond that).
    incremental:
        Let candidate validation and α-CROWN warm starts reuse the parent.
        Every DeepPoly child is bounded against its parent's report either
        way, so with the default DeepPoly back-end verdicts, node charges
        and counterexamples are identical with the flag on or off.  With
        ``bound_method="alpha-crown"`` the warm start moves where
        the slope ascent *begins*, so the optimised (still sound) bounds —
        and hence trajectories — may differ between the modes.
    """

    lam: float = DEFAULT_LAMBDA
    exploration: float = DEFAULT_EXPLORATION
    heuristic: str = "deepsplit"
    bound_method: str = "deeppoly"
    frontier_size: int = 1
    alpha_config: Optional[AlphaCrownConfig] = None
    use_bound_cache: bool = True
    bound_cache_size: int = DEFAULT_CACHE_SIZE
    incremental: bool = True

    def __post_init__(self) -> None:
        require(0.0 <= self.lam <= 1.0, "lam must be in [0, 1]")
        require(self.exploration >= 0.0, "exploration must be non-negative")
        require(self.bound_cache_size >= 1, "bound_cache_size must be positive")
        require(self.frontier_size >= 1, "frontier_size must be positive")
