"""Approximated-verifier substrate: DeepPoly/CROWN and α-CROWN bounds.

Two back-ends, one question: every bound query carries an output
specification, and a report holds the spec rows' lower bounds, ``p̂``,
the candidate counterexample and the hidden pre-activation bounds.
"""

from repro.bounds.alpha_crown import AlphaCrownAnalyzer, AlphaCrownConfig
from repro.bounds.cache import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_LP_CACHE_SIZE,
    BoundCache,
    CacheStats,
    LpCache,
    LpCacheStats,
)
from repro.bounds.deeppoly import DeepPolyAnalyzer, default_lower_slope
from repro.bounds.linear_form import (
    ScalarBounds,
    concretize_upper_batch,
    minimizing_corner_batch,
)
from repro.bounds.report import BoundReport, Parent
from repro.bounds.splits import (
    ACTIVE,
    INACTIVE,
    ReluSplit,
    SplitAssignment,
    clip_bounds_with_phases,
    stack_rows,
)

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_LP_CACHE_SIZE",
    "LpCache",
    "LpCacheStats",
    "clip_bounds_with_phases",
    "stack_rows",
    "AlphaCrownAnalyzer",
    "AlphaCrownConfig",
    "BoundCache",
    "CacheStats",
    "DeepPolyAnalyzer",
    "default_lower_slope",
    "ScalarBounds",
    "concretize_upper_batch",
    "minimizing_corner_batch",
    "BoundReport",
    "Parent",
    "ACTIVE",
    "INACTIVE",
    "ReluSplit",
    "SplitAssignment",
]
