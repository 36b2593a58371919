"""Approximated-verifier substrate: IBP, DeepPoly/CROWN and α-CROWN bounds."""

from repro.bounds.alpha_crown import AlphaCrownAnalyzer, AlphaCrownConfig, alpha_crown_bounds
from repro.bounds.cache import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_LP_CACHE_SIZE,
    BoundCache,
    CacheStats,
    LpCache,
    LpCacheStats,
)
from repro.bounds.deeppoly import (
    DeepPolyAnalyzer,
    deeppoly_bounds,
    deeppoly_bounds_batch,
    default_lower_slope,
)
from repro.bounds.interval import interval_bounds, interval_bounds_batch
from repro.bounds.linear_form import (
    ScalarBounds,
    concretize_lower_batch,
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
    "alpha_crown_bounds",
    "BoundCache",
    "CacheStats",
    "DeepPolyAnalyzer",
    "deeppoly_bounds",
    "deeppoly_bounds_batch",
    "default_lower_slope",
    "interval_bounds",
    "interval_bounds_batch",
    "ScalarBounds",
    "concretize_lower_batch",
    "concretize_upper_batch",
    "minimizing_corner_batch",
    "BoundReport",
    "Parent",
    "ACTIVE",
    "INACTIVE",
    "ReluSplit",
    "SplitAssignment",
]
