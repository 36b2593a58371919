"""Verification specifications: input regions and linear output properties.

A verification problem (§III of the paper) is a pair ``(Φ, Ψ)``:

* ``Φ`` constrains the input — here an axis-aligned box, which covers the
  L∞ local-robustness properties used in the paper's evaluation;
* ``Ψ`` constrains the output — here a conjunction of linear inequalities
  ``C @ y + d >= 0`` over the network output ``y``.  The *margin*
  ``min_i (C_i @ y + d_i)`` plays the role of the paper's satisfaction
  level: the property holds for ``y`` iff the margin is non-negative, and
  the AppVer value ``p̂`` is a lower bound of the margin over the input box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import require, require_finite_array


@dataclass(frozen=True)
class InputBox:
    """An axis-aligned box over the flattened network input."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower = require_finite_array(self.lower, "lower").reshape(-1)
        upper = require_finite_array(self.upper, "upper").reshape(-1)
        require(lower.shape == upper.shape, "lower and upper must have the same shape")
        require(bool(np.all(lower <= upper)), "lower bound must not exceed upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def from_linf_ball(cls, center: np.ndarray, epsilon: float,
                       domain_lower: float = 0.0, domain_upper: float = 1.0) -> "InputBox":
        """The L∞ ball of radius ``epsilon`` around ``center``, clipped to the domain."""
        require(epsilon >= 0.0, "epsilon must be non-negative")
        require(domain_lower <= domain_upper, "invalid domain bounds")
        center = np.asarray(center, dtype=float).reshape(-1)
        lower = np.clip(center - epsilon, domain_lower, domain_upper)
        upper = np.clip(center + epsilon, domain_lower, domain_upper)
        return cls(lower, upper)

    @property
    def dimension(self) -> int:
        return int(self.lower.shape[0])

    @property
    def center(self) -> np.ndarray:
        """``0.5·lo + 0.5·hi``: halving first keeps every finite box finite."""
        return 0.5 * self.lower + 0.5 * self.upper

    @property
    def radius(self) -> np.ndarray:
        """``0.5·hi − 0.5·lo``: halving first keeps every finite box finite."""
        return 0.5 * self.upper - 0.5 * self.lower

    @property
    def volume_log(self) -> float:
        """Log-volume of the box (``-inf`` when any side is degenerate)."""
        widths = self.upper - self.lower
        if np.any(widths <= 0.0):
            return float("-inf")
        return float(np.sum(np.log(widths)))

    def contains(self, point: np.ndarray, tolerance: float = 1e-9) -> bool:
        """Whether ``point`` lies inside the box (up to ``tolerance``)."""
        point = np.asarray(point, dtype=float).reshape(-1)
        require(point.shape == self.lower.shape, "point has wrong dimension")
        return bool(np.all(point >= self.lower - tolerance)
                    and np.all(point <= self.upper + tolerance))

    def clip(self, point: np.ndarray) -> np.ndarray:
        """Project ``point`` onto the box."""
        point = np.asarray(point, dtype=float).reshape(-1)
        return np.clip(point, self.lower, self.upper)

    def sample(self, rng: SeedLike = None, count: int = 1) -> np.ndarray:
        """Draw ``count`` uniform samples from the box, shape ``(count, dim)``."""
        rng = as_rng(rng)
        width = self.upper - self.lower
        return self.lower + rng.random((count, self.dimension)) * width

    def corners(self, signs: np.ndarray) -> np.ndarray:
        """Return the corner selected by ``signs`` (>=0 chooses upper, <0 lower)."""
        signs = np.asarray(signs, dtype=float).reshape(-1)
        require(signs.shape == self.lower.shape, "signs has wrong dimension")
        return np.where(signs >= 0, self.upper, self.lower)


@dataclass(frozen=True)
class LinearOutputSpec:
    """A conjunction of linear output constraints ``C @ y + d >= 0``.

    The property is satisfied for an output ``y`` iff every row constraint
    is non-negative; the margin is the minimum row value.
    """

    coefficients: np.ndarray
    offsets: np.ndarray
    description: str = "linear output property"

    def __post_init__(self) -> None:
        coefficients = require_finite_array(self.coefficients, "coefficients")
        offsets = require_finite_array(self.offsets, "offsets").reshape(-1)
        require(coefficients.ndim == 2, "coefficients must be a matrix")
        require(coefficients.shape[0] == offsets.shape[0],
                "coefficients and offsets must have the same number of rows")
        require(coefficients.shape[0] >= 1, "at least one output constraint is required")
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "offsets", offsets)

    @property
    def num_constraints(self) -> int:
        return int(self.coefficients.shape[0])

    @property
    def output_dim(self) -> int:
        return int(self.coefficients.shape[1])

    def constraint_values(self, output: np.ndarray) -> np.ndarray:
        """Per-constraint values ``C @ y + d`` for a single output ``y``."""
        output = np.asarray(output, dtype=float).reshape(-1)
        require(output.shape[0] == self.output_dim,
                f"output has dimension {output.shape[0]}, expected {self.output_dim}")
        return self.coefficients @ output + self.offsets

    def margin(self, output: np.ndarray) -> float:
        """Satisfaction margin: negative iff the property is violated at ``y``."""
        return float(np.min(self.constraint_values(output)))

    def satisfied(self, output: np.ndarray) -> bool:
        return self.margin(output) >= 0.0


@dataclass(frozen=True)
class Specification:
    """A complete verification problem ``(Φ, Ψ)`` plus metadata."""

    input_box: InputBox
    output_spec: LinearOutputSpec
    name: str = "problem"
    metadata: dict = field(default_factory=dict)

    @property
    def input_dim(self) -> int:
        return self.input_box.dimension

    @property
    def output_dim(self) -> int:
        return self.output_spec.output_dim

    def margin(self, network, point: np.ndarray) -> float:
        """Spec margin of ``network`` at a single input ``point``."""
        output = np.asarray(network.forward(point.reshape(1, -1))).reshape(-1)
        return self.output_spec.margin(output)

    def is_counterexample(self, network, point: np.ndarray,
                          tolerance: float = 1e-9) -> bool:
        """True iff ``point`` is inside ``Φ`` and violates ``Ψ`` on ``network``.

        This is the ``valid(x̂)`` predicate of Def. 1 / Alg. 1.
        """
        point = np.asarray(point, dtype=float).reshape(-1)
        if not self.input_box.contains(point, tolerance=tolerance):
            return False
        return self.margin(network, point) < 0.0

    def is_counterexample_batch(self, network, points: np.ndarray,
                                tolerance: float = 1e-9) -> np.ndarray:
        """Vectorised :meth:`is_counterexample` over ``(B, dim)`` points.

        One stacked network forward pass validates the whole batch; the
        containment tolerance and margin formula are the same as the
        scalar predicate (batched GEMMs may differ from single-row
        forwards in the last ulp, which can only matter for margins
        exactly at zero).
        """
        points = np.asarray(points, dtype=float).reshape(-1, self.input_dim)
        inside = np.all((points >= self.input_box.lower - tolerance)
                        & (points <= self.input_box.upper + tolerance), axis=1)
        outputs = np.asarray(network.forward(points))
        values = outputs @ self.output_spec.coefficients.T + self.output_spec.offsets
        return inside & (values.min(axis=1) < 0.0)
