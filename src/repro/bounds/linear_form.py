"""Symbolic linear forms over the network input and their concretisation.

The DeepPoly/CROWN backward substitution expresses bounds on network
quantities as affine functions of the (flattened) input,

``f(x) = A @ x + c``.

Concretising such a form over an axis-aligned input box gives scalar bounds.
Every concretisation here is written around the box's centre and radius,
``min f = A @ center − |A| @ radius + c`` and
``max f = A @ center + |A| @ radius + c``: two matrix-vector products per
bound instead of splitting ``A`` into its positive and negative parts, and
the bound kernel computes the centre and radius once per call and
concretises each form straight after its substitution.  The box computes
them as ``0.5·lo + 0.5·hi`` and ``0.5·hi − 0.5·lo``, so a finite box never
overflows.  The minimising *corner* of the box is also the candidate
counterexample ``x̂`` that AppVer reports alongside a negative ``p̂``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.specs.properties import InputBox
from repro.utils.validation import require


def concretize_center_radius(coefficients: np.ndarray, constants: np.ndarray,
                             center: np.ndarray, radius: np.ndarray,
                             sign: float) -> np.ndarray:
    """``A[b] @ center + sign·|A[b]| @ radius + c[b]`` per row, unchecked.

    ``(B, R, D)`` coefficients and ``(B, R)`` constants give ``(B, R)``
    bounds: the minimum over the box for ``sign = -1`` and the maximum for
    ``sign = +1``.  The bound kernel's hot path; callers pass float arrays
    of matching shapes.
    """
    batch, rows, dim = coefficients.shape
    flat = coefficients.reshape(batch * rows, dim)
    values = flat @ center
    spread = np.abs(flat) @ radius
    values = values - spread if sign < 0 else values + spread
    return values.reshape(batch, rows) + constants


def _checked(coefficients: np.ndarray, constants: np.ndarray):
    """Float ``(B, R, D)`` coefficients and ``(B, R)`` constants, or ``ValueError``."""
    coefficients = np.asarray(coefficients, dtype=float)
    constants = np.asarray(constants, dtype=float)
    require(coefficients.ndim == 3, "batched coefficients must be (batch, rows, dim)")
    require(constants.shape == coefficients.shape[:2],
            "batched constants must be (batch, rows)")
    return coefficients, constants


def concretize_upper_batch(coefficients: np.ndarray, constants: np.ndarray,
                           box: InputBox) -> np.ndarray:
    """Maximum of ``A[b] @ x + c[b]`` over the box, per row: ``(B, R, D)``
    coefficients and ``(B, R)`` constants give ``(B, R)`` bounds."""
    coefficients, constants = _checked(coefficients, constants)
    return concretize_center_radius(coefficients, constants, box.center,
                                    box.radius, 1.0)


def minimizing_corner_batch(coefficients: np.ndarray, box: InputBox) -> np.ndarray:
    """The box corners minimising each row of ``(B, D)`` coefficients
    (lower where the coefficient is positive): ``(B, D)`` corners."""
    coefficients = np.asarray(coefficients, dtype=float)
    require(coefficients.ndim == 2 and coefficients.shape[1] == box.dimension,
            "batched coefficient rows must be (batch, dim)")
    return np.where(coefficients > 0, box.lower, box.upper)


@dataclass(frozen=True)
class ScalarBounds:
    """Elementwise scalar lower/upper bounds on a vector-valued quantity."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower = np.asarray(self.lower, dtype=float).reshape(-1)
        upper = np.asarray(self.upper, dtype=float).reshape(-1)
        require(lower.shape == upper.shape, "lower and upper must have the same shape")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def wrap(cls, lower: np.ndarray, upper: np.ndarray) -> "ScalarBounds":
        """Trusted constructor for internal hot paths.

        Skips the coercion/validation of ``__post_init__``; callers must
        pass equal-shape 1-D float arrays (e.g. rows of a batched analysis
        or per-layer views of a report's flat row), which it keeps as they
        are, without a copy.
        """
        bounds = object.__new__(cls)
        object.__setattr__(bounds, "lower", lower)
        object.__setattr__(bounds, "upper", upper)
        return bounds

    @property
    def size(self) -> int:
        """Number of bounded quantities."""
        return int(self.lower.shape[0])

    def is_consistent(self) -> bool:
        """True when every lower bound is at most its upper bound."""
        return bool(np.all(self.lower <= self.upper + 1e-12))

    def contains(self, values: np.ndarray, tolerance: float = 1e-7) -> bool:
        """Whether a concrete vector lies within the bounds."""
        values = np.asarray(values, dtype=float).reshape(-1)
        require(values.shape[0] == self.size, "value vector has wrong size")
        return bool(np.all(values >= self.lower - tolerance)
                    and np.all(values <= self.upper + tolerance))
