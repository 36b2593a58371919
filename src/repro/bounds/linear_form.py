"""Symbolic linear forms over the network input and their concretisation.

The DeepPoly/CROWN backward substitution expresses bounds on network
quantities as affine functions of the (flattened) input,

``f(x) = A @ x + c``.

Concretising such a form over an axis-aligned input box gives scalar bounds;
the minimising / maximising *corner* of the box is also the candidate
counterexample ``x̂`` that AppVer reports alongside a negative ``p̂``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.specs.properties import InputBox
from repro.utils.validation import require


def concretize_lower_batch(coefficients: np.ndarray, constants: np.ndarray,
                           box: InputBox) -> np.ndarray:
    """Minimum of ``A[b] @ x + c[b]`` over the box, per row: ``(B, R, D)``
    coefficients and ``(B, R)`` constants give ``(B, R)`` bounds."""
    coefficients = np.asarray(coefficients, dtype=float)
    constants = np.asarray(constants, dtype=float)
    require(coefficients.ndim == 3, "batched coefficients must be (batch, rows, dim)")
    batch, rows, dim = coefficients.shape
    flat = coefficients.reshape(batch * rows, dim)
    positive = np.maximum(flat, 0.0)
    negative = np.minimum(flat, 0.0)
    values = positive @ box.lower + negative @ box.upper
    return values.reshape(batch, rows) + constants


def concretize_upper_batch(coefficients: np.ndarray, constants: np.ndarray,
                           box: InputBox) -> np.ndarray:
    """Maximum of ``A[b] @ x + c[b]`` over the box, per row: ``(B, R, D)``
    coefficients and ``(B, R)`` constants give ``(B, R)`` bounds."""
    coefficients = np.asarray(coefficients, dtype=float)
    constants = np.asarray(constants, dtype=float)
    require(coefficients.ndim == 3, "batched coefficients must be (batch, rows, dim)")
    batch, rows, dim = coefficients.shape
    flat = coefficients.reshape(batch * rows, dim)
    positive = np.maximum(flat, 0.0)
    negative = np.minimum(flat, 0.0)
    values = positive @ box.upper + negative @ box.lower
    return values.reshape(batch, rows) + constants


def minimizing_corner_batch(coefficients: np.ndarray, box: InputBox) -> np.ndarray:
    """The box corners minimising each row of ``(B, D)`` coefficients
    (lower where the coefficient is positive): ``(B, D)`` corners."""
    coefficients = np.asarray(coefficients, dtype=float)
    require(coefficients.ndim == 2 and coefficients.shape[1] == box.dimension,
            "batched coefficient rows must be (batch, dim)")
    return np.where(coefficients > 0, box.lower, box.upper)


@dataclass(frozen=True)
class BatchedLinearForm:
    """A leading-batch-axis stack of linear forms: ``A[b] @ x + c[b]``.

    ``coefficients`` has shape ``(batch, rows, input_dim)`` and ``constants``
    shape ``(batch, rows)``; element ``b`` holds the forms of the b-th
    sub-problem of a batched bound computation.
    """

    coefficients: np.ndarray
    constants: np.ndarray

    def __post_init__(self) -> None:
        coefficients = np.asarray(self.coefficients, dtype=float)
        constants = np.asarray(self.constants, dtype=float)
        require(coefficients.ndim == 3, "coefficients must be (batch, rows, dim)")
        require(constants.shape == coefficients.shape[:2],
                "constants must be (batch, rows)")
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "constants", constants)

    @property
    def batch_size(self) -> int:
        return int(self.coefficients.shape[0])

    @property
    def num_rows(self) -> int:
        return int(self.coefficients.shape[1])

    @property
    def input_dim(self) -> int:
        return int(self.coefficients.shape[2])

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Evaluate every batch element's rows at one input: ``(batch, rows)``."""
        x = np.asarray(x, dtype=float).reshape(-1)
        require(x.shape[0] == self.input_dim, "input has wrong dimension")
        return self.coefficients @ x + self.constants

    def lower_bound(self, box: InputBox) -> np.ndarray:
        """Per-element per-row minimum over the box: ``(batch, rows)``."""
        return concretize_lower_batch(self.coefficients, self.constants, box)

    def upper_bound(self, box: InputBox) -> np.ndarray:
        """Per-element per-row maximum over the box: ``(batch, rows)``."""
        return concretize_upper_batch(self.coefficients, self.constants, box)

    def minimizers(self, box: InputBox, rows: np.ndarray) -> np.ndarray:
        """Per batch element, the corner minimising the selected row."""
        rows = np.asarray(rows, dtype=int).reshape(-1)
        require(rows.shape[0] == self.batch_size, "need one row index per batch element")
        selected = self.coefficients[np.arange(self.batch_size), rows]
        return minimizing_corner_batch(selected, box)


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
        pass equal-shape 1-D float arrays (e.g. rows of a batched analysis).
        A bound analysis builds five-plus instances per sub-problem, so the
        constructor overhead is measurable on the per-child hot path.
        """
        bounds = object.__new__(cls)
        object.__setattr__(bounds, "lower", lower)
        object.__setattr__(bounds, "upper", upper)
        return bounds

    @property
    def size(self) -> int:
        return int(self.lower.shape[0])

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def is_consistent(self) -> bool:
        """True when every lower bound is at most its upper bound."""
        return bool(np.all(self.lower <= self.upper + 1e-12))

    def intersect(self, other: "ScalarBounds") -> "ScalarBounds":
        """Elementwise intersection (may produce inconsistent bounds)."""
        require(self.size == other.size, "bounds have different sizes")
        return ScalarBounds(np.maximum(self.lower, other.lower),
                            np.minimum(self.upper, other.upper))

    def contains(self, values: np.ndarray, tolerance: float = 1e-7) -> bool:
        """Whether a concrete vector lies within the bounds."""
        values = np.asarray(values, dtype=float).reshape(-1)
        require(values.shape[0] == self.size, "value vector has wrong size")
        return bool(np.all(values >= self.lower - tolerance)
                    and np.all(values <= self.upper + tolerance))
