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
from typing import Tuple

import numpy as np

from repro.specs.properties import InputBox
from repro.utils.validation import require


@dataclass(frozen=True)
class LinearForm:
    """A batch of affine functions of the input: ``A @ x + c`` (row per function)."""

    coefficients: np.ndarray
    constants: np.ndarray

    def __post_init__(self) -> None:
        coefficients = np.asarray(self.coefficients, dtype=float)
        constants = np.asarray(self.constants, dtype=float).reshape(-1)
        require(coefficients.ndim == 2, "coefficients must be a matrix")
        require(coefficients.shape[0] == constants.shape[0],
                "coefficients and constants must agree on the number of rows")
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "constants", constants)

    @property
    def num_rows(self) -> int:
        return int(self.coefficients.shape[0])

    @property
    def input_dim(self) -> int:
        return int(self.coefficients.shape[1])

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Evaluate every row at a single input ``x``."""
        x = np.asarray(x, dtype=float).reshape(-1)
        require(x.shape[0] == self.input_dim, "input has wrong dimension")
        return self.coefficients @ x + self.constants

    def lower_bound(self, box: InputBox) -> np.ndarray:
        """Per-row minimum over the box."""
        return concretize_lower(self.coefficients, self.constants, box)

    def upper_bound(self, box: InputBox) -> np.ndarray:
        """Per-row maximum over the box."""
        return concretize_upper(self.coefficients, self.constants, box)

    def minimizer(self, box: InputBox, row: int) -> np.ndarray:
        """The box corner minimising the given row."""
        require(0 <= row < self.num_rows, f"row {row} out of range")
        return minimizing_corner(self.coefficients[row], box)

    def maximizer(self, box: InputBox, row: int) -> np.ndarray:
        """The box corner maximising the given row."""
        require(0 <= row < self.num_rows, f"row {row} out of range")
        return minimizing_corner(-self.coefficients[row], box)


def concretize_lower(coefficients: np.ndarray, constants: np.ndarray,
                     box: InputBox) -> np.ndarray:
    """Minimum of ``A @ x + c`` over the box, per row."""
    coefficients = np.asarray(coefficients, dtype=float)
    constants = np.asarray(constants, dtype=float)
    positive = np.maximum(coefficients, 0.0)
    negative = np.minimum(coefficients, 0.0)
    return positive @ box.lower + negative @ box.upper + constants


def concretize_upper(coefficients: np.ndarray, constants: np.ndarray,
                     box: InputBox) -> np.ndarray:
    """Maximum of ``A @ x + c`` over the box, per row."""
    coefficients = np.asarray(coefficients, dtype=float)
    constants = np.asarray(constants, dtype=float)
    positive = np.maximum(coefficients, 0.0)
    negative = np.minimum(coefficients, 0.0)
    return positive @ box.upper + negative @ box.lower + constants


def minimizing_corner(coefficients: np.ndarray, box: InputBox) -> np.ndarray:
    """The box corner minimising ``coefficients @ x`` (lower where coeff > 0)."""
    coefficients = np.asarray(coefficients, dtype=float).reshape(-1)
    require(coefficients.shape[0] == box.dimension, "coefficient vector has wrong dimension")
    return np.where(coefficients > 0, box.lower, box.upper)


def concretize_lower_batch(coefficients: np.ndarray, constants: np.ndarray,
                           box: InputBox) -> np.ndarray:
    """Batched :func:`concretize_lower`: ``(B, R, D)`` coefficients, ``(B, R)`` constants."""
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
    """Batched :func:`concretize_upper`: ``(B, R, D)`` coefficients, ``(B, R)`` constants."""
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
    """Batched :func:`minimizing_corner`: one ``(B, D)`` corner per coefficient row."""
    coefficients = np.asarray(coefficients, dtype=float)
    require(coefficients.ndim == 2 and coefficients.shape[1] == box.dimension,
            "batched coefficient rows must be (batch, dim)")
    return np.where(coefficients > 0, box.lower, box.upper)


@dataclass(frozen=True)
class BatchedLinearForm:
    """A leading-batch-axis stack of linear forms: ``A[b] @ x + c[b]``.

    ``coefficients`` has shape ``(batch, rows, input_dim)`` and ``constants``
    shape ``(batch, rows)``; element ``b`` is the :class:`LinearForm` of the
    b-th sub-problem of a batched bound computation.
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

    def select(self, index: int) -> LinearForm:
        """The unbatched linear form of one batch element."""
        require(0 <= index < self.batch_size, f"batch index {index} out of range")
        return LinearForm(self.coefficients[index], self.constants[index])

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
class AffineForms:
    """Paired input-level lower/upper linear forms of one vector quantity.

    The backward substitution bounds an expression twice — once
    under-approximating (``lower_A @ x + lower_c`` is a sound lower bound)
    and once over-approximating.  This pair is what
    :class:`~repro.bounds.cache.SubstitutionEntry` memoises per layer: the
    *accumulated* forms of a finished backward pass, valid for every
    sub-problem sharing the pass's relaxations.  A phase-split child whose
    relaxations below the layer are unchanged inherits the parent's forms
    verbatim (the rank-1 split correction only clips the concretised
    bounds), which is what makes the incremental path exact.
    """

    lower_A: np.ndarray
    lower_c: np.ndarray
    upper_A: np.ndarray
    upper_c: np.ndarray

    @property
    def num_rows(self) -> int:
        return int(np.asarray(self.lower_A).shape[0])

    def concretize(self, box: InputBox) -> "ScalarBounds":
        """Scalar bounds of the forms over the box (pre-clip)."""
        return ScalarBounds(concretize_lower(self.lower_A, self.lower_c, box),
                            concretize_upper(self.upper_A, self.upper_c, box))

    def minimizer(self, box: InputBox, row: int) -> np.ndarray:
        """The box corner minimising one row of the lower form."""
        require(0 <= row < self.num_rows, f"row {row} out of range")
        return minimizing_corner(self.lower_A[row], box)


@dataclass(frozen=True)
class BatchedAffineForms:
    """A leading-batch-axis stack of :class:`AffineForms`.

    ``lower_A``/``upper_A`` have shape ``(batch, rows, input_dim)`` and the
    constants ``(batch, rows)``; :meth:`select` yields one batch element's
    forms as *views* (no copies — the batched substitution arrays are never
    mutated after construction, so sharing them is safe and keeps the
    per-layer memoisation allocation-free).
    """

    lower_A: np.ndarray
    lower_c: np.ndarray
    upper_A: np.ndarray
    upper_c: np.ndarray

    @property
    def batch_size(self) -> int:
        return int(np.asarray(self.lower_A).shape[0])

    def select(self, index: int) -> AffineForms:
        """The forms of one batch element (views into the stacked arrays)."""
        require(0 <= index < self.batch_size, f"batch index {index} out of range")
        return AffineForms(self.lower_A[index], self.lower_c[index],
                           self.upper_A[index], self.upper_c[index])

    def minimizers(self, box: InputBox, rows: np.ndarray) -> np.ndarray:
        """Per batch element, the corner minimising the selected lower row."""
        rows = np.asarray(rows, dtype=int).reshape(-1)
        require(rows.shape[0] == self.batch_size,
                "need one row index per batch element")
        selected = self.lower_A[np.arange(self.batch_size), rows]
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
