"""Per-leaf leaf-LP programs and emptiness screen: the oracle for the batch.

The library builds every leaf program of a :func:`solve_leaf_lp_batch` call
in one batched forward composition over the stacked phase rows, and screens
the padded sign rows with one Farkas search.  This module keeps the
one-leaf-at-a-time construction it replaced, unchanged but for reading a
layer's phases neuron by neuron through ``SplitAssignment.phase_of``: each
leaf's affine map composed over its own active rows, and its sign rows
re-padded for the screen.  The batched builder must reproduce its
objectives, constants and sign rows to within ``TOLERANCE`` and its
proven-empty flags exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

from repro.bounds.linear_form import concretize_upper_batch
from repro.bounds.report import BoundReport
from repro.bounds.splits import ACTIVE, SplitAssignment
from repro.nn.network import LoweredNetwork
from repro.specs.properties import InputBox, LinearOutputSpec
from repro.verifiers.milp import (
    _CERTIFICATE_ITERATIONS,
    _CERTIFICATE_STEP,
    _CERTIFICATE_TOLERANCE,
)

#: Agreement required between the batched programs and this reference.
TOLERANCE = 1e-12


@dataclass(frozen=True)
class SplitRows:
    """A leaf's split rows, signed so that each reads ``matrix @ x + offset >= 0``.

    ``sign`` is ``+1`` for an ACTIVE split and ``-1`` for an INACTIVE one,
    so row ``i`` is ``sign_i (a_i x + c_i) >= 0`` for the neuron's
    pre-activation ``a_i x + c_i``.
    """

    matrix: np.ndarray
    offset: np.ndarray
    sign: np.ndarray

    def constraint(self) -> optimize.LinearConstraint:
        """The rows as HiGHS solves them: ``a x >= -c`` ACTIVE, ``a x <= -c``
        INACTIVE (unsigning is exact, so the solver input is unchanged)."""
        active = self.sign > 0
        bound = -self.sign * self.offset
        return optimize.LinearConstraint(self.sign[:, None] * self.matrix,
                                         np.where(active, bound, -np.inf),
                                         np.where(active, np.inf, bound))


def reference_leaf_program(network: LoweredNetwork, spec: LinearOutputSpec,
                  splits: SplitAssignment, report: BoundReport
                  ) -> Tuple[np.ndarray, np.ndarray, Optional[SplitRows]]:
    """The input-space leaf LP: ``(objectives, constants, split rows)``.

    Composes the decided leaf's affine map forward (see the module
    docstring) and keeps one sign row per split neuron; the rows are
    ``None`` when nothing is split.  Raises ``ValueError`` when any neuron
    is still unstable — the leaf LP is only defined for fully
    phase-decided sub-problems.
    """
    matrix = network.weights[0]
    offset = network.biases[0]
    rows: List[np.ndarray] = []
    offsets: List[np.ndarray] = []
    signs: List[np.ndarray] = []
    layers = report.pre_activation_bounds
    for layer, size in enumerate(network.relu_layer_sizes()):
        bounds = layers[layer]
        split = np.array([splits.phase_of(layer, unit) for unit in range(size)],
                         dtype=int)
        decided = split != 0
        if np.any(~decided & (bounds.lower < 0.0) & (bounds.upper > 0.0)):
            raise ValueError("leaf LP requires every ReLU neuron to be phase-decided")
        active = np.where(decided, split == ACTIVE, bounds.lower >= 0.0)
        # One sign row per split neuron: ACTIVE A x + c >= 0, INACTIVE
        # -(A x + c) >= 0 (ACTIVE and INACTIVE are the signs +1 and -1).
        sign = split[decided].astype(float)
        rows.append(sign[:, None] * matrix[decided])
        offsets.append(sign * offset[decided])
        signs.append(sign)
        weight = network.weights[layer + 1][:, active]
        matrix = weight @ matrix[active]
        offset = weight @ offset[active] + network.biases[layer + 1]
    objectives = spec.coefficients @ matrix
    constants = spec.coefficients @ offset + spec.offsets
    split_rows = None
    if any(len(block) for block in signs):
        split_rows = SplitRows(np.vstack(rows), np.concatenate(offsets),
                                np.concatenate(signs))
    return objectives, constants, split_rows


def reference_prove_empty(leaf_rows: Sequence[SplitRows], box: InputBox) -> np.ndarray:
    """Which leaves a Farkas certificate proves empty over the box.

    A region ``{x in box : g_i(x) >= 0}`` is empty iff some ``lambda >= 0``
    with ``sum(lambda) = 1`` has ``U(lambda) = max_box sum_i lambda_i g_i(x)
    < 0``; ``U`` is the box-corner concretisation of the combined row.  One
    exponentiated-gradient (mirror-descent) search over the simplex runs on
    all leaves at once, on rows scaled to unit range over the box and
    padded to the batch's largest row count.  A leaf is accepted only when
    its best ``lambda``, mapped back to the *original* rows and normalised
    to sum 1, gives ``U < -_CERTIFICATE_TOLERANCE``: every box point then
    violates some split row by more than that.  Returns one bool per leaf;
    ``False`` proves nothing.
    """
    count = len(leaf_rows)
    width = max(len(rows.offset) for rows in leaf_rows)
    matrix = np.zeros((count, width, box.dimension))
    offset = np.zeros((count, width))
    present = np.zeros((count, width), dtype=bool)
    for index, rows in enumerate(leaf_rows):
        size = len(rows.offset)
        matrix[index, :size] = rows.matrix
        offset[index, :size] = rows.offset
        present[index, :size] = True
    span = np.abs(matrix) @ (box.upper - box.lower)
    scale = 1.0 / np.where(span > 0.0, span, 1.0)
    unit_matrix = matrix * scale[..., None]
    unit_offset = offset * scale

    logits = np.where(present, 0.0, -np.inf)
    best = present / present.sum(axis=1, keepdims=True)
    best_upper = np.full(count, np.inf)
    for _ in range(_CERTIFICATE_ITERATIONS):
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        combined = np.einsum("br,brd->bd", weights, unit_matrix)
        corner = np.where(combined > 0.0, box.upper, box.lower)
        values = np.einsum("brd,bd->br", unit_matrix, corner) + unit_offset
        # U on the original rows: sum(w g~) / sum(w scale), since
        # lambda = w scale / sum(w scale) combines the unscaled rows.
        upper = (weights * values).sum(axis=1) / (weights * scale).sum(axis=1)
        improved = upper < best_upper
        best[improved] = weights[improved]
        best_upper[improved] = upper[improved]
        if np.all(best_upper < -_CERTIFICATE_TOLERANCE):
            break
        # Descend on the subgradient g~(x*): violated rows gain weight.
        logits -= _CERTIFICATE_STEP * values

    multipliers = best * scale
    multipliers /= multipliers.sum(axis=1, keepdims=True)
    upper = concretize_upper_batch(
        np.einsum("br,brd->bd", multipliers, matrix)[:, None, :],
        (multipliers * offset).sum(axis=1)[:, None], box)[:, 0]
    return upper < -_CERTIFICATE_TOLERANCE
