"""ReLU phase-split constraints shared by bound propagation and BaB.

A BaB sub-problem Γ (§III of the paper) is identified by a sequence of ReLU
input constraints: each split fixes one ReLU neuron to be *active*
(``r+``: pre-activation >= 0) or *inactive* (``r-``: pre-activation <= 0).
The bound-propagation verifiers consume these constraints as a
:class:`SplitAssignment`: one phase row over the network's hidden neurons
in flat, layer-major order.  A batch stacks its rows into one array
(:func:`stack_rows`), so per-layer phases, unstable masks and leaf
programs are array slices, and a row's bytes are its cache key.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import require

#: Phase constants: pre-activation forced non-negative / non-positive.
ACTIVE = 1
INACTIVE = -1


@dataclass(frozen=True)
class ReluSplit:
    """A single ReLU phase decision ``r+_(layer, unit)`` or ``r-_(layer, unit)``."""

    layer: int
    unit: int
    phase: int

    def __post_init__(self) -> None:
        require(self.layer >= 0, "layer must be non-negative")
        require(self.unit >= 0, "unit must be non-negative")
        require(self.phase in (ACTIVE, INACTIVE), "phase must be ACTIVE (+1) or INACTIVE (-1)")

    @property
    def neuron(self) -> Tuple[int, int]:
        """The split neuron's ``(layer, unit)`` address."""
        return (self.layer, self.unit)

    def negated(self) -> "ReluSplit":
        """The opposite phase decision for the same neuron."""
        return ReluSplit(self.layer, self.unit, -self.phase)

    def __str__(self) -> str:
        sign = "+" if self.phase == ACTIVE else "-"
        return f"r{sign}({self.layer},{self.unit})"


def flat_offsets(sizes: Sequence[int]) -> List[int]:
    """Start of each layer in a flat row of layers of ``sizes``, then its end."""
    return list(accumulate(sizes, initial=0))


class SplitAssignment:
    """The constraint set Γ of a BaB node as one immutable phase row.

    ``row`` is an ``int8`` vector over the hidden neurons in the flat,
    layer-major order of :class:`~repro.bounds.report.FlatBounds` (layer
    ``l`` occupies ``offsets[l]:offsets[l + 1]``): 0 undecided, else the
    decided phase.  A run's root comes from :meth:`empty`, and each child
    is its parent's row with one entry set (:meth:`with_split`), sharing
    ``offsets``.  Nothing may write to ``row``.
    """

    __slots__ = ("row", "offsets")

    def __init__(self, row: np.ndarray, offsets: Tuple[int, ...]) -> None:
        self.row = row
        self.offsets = offsets

    @classmethod
    def empty(cls, sizes: Sequence[int]) -> "SplitAssignment":
        """The root assignment of a network whose hidden layers have ``sizes``."""
        offsets = tuple(flat_offsets(sizes))
        return cls(np.zeros(offsets[-1], dtype=np.int8), offsets)

    @classmethod
    def from_splits(cls, sizes: Sequence[int],
                    splits: Iterable[ReluSplit]) -> "SplitAssignment":
        """The root of ``sizes`` extended by every split in turn (see
        :meth:`with_split`)."""
        assignment = cls.empty(sizes)
        for split in splits:
            assignment = assignment.with_split(split)
        return assignment

    def _index(self, layer: int, unit: int) -> int:
        """The flat row index of neuron ``(layer, unit)``; ``ValueError`` for a
        neuron outside the row's layers, which a flat index would misplace."""
        offsets = self.offsets
        if not (0 <= layer < len(offsets) - 1
                and 0 <= unit < offsets[layer + 1] - offsets[layer]):
            raise ValueError(f"neuron {(layer, unit)} is outside the network's "
                             "hidden layers")
        return offsets[layer] + unit

    def with_split(self, split: ReluSplit) -> "SplitAssignment":
        """Return a new assignment extended by ``split``.

        A neuron outside the row, or re-split with a conflicting phase (a
        programming error in the BaB driver), raises ``ValueError``.  Only
        the added split is checked: the inherited phases were validated when
        this assignment was built, and ``split`` validated its own phase.
        """
        index = self._index(split.layer, split.unit)
        existing = self.row[index]
        if existing and existing != split.phase:
            raise ValueError(f"conflicting split for neuron {split.neuron}")
        row = self.row.copy()
        row[index] = split.phase
        return SplitAssignment(row, self.offsets)

    def phase_of(self, layer: int, unit: int) -> int:
        """Return the decided phase of a neuron, or 0 when undecided."""
        return int(self.row[self._index(layer, unit)])

    def is_decided(self, layer: int, unit: int) -> bool:
        """Whether a split fixes the phase of neuron ``(layer, unit)``."""
        return self.phase_of(layer, unit) != 0

    @property
    def key(self) -> bytes:
        """The row's bytes: equal exactly for equal assignments of one
        network, so the LP cache and the α-CROWN slope store key on it."""
        return self.row.tobytes()

    def key_without(self, split: ReluSplit) -> bytes:
        """The key of this assignment with ``split``'s neuron undecided: a
        child's key without its newest split is its parent's key."""
        row = self.row.copy()
        row[self._index(split.layer, split.unit)] = 0
        return row.tobytes()

    def __len__(self) -> int:
        return int(np.count_nonzero(self.row))

    def __iter__(self) -> Iterator[ReluSplit]:
        decided = np.flatnonzero(self.row)
        layers = np.searchsorted(self.offsets, decided, side="right") - 1
        for index, layer in zip(decided.tolist(), layers.tolist()):
            yield ReluSplit(layer, index - self.offsets[layer], int(self.row[index]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SplitAssignment):
            return NotImplemented
        return self.offsets == other.offsets and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __str__(self) -> str:
        if not len(self):
            return "Γ=ε"
        return "Γ=" + "·".join(str(split) for split in self)

    def satisfied_by(self, pre_activations: Iterable, tolerance: float = 1e-9) -> bool:
        """Whether concrete pre-activation vectors satisfy every decided phase.

        ``pre_activations`` is the per-layer list produced by
        :meth:`repro.nn.network.LoweredNetwork.pre_activations`; vectors
        of another layout satisfy nothing.
        """
        layers = [np.ravel(values) for values in pre_activations]
        if [len(values) for values in layers] != np.diff(self.offsets).tolist():
            return False
        decided = self.row != 0
        signed = np.concatenate(layers + [np.empty(0)])[decided] * self.row[decided]
        return not np.any(signed < -tolerance)


def stack_rows(splits_list: Sequence[Optional[SplitAssignment]],
               root: SplitAssignment) -> np.ndarray:
    """The phase rows of a batch stacked into one ``(count, H)`` array.

    ``root`` is the network's empty assignment: a ``None`` entry takes its
    row, and every assignment must share its layer layout.
    """
    offsets = root.offsets
    require(all(splits is None or splits.offsets == offsets for splits in splits_list),
            "split assignments must lay out the network's hidden layers")
    return np.concatenate([root.row if splits is None else splits.row
                           for splits in splits_list]).reshape(len(splits_list), -1)


def layer_rows(rows: np.ndarray, offsets: Sequence[int],
               layer: int) -> Optional[np.ndarray]:
    """One layer's ``(count, width)`` slice of stacked phase rows, or
    ``None`` when no row decides a neuron of that layer."""
    phases = rows[:, offsets[layer]:offsets[layer + 1]]
    return phases if phases.any() else None


def clip_bounds_with_phases(lower: np.ndarray, upper: np.ndarray,
                            decided: Optional[Tuple[np.ndarray, np.ndarray]]
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched split clipping plus per-row inconsistency handling, in place.

    Intersects ``(B, width)`` pre-activation bounds with the decided phases
    and flags each batch row whose bounds are empty (beyond the ``1e-12``
    slack of :meth:`~repro.bounds.linear_form.ScalarBounds.is_consistent`),
    re-sorting only those rows so downstream relaxations stay well formed.
    ``decided`` holds the ``(B, width)`` masks ``(phases == ACTIVE, phases
    == INACTIVE)``, computed once for the clip and the relaxation after it,
    or is ``None`` when nothing is decided.  ACTIVE entries clip the lower
    bound to 0 and INACTIVE entries the upper.  The emptiness test runs
    whether or not anything was clipped, and a NaN bound (an overflowed
    analysis) never reads as empty.  ``lower`` and ``upper`` are clipped
    and re-sorted in place and returned as ``(lower, upper,
    inconsistent_rows)``.
    """
    if decided is not None:
        np.maximum(lower, 0.0, out=lower, where=decided[0])
        np.minimum(upper, 0.0, out=upper, where=decided[1])
    empty = lower > upper + 1e-12
    if not empty.any():
        return lower, upper, np.zeros(len(lower), dtype=bool)
    inconsistent = empty.any(axis=1)
    swapped_lower = np.minimum(lower[inconsistent], upper[inconsistent])
    swapped_upper = np.maximum(lower[inconsistent], upper[inconsistent])
    lower[inconsistent] = swapped_lower
    upper[inconsistent] = swapped_upper
    return lower, upper, inconsistent
