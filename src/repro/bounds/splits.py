"""ReLU phase-split constraints shared by bound propagation and BaB.

A BaB sub-problem Γ (§III of the paper) is identified by a sequence of ReLU
input constraints: each split fixes one ReLU neuron to be *active*
(``r+``: pre-activation >= 0) or *inactive* (``r-``: pre-activation <= 0).
The bound-propagation verifiers consume these constraints as a
:class:`SplitAssignment`, which records the decided phase of each neuron.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

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
        return (self.layer, self.unit)

    def negated(self) -> "ReluSplit":
        """The opposite phase decision for the same neuron."""
        return ReluSplit(self.layer, self.unit, -self.phase)

    def __str__(self) -> str:
        sign = "+" if self.phase == ACTIVE else "-"
        return f"r{sign}({self.layer},{self.unit})"


class SplitAssignment:
    """An immutable mapping from ReLU neurons to decided phases.

    The assignment corresponds to the constraint sequence Γ of a BaB node;
    extending it with one more :class:`ReluSplit` yields a child node's
    assignment.
    """

    def __init__(self, splits: Optional[Mapping[Tuple[int, int], int]] = None) -> None:
        self._phases: Dict[Tuple[int, int], int] = dict(splits or {})
        #: Derivation breadcrumb set by :meth:`with_split`: a weak reference
        #: to the parent plus the added split, when this assignment was
        #: created as a one-split extension.  Purely an accelerator for
        #: :func:`split_delta` — semantics never depend on it (two equal
        #: assignments may differ in provenance), and the weak reference
        #: keeps a child from pinning its whole ancestor chain in memory.
        self._derived_from: Optional[Tuple["weakref.ref", ReluSplit]] = None
        for neuron, phase in self._phases.items():
            require(phase in (ACTIVE, INACTIVE),
                    f"phase for neuron {neuron} must be +1 or -1")

    @classmethod
    def empty(cls) -> "SplitAssignment":
        return cls()

    @classmethod
    def from_splits(cls, splits: Iterable[ReluSplit]) -> "SplitAssignment":
        assignment = cls()
        for split in splits:
            assignment = assignment.with_split(split)
        return assignment

    def with_split(self, split: ReluSplit) -> "SplitAssignment":
        """Return a new assignment extended by ``split``.

        Re-splitting an already-decided neuron with a conflicting phase is a
        programming error in the BaB driver and raises ``ValueError``.
        """
        existing = self._phases.get(split.neuron)
        if existing is not None and existing != split.phase:
            raise ValueError(f"conflicting split for neuron {split.neuron}")
        phases = dict(self._phases)
        phases[split.neuron] = split.phase
        child = SplitAssignment(phases)
        if existing is None:
            child._derived_from = (weakref.ref(self), split)
        return child

    def phase_of(self, layer: int, unit: int) -> int:
        """Return the decided phase of a neuron, or 0 when undecided."""
        return self._phases.get((layer, unit), 0)

    def is_decided(self, layer: int, unit: int) -> bool:
        return (layer, unit) in self._phases

    def decided_neurons(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted(self._phases))

    def layer_phases(self, layer: int, width: int) -> Dict[int, int]:
        """Decided phases restricted to one layer: ``{unit: phase}``."""
        return {unit: phase for (lay, unit), phase in self._phases.items()
                if lay == layer and unit < width}

    def canonical_key(self) -> Tuple[Tuple[int, int, int], ...]:
        """A hashable canonical form: sorted ``(layer, unit, phase)`` triples.

        Two assignments describing the same constraint set always produce the
        same key, which is what the bound cache uses to identify sub-problems.
        """
        return tuple((layer, unit, phase)
                     for (layer, unit), phase in sorted(self._phases.items()))

    def prefix_key(self, max_layer: int) -> Tuple[Tuple[int, int, int], ...]:
        """Canonical key restricted to splits at layers ``<= max_layer``.

        DeepPoly/IBP pre-activation bounds at layer ``L`` depend only on the
        splits decided at layers ``<= L`` (clipping at ``L``, relaxations
        below), so this is the correct cache key for per-layer bounds: a child
        sub-problem shares every prefix entry of its parent below the layer of
        the newly decided neuron.
        """
        return tuple((layer, unit, phase)
                     for (layer, unit), phase in sorted(self._phases.items())
                     if layer <= max_layer)

    def max_layer(self) -> int:
        """The deepest layer with a decided neuron, or ``-1`` when empty."""
        if not self._phases:
            return -1
        return max(layer for layer, _ in self._phases)

    def __len__(self) -> int:
        return len(self._phases)

    def __iter__(self) -> Iterator[ReluSplit]:
        for (layer, unit), phase in sorted(self._phases.items()):
            yield ReluSplit(layer, unit, phase)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SplitAssignment):
            return NotImplemented
        return self._phases == other._phases

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._phases.items())))

    def __str__(self) -> str:
        if not self._phases:
            return "Γ=ε"
        return "Γ=" + "·".join(str(split) for split in self)

    def layer_phase_array(self, layer: int, width: int) -> np.ndarray:
        """Decided phases of one layer as an integer array (0 = undecided)."""
        phases = np.zeros(width, dtype=int)
        for unit, phase in self.layer_phases(layer, width).items():
            phases[unit] = phase
        return phases

    def satisfied_by(self, pre_activations: Iterable, tolerance: float = 1e-9) -> bool:
        """Whether concrete pre-activation vectors satisfy every decided phase.

        ``pre_activations`` is the per-layer list produced by
        :meth:`repro.nn.network.LoweredNetwork.pre_activations`.
        """
        pre_activations = list(pre_activations)
        for (layer, unit), phase in self._phases.items():
            if layer >= len(pre_activations) or unit >= len(pre_activations[layer]):
                return False
            value = float(pre_activations[layer][unit])
            if phase == ACTIVE and value < -tolerance:
                return False
            if phase == INACTIVE and value > tolerance:
                return False
        return True


def split_delta(parent: Optional["SplitAssignment"],
                child: "SplitAssignment") -> Optional[ReluSplit]:
    """The single split by which ``child`` extends ``parent``, or ``None``.

    This is the relationship the incremental bound path exploits: a BaB
    phase-split child shares *all* of its parent's constraints and adds
    exactly one.  Returns ``None`` when ``parent`` is ``None``, when the
    child is not a one-split extension, or when any shared neuron disagrees
    on its phase — callers then fall back to the non-incremental path.
    """
    if parent is None or len(child) != len(parent) + 1:
        return None
    derived = child._derived_from
    if derived is not None and derived[0]() is parent:
        return derived[1]
    added: Optional[ReluSplit] = None
    for neuron, phase in child._phases.items():
        existing = parent._phases.get(neuron)
        if existing is None:
            if added is not None:
                return None
            added = ReluSplit(neuron[0], neuron[1], phase)
        elif existing != phase:
            return None
    return added


def insert_into_canonical(canonical: Tuple[Tuple[int, int, int], ...],
                          split: ReluSplit) -> Tuple[Tuple[int, int, int], ...]:
    """Insert one split's triple into a canonical key, keeping it sorted.

    ``insert_into_canonical(parent.canonical_key(), delta)`` equals
    ``child.canonical_key()`` when ``child = parent + delta`` — which lets
    the incremental path derive a child's cache keys from the parent's in
    one O(depth) pass instead of re-sorting the whole assignment.
    """
    triple = (split.layer, split.unit, split.phase)
    neuron = (split.layer, split.unit)
    for position, (layer, unit, _) in enumerate(canonical):
        if (layer, unit) > neuron:
            return canonical[:position] + (triple,) + canonical[position:]
    return canonical + (triple,)


def prefix_counts(canonical: Tuple[Tuple[int, int, int], ...],
                  num_layers: int) -> Tuple[int, ...]:
    """Per-layer split counts such that ``canonical[:counts[l]]`` equals
    ``prefix_key(l)``.

    A canonical key is sorted by ``(layer, unit)``, so the splits at layers
    ``<= l`` are literally a leading slice of it; this computes every
    slice boundary in one linear pass, replacing ``num_layers`` sort-based
    ``prefix_key`` calls per sub-problem on the batched hot path.
    """
    counts = []
    position = 0
    total = len(canonical)
    for layer in range(num_layers):
        while position < total and canonical[position][0] <= layer:
            position += 1
        counts.append(position)
    return tuple(counts)


def decided_phases(canonical_keys: Sequence[Tuple[Tuple[int, int, int], ...]],
                   counts: Sequence[Tuple[int, ...]], rows: Sequence[int],
                   layer: int, width: int) -> Optional[np.ndarray]:
    """Decided phases of ``rows`` at one layer, or ``None`` if none is decided.

    ``counts[row]`` is :func:`prefix_counts` of ``canonical_keys[row]``, so
    the row's decisions at ``layer`` are the key's slice between
    consecutive counts.  Returns a ``(len(rows), width)`` integer array
    (0 = undecided); units beyond ``width`` are ignored, as in
    :meth:`SplitAssignment.layer_phases`.
    """
    phases = None
    for position, row in enumerate(rows):
        row_counts = counts[row]
        start = row_counts[layer - 1] if layer else 0
        for _, unit, phase in canonical_keys[row][start:row_counts[layer]]:
            if unit < width:
                if phases is None:
                    phases = np.zeros((len(rows), width), dtype=int)
                phases[position, unit] = phase
    return phases


def clip_bounds_with_phases(lower: np.ndarray, upper: np.ndarray,
                            phases: Optional[np.ndarray]
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched split clipping plus per-row inconsistency handling.

    Intersects ``(B, width)`` pre-activation bounds with the decided phases
    (ACTIVE entries clip the lower bound to 0, INACTIVE entries the upper;
    ``phases=None`` decides nothing), flags each batch row whose bounds are
    empty (beyond the ``1e-12`` slack of
    :meth:`~repro.bounds.linear_form.ScalarBounds.is_consistent`), and
    re-sorts only those rows so downstream relaxations stay well formed.
    The emptiness test runs whether or not anything was clipped, and a NaN
    bound (an overflowed analysis) never reads as empty.  Returns
    ``(lower, upper, inconsistent_rows)``; without phases the inputs
    themselves are returned, re-sorted in place where inconsistent.
    """
    if phases is not None:
        lower = np.where(phases == ACTIVE, np.maximum(lower, 0.0), lower)
        upper = np.where(phases == INACTIVE, np.minimum(upper, 0.0), upper)
    empty = lower > upper + 1e-12
    if not empty.any():
        return lower, upper, np.zeros(len(lower), dtype=bool)
    inconsistent = empty.any(axis=1)
    swapped_lower = np.minimum(lower[inconsistent], upper[inconsistent])
    swapped_upper = np.maximum(lower[inconsistent], upper[inconsistent])
    lower[inconsistent] = swapped_lower
    upper[inconsistent] = swapped_upper
    return lower, upper, inconsistent
