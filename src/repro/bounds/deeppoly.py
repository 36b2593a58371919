"""DeepPoly / CROWN backward bound propagation with ReLU split constraints.

This is the library's main approximated verifier (the ``AppVer`` of the
paper).  For every hidden layer it derives sound lower/upper bounds on the
pre-activations by substituting linear ReLU relaxations backwards down to
the input box, then bounds the output specification the same way.  The
minimum specification-row lower bound is the paper's ``p̂``; the box corner
minimising that row's input-level linear form is the candidate
counterexample ``x̂``.

Split constraints (``r+`` / ``r-`` decisions of a BaB sub-problem) tighten
the analysis in two ways:

* the decided neuron's relaxation becomes exact (identity or zero);
* its pre-activation bounds are intersected with ``[0, ∞)`` / ``(-∞, 0]``.

If an intersection becomes empty the sub-problem region is empty and the
report is flagged ``infeasible`` (vacuously verified).

**One kernel, any batch size.**  :meth:`DeepPolyAnalyzer.analyze_batch`
bounds ``B`` sub-problems of the same box in one pass, carrying a leading
batch axis through the backward substitution: stacked relaxation
slopes/intercepts, one GEMM per weight substitution against the shared
weights, and vectorised concretisation over the shared input box.
:meth:`DeepPolyAnalyzer.analyze` is that kernel at ``B = 1``.  There is no
per-size path; the fixed cost of a pass is kept small for every ``B``
instead: a form that no relaxation has touched yet is one row shared by
the whole batch (a leading axis of one that broadcasts), a layer in which
no sub-problem decides a neuron skips the split clip, and a layer that
every row computes afresh is used in place instead of gathered and
scattered.

**Live-column substitution.**  Once a layer's stacked relaxation is built,
the kernel keeps only its *live* columns: neurons whose lower slope, upper
slope or upper intercept is non-zero in at least one row of the batch.
A stably inactive neuron (or one every row splits ``r-``) is zero in every
row of every substituted form, so dropping it changes no bound; on the
trained conv families roughly half of a layer's columns are dead.  The layer
stores its relaxation and its weights already compressed,
``W̃ₖ = Wₖ[liveₖ][:, liveₖ₋₁]`` and ``b̃ₖ = bₖ[liveₖ]`` (``W̃ₖ`` is a row
gather of the start matrix ``Wₖ[:, liveₖ₋₁]`` that bounded the layer), and
every later back-substitution runs in live coordinates with no gather per
step.  Only the summation order of the GEMMs moves.  When every column is
live the arrays are used as they are.  Each substituted form is
concretised straight after its substitution, while it is still in cache,
as ``A @ center ∓ |A| @ radius`` with the box's centre and radius computed
once per call.

The kernel accepts a :class:`~repro.bounds.cache.BoundCache` that memoises
per-layer results keyed by the split-assignment *prefix* relevant to that
layer, so a child sub-problem only recomputes layers at-or-below its newly
decided neuron.

**Incremental parent-pass reuse.**  When the caller additionally supplies
the *parent* assignment of a sub-problem (``parent=`` / ``parents=``) and
the child extends the parent by exactly one split at layer ``l*``, the
analysis reuses the parent's memoised pass further: the child's layer-``l*``
state is derived from the parent's :class:`~repro.bounds.cache.SubstitutionEntry`
by a **rank-1 correction** — clip the decided neuron's pre-activation
bounds with its phase and swap that single relaxation row to the exact
identity/zero form — instead of re-substituting the whole layer through
every layer below.  The correction reproduces the full recomputation
bit-for-bit (clipping is per-neuron independent and the relaxation rebuild
is element-wise on identical inputs): when parent and child are each
bounded alone (``B = 1``), incremental results are *numerically
identical* to a from-scratch analysis; in larger batches they are
identical up to the sub-1e-9 GEMM-reassociation noise that separates
rows of different batches (their size and, through the live columns,
their other rows).  Layers above ``l*`` genuinely change
(the tightened relaxation propagates) and are recomputed exactly as the
non-incremental path would — which is what keeps verdicts, node charges
and counterexamples identical whether the incremental path is on or off
(see ``docs/BATCHING.md``).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bounds.cache import BoundCache, SubstitutionEntry
from repro.bounds.linear_form import (
    ScalarBounds,
    concretize_center_radius,
    minimizing_corner_batch,
)
from repro.bounds.report import BoundReport
from repro.bounds.splits import (
    ACTIVE,
    INACTIVE,
    ReluSplit,
    SplitAssignment,
    clip_bounds_with_phases,
    decided_phases,
    insert_into_canonical,
    prefix_counts,
    split_delta,
)
from repro.nn.network import LoweredNetwork
from repro.specs.properties import InputBox, LinearOutputSpec
from repro.utils.timing import PhaseTimings
from repro.utils.validation import require

#: One hidden layer's backward-substitution step in its live coordinates:
#: the stacked lower slopes ``(B, 1, n)``, upper slopes ``(B, 1, n)`` and
#: upper intercepts ``(B, n, 1)`` of the relaxation's ``n`` live columns,
#: then the weight ``(n, n_below)`` and bias ``(n,)`` rows that substitute
#: them, already restricted to the live columns of the layer below.
Step = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _measure(timings: Optional[PhaseTimings], phase: str):
    """A ``timings.measure(phase)`` context, or a no-op without timings."""
    return timings.measure(phase) if timings is not None else nullcontext()


def default_lower_slope(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """DeepPoly's area-minimising choice of the unstable lower slope."""
    return (upper > -lower).astype(float)


def _relaxation_arrays(lower: np.ndarray, upper: np.ndarray,
                       phases: Optional[np.ndarray],
                       unstable_lower_slope: Optional[np.ndarray]) -> np.ndarray:
    """Vectorised triangle relaxation of ``(B, width)`` bounds.

    A neuron is exact-identity when split ACTIVE or provably non-negative,
    exact-zero when split INACTIVE or provably non-positive, and otherwise
    gets the triangle upper relaxation with the supplied (or default) lower
    slope.  ``phases`` is ``None`` when no neuron of the layer is decided.
    Returns the lower slopes, upper slopes and upper intercepts stacked
    into one ``(3, B, width)`` array.
    """
    active = lower >= 0.0
    inactive = upper <= 0.0
    if phases is not None:
        active |= phases == ACTIVE
        inactive |= phases == INACTIVE
    inactive &= ~active
    unstable = ~(active | inactive)
    if unstable_lower_slope is None:
        unstable_lower_slope = default_lower_slope(lower, upper)
    denominator = np.where(unstable, upper - lower, 1.0)
    slope = np.where(unstable, upper / denominator, 0.0)
    relaxation = np.empty((3,) + lower.shape)
    relaxation[0] = np.where(active, 1.0, np.where(unstable, unstable_lower_slope, 0.0))
    relaxation[1] = np.where(active, 1.0, slope)
    relaxation[2] = np.where(unstable, -slope * lower, 0.0)
    return relaxation


def _live_step(relaxation: np.ndarray, weight: np.ndarray,
               bias: np.ndarray) -> Tuple[Step, Optional[np.ndarray]]:
    """One layer's substitution step restricted to its live columns.

    ``relaxation`` is the layer's stacked ``(3, B, width)`` relaxation and
    ``weight`` its ``(width, n_below)`` weight, already restricted to the
    live columns of the layer below.  A column is dead when its lower
    slope, upper slope and upper intercept are exactly zero in every row:
    it contributes nothing to any substituted form, so dropping it changes
    no bound.  (α-CROWN may give an unstable neuron a zero lower slope; its
    upper slope keeps the column live, and so does a NaN.)  Returns the
    step and the live column indices, or ``None`` when every column is
    live, in which case the arrays are used as they are.
    """
    live = relaxation.any(axis=(0, 1)).nonzero()[0]
    if len(live) == relaxation.shape[2]:
        live = None
    else:
        relaxation = relaxation.take(live, axis=2)
        weight = weight.take(live, axis=0)
        bias = bias.take(live)
    lower_slopes, upper_slopes, upper_intercepts = relaxation
    return (lower_slopes[:, None, :], upper_slopes[:, None, :],
            upper_intercepts[:, :, None], weight, bias), live


class DeepPolyAnalyzer:
    """Backward-substitution bound analyser for a lowered network."""

    def __init__(self, network: LoweredNetwork) -> None:
        self.network = network
        self._top: Tuple = (None, None, None)

    def _top_rows(self, spec: Optional[LinearOutputSpec]
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """Coefficients ``(1, rows, width)`` and constants ``(1, rows)`` of the
        last affine layer's outputs followed by the spec rows through it.

        The output bounds and the spec rows share every relaxation, so one
        fused backward pass bounds both.  The rows of the last spec seen are
        kept, since an analyser bounds one spec many times.
        """
        top = self._top
        if top[0] is not spec or top[1] is None:
            weight = self.network.weights[-1]
            bias = self.network.biases[-1]
            if spec is not None:
                weight = np.concatenate([weight, spec.coefficients @ weight])
                bias = np.concatenate([bias, spec.coefficients @ bias + spec.offsets])
            top = self._top = (spec, weight[None], bias[None])
        return top[1], top[2]

    # -- backward substitution ------------------------------------------------
    @staticmethod
    def _back_substitute(coefficients: np.ndarray, constants: np.ndarray,
                         steps: Sequence[Step],
                         minimize: bool) -> Tuple[np.ndarray, np.ndarray]:
        """Rewrite ``A @ h + c`` as linear forms over the input.

        ``h`` is the live part of the output of the hidden layer that
        ``steps[-1]`` relaxes (the input when ``steps`` is empty), so
        ``coefficients`` has shape ``(1 or B, rows, n)`` over that layer's
        live columns and ``constants`` ``(1 or B, rows)``; a leading axis of
        one is shared by every batch row and broadcasts against the
        relaxation arrays.  Each step relaxes the live ReLU columns and
        substitutes ``z = W̃ h_below + b̃`` with the weight and bias rows of
        those columns, whose own columns are the live ones of the layer
        below, so the whole rewrite runs in live coordinates with no
        gather: a dead column is zero in every row of every form, and the
        rewrite is the full-width one up to summation order.
        When ``minimize`` is True the rewriting under-approximates the
        expression (suitable for lower bounds); otherwise it
        over-approximates.
        """
        A = coefficients
        c = constants
        for lower_slope, upper_slope, upper_intercept, weight, bias in reversed(steps):
            positive = np.maximum(A, 0.0)
            negative = np.minimum(A, 0.0)
            if minimize:
                # h >= lower_slope * z and h <= upper_slope * z + upper_intercept
                A = positive * lower_slope + negative * upper_slope
                c = c + np.matmul(negative, upper_intercept)[..., 0]
            else:
                A = positive * upper_slope + negative * lower_slope
                c = c + np.matmul(positive, upper_intercept)[..., 0]
            # Flattening the batch axis into the rows runs the whole batch
            # through one GEMM instead of a C-level loop of per-element
            # matmuls.
            batch, rows, width = A.shape
            flat = A.reshape(batch * rows, width)
            c = c + (flat @ bias).reshape(batch, rows)
            A = (flat @ weight).reshape(batch, rows, weight.shape[1])
        return A, c

    def _bound_rows(self, coefficients: np.ndarray, constants: np.ndarray,
                    steps: Sequence[Step], center: np.ndarray, radius: np.ndarray,
                    batch: int, timings: Optional[PhaseTimings] = None
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(batch, rows)`` bounds of ``A @ h + c`` over the box.

        ``center`` and ``radius`` describe the input box.  Each form is
        concretised straight after its own substitution, while it is still
        in cache.  Also returns the coefficients of the input-level lower
        forms: the minimising corner of a spec row's form is the
        counterexample candidate.
        """
        with _measure(timings, "substitute"):
            lower_A, lower_c = self._back_substitute(
                coefficients, constants, steps, minimize=True)
        with _measure(timings, "concretize"):
            lower = concretize_center_radius(lower_A, lower_c, center, radius, -1.0)
        with _measure(timings, "substitute"):
            upper_A, upper_c = self._back_substitute(
                coefficients, constants, steps, minimize=False)
        with _measure(timings, "concretize"):
            upper = concretize_center_radius(upper_A, upper_c, center, radius, 1.0)
        if lower.shape[0] != batch:
            # No relaxation was substituted, so every row shares one form.
            lower = np.repeat(lower, batch, axis=0)
            upper = np.repeat(upper, batch, axis=0)
            lower_A = np.broadcast_to(lower_A, (batch,) + lower_A.shape[1:])
        return lower, upper, lower_A

    # -- incremental rank-1 split correction -----------------------------------
    @staticmethod
    def _scalar_relaxation(lower: float, upper: float,
                           phase: int) -> Tuple[float, float, float]:
        """The triangle relaxation of one neuron — the rank-1 payload.

        Scalar mirror of :func:`_relaxation_arrays` for a single element
        (identical operations in identical order, so the result is
        bit-identical to the vectorised rebuild).
        """
        active = (phase == ACTIVE) or (lower >= 0.0)
        inactive = (not active) and ((phase == INACTIVE) or (upper <= 0.0))
        if active:
            return 1.0, 1.0, 0.0
        if inactive:
            return 0.0, 0.0, 0.0
        unstable_lower_slope = 1.0 if upper > -lower else 0.0
        slope = upper / (upper - lower)
        return unstable_lower_slope, slope, (-slope) * lower

    @classmethod
    def _correct_neuron(cls, low, high, phase: int):
        """Clip one neuron by its decided phase and re-derive its relaxation.

        Applies the same ``1e-12`` consistency slack and swap as
        :func:`~repro.bounds.splits.clip_bounds_with_phases`.  Only the
        clipped neuron can break consistency — the parent's row was
        consistent and the other entries are untouched.  Returns
        ``(low, high, infeasible, lower_slope, upper_slope, intercept)``.
        """
        if phase == ACTIVE:
            low = max(low, 0.0)
        else:
            high = min(high, 0.0)
        # A NaN bound is not evidence of an empty region.
        infeasible = bool(low > high + 1e-12)
        if infeasible:
            low, high = min(low, high), max(low, high)
        return (low, high, infeasible) + cls._scalar_relaxation(low, high, phase)

    def _apply_rank1_corrections(self, corrected, layer: int, deltas, cache, keys,
                                 lower, upper, ls, us, ui,
                                 layer_infeasible) -> None:
        """Rank-1 split corrections for one layer's stacked rows.

        The child extends the parent by the single decision ``delta`` at
        this layer, so its pre-activation bounds are the parent's post-clip
        bounds additionally clipped at the decided neuron, and only that
        neuron's relaxation column changes.  ``corrected`` pairs
        stacked-row indices with their parents' substitution entries; each
        child inherits the parent's bounds and relaxation rows wholesale
        and only the decided neuron's column is rewritten through
        :meth:`_correct_neuron`.  Every untouched column's relaxation
        inputs are identical to the parent's, so inheriting its stored
        values *is* the full elementwise rebuild, bit for bit — at the cost
        of one scalar clip instead of a whole-layer substitution.
        """
        for row, entry in corrected:
            delta = deltas[row]
            unit = delta.unit
            lower[row] = entry.lower
            upper[row] = entry.upper
            ls[row] = entry.lower_slope
            us[row] = entry.upper_slope
            ui[row] = entry.upper_intercept
            (lower[row, unit], upper[row, unit], row_infeasible,
             ls[row, unit], us[row, unit], ui[row, unit]) = \
                self._correct_neuron(lower[row, unit], upper[row, unit],
                                     delta.phase)
            layer_infeasible[row] = row_infeasible
            # The stacked rows are written exactly once per layer, so views
            # of them are safe to memoise.
            cache.put_layer(layer, keys[row], SubstitutionEntry(
                lower[row], upper[row], ls[row], us[row], ui[row],
                row_infeasible))
        cache.record_delta_corrections(len(corrected))

    @staticmethod
    def _usable_delta(parent: Optional[SplitAssignment], splits: SplitAssignment,
                      num_relu_layers: int) -> Optional[ReluSplit]:
        """The one-split extension of ``parent``, when usable for reuse."""
        delta = split_delta(parent, splits)
        if delta is not None and delta.layer < num_relu_layers:
            return delta
        return None

    # -- public API -------------------------------------------------------------
    def analyze(self, box: InputBox, splits: Optional[SplitAssignment] = None,
                spec: Optional[LinearOutputSpec] = None,
                lower_slopes: Optional[Sequence[np.ndarray]] = None,
                cache: Optional[BoundCache] = None,
                parent: Optional[SplitAssignment] = None,
                timings: Optional[PhaseTimings] = None) -> BoundReport:
        """Analyse one sub-problem: :meth:`analyze_batch` at ``B = 1``.

        ``lower_slopes`` holds one ``(width,)`` array per hidden layer and
        ``parent`` is the sub-problem's BaB parent; every other parameter
        is as in :meth:`analyze_batch`.
        """
        if lower_slopes is not None:
            lower_slopes = [np.asarray(slopes, dtype=float)[None]
                            for slopes in lower_slopes]
        return self.analyze_batch(box, [splits], spec=spec, cache=cache,
                                  lower_slopes=lower_slopes, parents=[parent],
                                  timings=timings)[0]

    def analyze_batch(self, box: InputBox,
                      splits_list: Sequence[Optional[SplitAssignment]],
                      spec: Optional[LinearOutputSpec] = None,
                      cache: Optional[BoundCache] = None,
                      lower_slopes: Optional[Sequence[np.ndarray]] = None,
                      parents: Optional[Sequence[Optional[SplitAssignment]]] = None,
                      timings: Optional[PhaseTimings] = None
                      ) -> List[BoundReport]:
        """Analyse ``B`` sub-problems of the same box in one batched pass.

        Parameters
        ----------
        splits_list:
            The sub-problems' split assignments (``None`` means none).
        spec:
            Optional output specification; with it every report carries the
            spec-row lower bounds, ``p̂`` and the counterexample candidate.
        cache:
            Optional split-aware bound cache: sub-problems whose layer
            prefixes (or whole assignment) were seen before skip straight
            past the memoised layers.  Only consulted with the default
            slopes; the cache must be dedicated to this network, box and
            spec.
        lower_slopes:
            Optional per-hidden-layer ``(B, width)`` arrays of unstable
            lower-relaxation slopes in ``[0, 1]``, row ``b`` applying to
            ``splits_list[b]`` (used by the α-CROWN optimiser); ``None``
            selects DeepPoly's default slope heuristic.  Supplying slopes
            bypasses the cache.
        parents:
            Optional BaB parent of each sub-problem (index-aligned with
            ``splits_list``, ``None`` entries allowed).  With a cache, a
            sub-problem extending its parent by exactly one split resolves
            its split layer through the rank-1 correction against the
            parent's cached substitution entry instead of a fresh backward
            substitution; results are identical either way.
        timings:
            Optional :class:`~repro.utils.timing.PhaseTimings` receiving the
            ``substitute`` / ``correct`` / ``concretize`` breakdown.
        """
        network = self.network
        require(box.dimension == network.input_dim,
                "input box dimension does not match the network")
        splits_list = [s or SplitAssignment.empty() for s in splits_list]
        batch_size = len(splits_list)
        if batch_size == 0:
            return []
        num_layers = network.num_relu_layers
        if lower_slopes is not None:
            require(len(lower_slopes) == num_layers,
                    "lower_slopes must provide one array per hidden layer")
        if parents is not None:
            require(len(parents) == batch_size,
                    "parents must be index-aligned with splits_list")
        if spec is not None:
            require(spec.output_dim == network.output_dim,
                    "specification output dimension does not match the network")
        use_cache = cache is not None and lower_slopes is None
        incremental = use_cache and parents is not None
        with_spec = spec is not None

        # Canonical keys: in incremental mode a one-split child's key is
        # derived from its parent's by a sorted insertion (the parent's key
        # is sorted once per call, not once per child).
        keys: List[Tuple] = []
        deltas: List[Optional[ReluSplit]] = []
        parent_keys = {}
        for index, splits in enumerate(splits_list):
            delta = (self._usable_delta(parents[index], splits, num_layers)
                     if incremental else None)
            if delta is None:
                keys.append(splits.canonical_key())
            else:
                parent = parents[index]
                parent_key = parent_keys.get(id(parent))
                if parent_key is None:
                    parent_key = parent_keys[id(parent)] = parent.canonical_key()
                keys.append(insert_into_canonical(parent_key, delta))
            deltas.append(delta)

        reports: List[Optional[BoundReport]] = [None] * batch_size
        if use_cache:
            for index, key in enumerate(keys):
                cached = cache.get_report(key, with_spec)
                if cached is not None:
                    reports[index] = cached.shallow_copy()
        pending = [index for index, report in enumerate(reports) if report is None]
        if not pending:
            return reports
        count = len(pending)
        sub_keys = [keys[index] for index in pending]
        sub_deltas = [deltas[index] for index in pending]
        # A canonical key is sorted by layer, so a row's prefix key at layer
        # ``l`` is ``key[:counts[l]]`` and its decisions at ``l`` are the
        # slice between consecutive counts.
        sub_counts = [prefix_counts(key, num_layers) for key in sub_keys]
        parent_prefixes = {}

        def _parent_prefix(row: int, layer: int) -> Tuple:
            """The parent's prefix key at one layer, memoised per call
            (both phase-split siblings probe the same parent entry)."""
            parent = parents[pending[row]]
            prefix = parent_prefixes.get((id(parent), layer))
            if prefix is None:
                prefix = parent_prefixes[(id(parent), layer)] = parent.prefix_key(layer)
            return prefix

        # Per layer, the stacked (count, width) post-clip bounds of every
        # pending sub-problem, and its relaxation as a substitution step in
        # the batch's live columns (see :func:`_live_step`).
        steps: List[Step] = []
        lower_layers: List[np.ndarray] = []
        upper_layers: List[np.ndarray] = []
        infeasible = np.zeros(count, dtype=bool)
        center = box.center
        radius = box.radius
        live = None

        for layer in range(num_layers):
            weight = network.weights[layer]
            if live is not None:
                weight = weight.take(live, axis=1)
            width = weight.shape[0]
            prefixes = None
            miss: Sequence[int] = range(count)
            if use_cache:
                prefixes = [key[:counts[layer]]
                            for key, counts in zip(sub_keys, sub_counts)]
                hits: List[Tuple[int, SubstitutionEntry]] = []
                corrected: List[Tuple[int, SubstitutionEntry]] = []
                miss = []
                for row in range(count):
                    entry = cache.get_layer(layer, prefixes[row])
                    if entry is not None:
                        hits.append((row, entry))
                        continue
                    delta = sub_deltas[row]
                    if delta is not None and delta.layer == layer:
                        parent_entry = cache.peek_layer(layer, _parent_prefix(row, layer))
                        if parent_entry is not None and not parent_entry.infeasible:
                            corrected.append((row, parent_entry))
                            continue
                    miss.append(row)
                if len(miss) < count:
                    lower = np.empty((count, width))
                    upper = np.empty((count, width))
                    relaxation = np.empty((3, count, width))
                    ls, us, ui = relaxation
                    layer_infeasible = np.zeros(count, dtype=bool)
                    for row, entry in hits:
                        lower[row] = entry.lower
                        upper[row] = entry.upper
                        ls[row] = entry.lower_slope
                        us[row] = entry.upper_slope
                        ui[row] = entry.upper_intercept
                        layer_infeasible[row] = entry.infeasible
                    if corrected:
                        with _measure(timings, "correct"):
                            self._apply_rank1_corrections(
                                corrected, layer, sub_deltas, cache, prefixes,
                                lower, upper, ls, us, ui, layer_infeasible)

            if miss:
                every_row = len(miss) == count
                miss_index = None if every_row else np.asarray(miss, dtype=int)
                below = steps if every_row else [
                    (step[0][miss_index], step[1][miss_index], step[2][miss_index])
                    + step[3:] for step in steps]
                miss_lower, miss_upper, _ = self._bound_rows(
                    weight[None], network.biases[layer][None], below,
                    center, radius, len(miss), timings=timings)
                phases = decided_phases(sub_keys, sub_counts, miss, layer, width)
                miss_lower, miss_upper, inconsistent = clip_bounds_with_phases(
                    miss_lower, miss_upper, phases)
                miss_slopes = None
                if lower_slopes is not None:
                    # Slopes bypass the cache, so every row is a miss.
                    miss_slopes = np.clip(
                        np.asarray(lower_slopes[layer], dtype=float), 0.0, 1.0)
                    require(miss_slopes.shape == (batch_size, width),
                            f"lower_slopes for layer {layer} must have shape "
                            f"{(batch_size, width)}")
                miss_relaxation = _relaxation_arrays(
                    miss_lower, miss_upper, phases, miss_slopes)
                if every_row:
                    lower, upper, relaxation, layer_infeasible = (
                        miss_lower, miss_upper, miss_relaxation, inconsistent)
                else:
                    lower[miss_index] = miss_lower
                    upper[miss_index] = miss_upper
                    relaxation[:, miss_index] = miss_relaxation
                    layer_infeasible[miss_index] = inconsistent
                if use_cache:
                    miss_ls, miss_us, miss_ui = miss_relaxation
                    for position, row in enumerate(miss):
                        cache.put_layer(layer, prefixes[row], SubstitutionEntry(
                            miss_lower[position].copy(), miss_upper[position].copy(),
                            miss_ls[position].copy(), miss_us[position].copy(),
                            miss_ui[position].copy(), bool(inconsistent[position])))

            infeasible |= layer_infeasible
            lower_layers.append(lower)
            upper_layers.append(upper)
            step, live = _live_step(relaxation, weight, network.biases[layer])
            steps.append(step)

        num_outputs = network.output_dim
        top_coefficients, top_constants = self._top_rows(spec)
        if live is not None:
            top_coefficients = top_coefficients.take(live, axis=2)
        top_lower, top_upper, top_lower_A = self._bound_rows(
            top_coefficients, top_constants, steps, center, radius,
            count, timings=timings)
        if with_spec:
            spec_lower = top_lower[:, num_outputs:]
            worst_rows = spec_lower.argmin(axis=1)
            candidates = minimizing_corner_batch(
                top_lower_A[np.arange(count), num_outputs + worst_rows], box)

        for position, index in enumerate(pending):
            spec_row_lower = None
            p_hat = None
            candidate = None
            if with_spec:
                spec_row_lower = spec_lower[position]
                candidate = candidates[position]
                p_hat = (float("inf") if infeasible[position]
                         else float(spec_row_lower[worst_rows[position]]))
            report = BoundReport(
                pre_activation_bounds=[ScalarBounds.wrap(low[position], high[position])
                                       for low, high in zip(lower_layers, upper_layers)],
                output_bounds=ScalarBounds.wrap(top_lower[position, :num_outputs],
                                                top_upper[position, :num_outputs]),
                spec_row_lower=spec_row_lower,
                p_hat=p_hat,
                candidate_input=candidate,
                infeasible=bool(infeasible[position]),
                method="deeppoly")
            # Report entries are stored for every child, including those
            # resolved through the parent delta: within one run the
            # substitution entries subsume report reuse (a frontier never
            # re-bounds a child it already expanded), but a *shared* cache
            # outlives the run — the verification service replays identical
            # jobs against it, and their children are report hits only if
            # the first run stored them.
            if use_cache:
                cache.put_report(sub_keys[position], with_spec, report.shallow_copy())
            reports[index] = report
        return reports


def deeppoly_bounds(network: LoweredNetwork, box: InputBox,
                    splits: Optional[SplitAssignment] = None,
                    spec: Optional[LinearOutputSpec] = None,
                    lower_slopes: Optional[Sequence[np.ndarray]] = None) -> BoundReport:
    """Convenience wrapper around :meth:`DeepPolyAnalyzer.analyze`."""
    return DeepPolyAnalyzer(network).analyze(box, splits=splits, spec=spec,
                                             lower_slopes=lower_slopes)


def deeppoly_bounds_batch(network: LoweredNetwork, box: InputBox,
                          splits_list: Sequence[Optional[SplitAssignment]],
                          spec: Optional[LinearOutputSpec] = None,
                          cache: Optional[BoundCache] = None) -> List[BoundReport]:
    """Convenience wrapper around :meth:`DeepPolyAnalyzer.analyze_batch`."""
    return DeepPolyAnalyzer(network).analyze_batch(box, splits_list, spec=spec,
                                                   cache=cache)
