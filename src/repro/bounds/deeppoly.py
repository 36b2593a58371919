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

Two execution modes are provided:

* :meth:`DeepPolyAnalyzer.analyze` — one sub-problem at a time;
* :meth:`DeepPolyAnalyzer.analyze_batch` — ``B`` sub-problems in one pass,
  carrying a leading batch axis through the backward substitution (stacked
  relaxation slopes/intercepts, batched matmuls against the shared weights,
  vectorised concretisation over the shared input box).

Both modes accept a :class:`~repro.bounds.cache.BoundCache` that memoises
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
is element-wise on identical inputs), so in the sequential mode incremental
results are *numerically identical* to a from-scratch analysis; in the
batched mode they are identical up to the same sub-1e-9 GEMM-reassociation
noise that already separates ``analyze_batch`` from ``analyze``.  Layers
above ``l*`` genuinely change (the tightened relaxation propagates) and are
recomputed exactly as the non-incremental path would — which is what keeps
verdicts, node charges and counterexamples identical whether the
incremental path is on or off (see ``docs/BATCHING.md``).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bounds.cache import BoundCache, SubstitutionEntry
from repro.bounds.linear_form import (
    AffineForms,
    BatchedAffineForms,
    ScalarBounds,
    concretize_lower,
    concretize_lower_batch,
    concretize_upper,
    concretize_upper_batch,
)
from repro.bounds.report import BoundReport
from repro.bounds.splits import (
    ACTIVE,
    INACTIVE,
    ReluSplit,
    SplitAssignment,
    clip_bounds_with_phases,
    insert_into_canonical,
    prefix_counts,
    split_delta,
    stacked_phase_array,
)
from repro.nn.network import LoweredNetwork
from repro.specs.properties import InputBox, LinearOutputSpec
from repro.utils.timing import PhaseTimings
from repro.utils.validation import require


def _measure(timings: Optional[PhaseTimings], phase: str):
    """A ``timings.measure(phase)`` context, or a no-op without timings."""
    return timings.measure(phase) if timings is not None else nullcontext()


@dataclass
class _ReluRelaxation:
    """Per-neuron linear relaxation of one hidden ReLU layer.

    ``lower_slope * z <= ReLU(z) <= upper_slope * z + upper_intercept``
    holds for every ``z`` within the layer's (split-clipped) bounds.
    """

    lower_slope: np.ndarray
    upper_slope: np.ndarray
    upper_intercept: np.ndarray


def default_lower_slope(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """DeepPoly's area-minimising choice of the unstable lower slope."""
    return (upper > -lower).astype(float)


def _relaxation_arrays(lower: np.ndarray, upper: np.ndarray, phases: np.ndarray,
                       unstable_lower_slope: Optional[np.ndarray]
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised triangle relaxation; works on 1-D and batched 2-D arrays.

    A neuron is exact-identity when split ACTIVE or provably non-negative,
    exact-zero when split INACTIVE or provably non-positive, and otherwise
    gets the triangle upper relaxation with the supplied (or default) lower
    slope.
    """
    active = (phases == ACTIVE) | (lower >= 0.0)
    inactive = ~active & ((phases == INACTIVE) | (upper <= 0.0))
    unstable = ~active & ~inactive
    if unstable_lower_slope is None:
        unstable_lower_slope = default_lower_slope(lower, upper)
    denominator = np.where(unstable, upper - lower, 1.0)
    slope = np.where(unstable, upper / denominator, 0.0)
    lower_slope = np.where(active, 1.0,
                           np.where(unstable, unstable_lower_slope, 0.0))
    upper_slope = np.where(active, 1.0, slope)
    upper_intercept = np.where(unstable, -slope * lower, 0.0)
    return lower_slope, upper_slope, upper_intercept


def _build_relaxation(bounds: ScalarBounds, layer: int, splits: SplitAssignment,
                      lower_slopes: Optional[np.ndarray]) -> _ReluRelaxation:
    size = bounds.size
    if lower_slopes is None:
        unstable_lower_slope = None
    else:
        unstable_lower_slope = np.clip(np.asarray(lower_slopes, dtype=float), 0.0, 1.0)
        require(unstable_lower_slope.shape == (size,),
                f"lower_slopes for layer {layer} must have shape {(size,)}")
    phases = splits.layer_phase_array(layer, size)
    lower_slope, upper_slope, upper_intercept = _relaxation_arrays(
        bounds.lower, bounds.upper, phases, unstable_lower_slope)
    return _ReluRelaxation(lower_slope, upper_slope, upper_intercept)


def _copy_report(report: BoundReport) -> BoundReport:
    """A shallow copy safe to hand out from the cache (arrays are shared)."""
    return report.shallow_copy()


class DeepPolyAnalyzer:
    """Backward-substitution bound analyser for a lowered network."""

    def __init__(self, network: LoweredNetwork) -> None:
        self.network = network

    # -- backward substitution ------------------------------------------------
    def _substitute_to_input(self, coefficients: np.ndarray, constants: np.ndarray,
                             last_hidden: int, relaxations: Sequence[_ReluRelaxation],
                             minimize: bool) -> Tuple[np.ndarray, np.ndarray]:
        """Rewrite ``A @ h_last_hidden + c`` as a linear form over the input.

        ``last_hidden = -1`` means the expression is already over the input.
        When ``minimize`` is True the rewriting under-approximates the
        expression (suitable for lower bounds); otherwise it over-approximates.
        """
        A = np.asarray(coefficients, dtype=float)
        c = np.asarray(constants, dtype=float).copy()
        for layer in range(last_hidden, -1, -1):
            relax = relaxations[layer]
            positive = np.maximum(A, 0.0)
            negative = np.minimum(A, 0.0)
            if minimize:
                # h >= lower_slope * z and h <= upper_slope * z + upper_intercept
                new_A = positive * relax.lower_slope + negative * relax.upper_slope
                c = c + negative @ relax.upper_intercept
            else:
                new_A = positive * relax.upper_slope + negative * relax.lower_slope
                c = c + positive @ relax.upper_intercept
            A = new_A
            # Substitute z = W h_{layer-1} + b.
            weight = self.network.weights[layer]
            bias = self.network.biases[layer]
            c = c + A @ bias
            A = A @ weight
        return A, c

    def _bound_expression(self, coefficients: np.ndarray, constants: np.ndarray,
                          last_hidden: int, relaxations: Sequence[_ReluRelaxation],
                          box: InputBox, timings: Optional[PhaseTimings] = None
                          ) -> Tuple[ScalarBounds, AffineForms]:
        """Scalar bounds of ``A @ h_last_hidden + c`` over the box.

        Also returns the accumulated input-level linear forms of both
        directions; the lower form's minimising corner is the counterexample
        candidate, and the pair is what the substitution cache memoises.
        """
        with _measure(timings, "substitute"):
            lower_A, lower_c = self._substitute_to_input(
                coefficients, constants, last_hidden, relaxations, minimize=True)
            upper_A, upper_c = self._substitute_to_input(
                coefficients, constants, last_hidden, relaxations, minimize=False)
        with _measure(timings, "concretize"):
            lower = concretize_lower(lower_A, lower_c, box)
            upper = concretize_upper(upper_A, upper_c, box)
        return (ScalarBounds.wrap(lower, upper),
                AffineForms(lower_A, lower_c, upper_A, upper_c))

    # -- batched backward substitution ----------------------------------------
    def _substitute_to_input_batch(self, coefficients: np.ndarray, constants: np.ndarray,
                                   last_hidden: int,
                                   lower_slopes: Sequence[np.ndarray],
                                   upper_slopes: Sequence[np.ndarray],
                                   upper_intercepts: Sequence[np.ndarray],
                                   minimize: bool) -> Tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`_substitute_to_input`.

        ``coefficients`` has shape ``(B, rows, width)`` and ``constants``
        ``(B, rows)``; the relaxation sequences hold one ``(B, width_layer)``
        array per hidden layer up to ``last_hidden``.
        """
        A = np.asarray(coefficients, dtype=float)
        c = np.asarray(constants, dtype=float)
        batch, rows = A.shape[0], A.shape[1]
        for layer in range(last_hidden, -1, -1):
            ls = lower_slopes[layer][:, None, :]
            us = upper_slopes[layer][:, None, :]
            ui = upper_intercepts[layer]
            positive = np.maximum(A, 0.0)
            negative = np.minimum(A, 0.0)
            if minimize:
                new_A = positive * ls + negative * us
                c = c + np.matmul(negative, ui[:, :, None])[..., 0]
            else:
                new_A = positive * us + negative * ls
                c = c + np.matmul(positive, ui[:, :, None])[..., 0]
            A = new_A
            weight = self.network.weights[layer]
            bias = self.network.biases[layer]
            # Flatten the batch axis so the whole batch runs through one GEMM
            # instead of a C-level loop of per-element matmuls.
            flat = A.reshape(batch * rows, A.shape[2])
            c = c + (flat @ bias).reshape(batch, rows)
            A = (flat @ weight).reshape(batch, rows, weight.shape[1])
        return A, c

    def _bound_expression_batch(self, coefficients: np.ndarray, constants: np.ndarray,
                                last_hidden: int,
                                lower_slopes: Sequence[np.ndarray],
                                upper_slopes: Sequence[np.ndarray],
                                upper_intercepts: Sequence[np.ndarray],
                                box: InputBox,
                                timings: Optional[PhaseTimings] = None
                                ) -> Tuple[np.ndarray, np.ndarray, BatchedAffineForms]:
        """Batched :meth:`_bound_expression`; returns ``(B, rows)`` bound arrays."""
        with _measure(timings, "substitute"):
            lower_A, lower_c = self._substitute_to_input_batch(
                coefficients, constants, last_hidden,
                lower_slopes, upper_slopes, upper_intercepts, minimize=True)
            upper_A, upper_c = self._substitute_to_input_batch(
                coefficients, constants, last_hidden,
                lower_slopes, upper_slopes, upper_intercepts, minimize=False)
        with _measure(timings, "concretize"):
            lower = concretize_lower_batch(lower_A, lower_c, box)
            upper = concretize_upper_batch(upper_A, upper_c, box)
        return lower, upper, BatchedAffineForms(lower_A, lower_c, upper_A, upper_c)

    # -- incremental rank-1 split correction -----------------------------------
    def _apply_split_correction(self, entry: SubstitutionEntry, delta: ReluSplit
                                ) -> Tuple[ScalarBounds, _ReluRelaxation, bool]:
        """Derive a child's layer state from the parent's entry.

        The child extends the parent by the single decision ``delta`` at
        this layer, so its pre-activation bounds are the parent's post-clip
        bounds additionally clipped at the decided neuron, and only that
        neuron's relaxation row changes (to the exact identity/zero form).
        Per-neuron clipping is independent and every untouched column's
        relaxation inputs equal the parent's, so inheriting the parent's
        arrays and rewriting the single column reproduces the full backward
        substitution bit-for-bit — at the cost of one scalar clip instead
        of a whole-layer substitution.
        """
        unit = delta.unit
        lower = entry.lower.copy()
        upper = entry.upper.copy()
        lower_slope = entry.lower_slope.copy()
        upper_slope = entry.upper_slope.copy()
        upper_intercept = entry.upper_intercept.copy()
        (lower[unit], upper[unit], layer_infeasible, lower_slope[unit],
         upper_slope[unit], upper_intercept[unit]) = self._correct_neuron(
            lower[unit], upper[unit], delta.phase)
        return (ScalarBounds.wrap(lower, upper),
                _ReluRelaxation(lower_slope, upper_slope, upper_intercept),
                layer_infeasible)

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

        The single shared implementation behind both correction paths
        (sequential and batched), so the clip, the ``1e-12`` consistency
        slack, the swap and the relaxation rebuild can never drift apart.
        Only the clipped neuron can break consistency — the parent's row was
        consistent and the other entries are untouched.  Returns
        ``(low, high, infeasible, lower_slope, upper_slope, intercept)``.
        """
        if phase == ACTIVE:
            low = max(low, 0.0)
        else:
            high = min(high, 0.0)
        infeasible = not low <= high + 1e-12
        if infeasible:
            low, high = min(low, high), max(low, high)
        return (low, high, infeasible) + cls._scalar_relaxation(low, high, phase)

    def _apply_split_corrections_batch(self, corrected, layer: int,
                                       deltas, cache, keys,
                                       lower, upper, ls, us, ui,
                                       layer_infeasible) -> None:
        """Rank-1 split corrections for one layer's stacked rows.

        ``corrected`` pairs stacked-row indices with their parents'
        substitution entries.  Each child inherits the parent's bounds and
        relaxation rows wholesale and only the decided neuron's column is
        rewritten through :meth:`_correct_neuron`.  Every untouched column's
        relaxation inputs are identical to the parent's, so inheriting its
        stored values *is* the full elementwise rebuild, bit for bit.
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
        """Run the full analysis over ``box`` under ``splits``.

        Parameters
        ----------
        lower_slopes:
            Optional per-hidden-layer arrays of unstable lower-relaxation
            slopes in ``[0, 1]`` (used by the α-CROWN optimiser); ``None``
            selects DeepPoly's default slope heuristic.
        cache:
            Optional split-aware bound cache.  Only consulted with the
            default slopes; the cache must be dedicated to this network,
            box and spec.
        parent:
            Optional assignment of the sub-problem's BaB parent.  When
            ``splits`` extends it by exactly one neuron and the parent's
            substitution entry at that layer is cached, the split layer is
            derived by the rank-1 correction instead of re-substituted;
            results are identical either way.
        timings:
            Optional :class:`~repro.utils.timing.PhaseTimings` receiving the
            ``substitute`` / ``correct`` / ``concretize`` breakdown.
        """
        network = self.network
        require(box.dimension == network.input_dim,
                "input box dimension does not match the network")
        splits = splits or SplitAssignment.empty()
        if lower_slopes is not None:
            require(len(lower_slopes) == network.num_relu_layers,
                    "lower_slopes must provide one array per hidden layer")
        use_cache = cache is not None and lower_slopes is None
        if use_cache:
            cached = cache.get_report(splits.canonical_key(), spec is not None)
            if cached is not None:
                return _copy_report(cached)
        delta = (self._usable_delta(parent, splits, network.num_relu_layers)
                 if use_cache else None)

        relaxations: List[_ReluRelaxation] = []
        pre_activation_bounds: List[ScalarBounds] = []
        infeasible = False

        for layer in range(network.num_relu_layers):
            entry = None
            key = None
            if use_cache:
                key = splits.prefix_key(layer)
                entry = cache.get_layer(layer, key)
            if entry is not None:
                bounds = ScalarBounds.wrap(entry.lower, entry.upper)
                relaxation = _ReluRelaxation(entry.lower_slope, entry.upper_slope,
                                             entry.upper_intercept)
                layer_infeasible = entry.infeasible
            else:
                corrected = False
                if delta is not None and delta.layer == layer:
                    parent_entry = cache.peek_layer(layer, parent.prefix_key(layer))
                    if parent_entry is not None and not parent_entry.infeasible:
                        with _measure(timings, "correct"):
                            bounds, relaxation, layer_infeasible = \
                                self._apply_split_correction(parent_entry, delta)
                        cache.put_layer(layer, key, SubstitutionEntry(
                            bounds.lower, bounds.upper,
                            relaxation.lower_slope, relaxation.upper_slope,
                            relaxation.upper_intercept, layer_infeasible))
                        cache.record_delta_corrections()
                        corrected = True
                if not corrected:
                    weight = network.weights[layer]
                    bias = network.biases[layer]
                    bounds, _ = self._bound_expression(weight, bias, layer - 1,
                                                       relaxations, box,
                                                       timings=timings)
                    bounds = self._clip_with_splits(bounds, layer, splits)
                    layer_infeasible = not bounds.is_consistent()
                    if layer_infeasible:
                        bounds = ScalarBounds(np.minimum(bounds.lower, bounds.upper),
                                              np.maximum(bounds.lower, bounds.upper))
                    layer_slopes = None if lower_slopes is None else lower_slopes[layer]
                    relaxation = _build_relaxation(bounds, layer, splits, layer_slopes)
                    if use_cache:
                        cache.put_layer(layer, key, SubstitutionEntry(
                            bounds.lower.copy(), bounds.upper.copy(),
                            relaxation.lower_slope.copy(),
                            relaxation.upper_slope.copy(),
                            relaxation.upper_intercept.copy(), layer_infeasible))
            infeasible = infeasible or layer_infeasible
            pre_activation_bounds.append(bounds)
            relaxations.append(relaxation)

        last_hidden = network.num_relu_layers - 1
        output_bounds, _ = self._bound_expression(network.weights[-1], network.biases[-1],
                                                  last_hidden, relaxations, box,
                                                  timings=timings)

        spec_row_lower = None
        p_hat = None
        candidate = None
        if spec is not None:
            require(spec.output_dim == network.output_dim,
                    "specification output dimension does not match the network")
            coefficients = spec.coefficients @ network.weights[-1]
            constants = spec.coefficients @ network.biases[-1] + spec.offsets
            spec_bounds, spec_forms = self._bound_expression(coefficients, constants,
                                                             last_hidden, relaxations,
                                                             box, timings=timings)
            spec_row_lower = spec_bounds.lower
            worst_row = int(np.argmin(spec_row_lower))
            candidate = spec_forms.minimizer(box, worst_row)
            p_hat = float("inf") if infeasible else float(spec_row_lower[worst_row])

        report = BoundReport(pre_activation_bounds=pre_activation_bounds,
                             output_bounds=output_bounds,
                             spec_row_lower=spec_row_lower,
                             p_hat=p_hat,
                             candidate_input=candidate,
                             infeasible=infeasible,
                             method="deeppoly")
        if use_cache:
            cache.put_report(splits.canonical_key(), spec is not None,
                             _copy_report(report))
        return report

    def analyze_batch(self, box: InputBox,
                      splits_list: Sequence[Optional[SplitAssignment]],
                      spec: Optional[LinearOutputSpec] = None,
                      cache: Optional[BoundCache] = None,
                      lower_slopes: Optional[Sequence[np.ndarray]] = None,
                      parents: Optional[Sequence[Optional[SplitAssignment]]] = None,
                      timings: Optional[PhaseTimings] = None
                      ) -> List[BoundReport]:
        """Analyse ``B`` sub-problems of the same box in one batched pass.

        Semantically equivalent to ``[self.analyze(box, s, spec) for s in
        splits_list]`` (up to floating-point reassociation well below 1e-9 on
        the networks used here), but the backward substitution of all
        sub-problems runs through shared, stacked matmuls.  With a ``cache``,
        sub-problems whose layer prefixes (or whole assignment) were seen
        before skip straight past the memoised layers.

        ``lower_slopes`` optionally supplies one ``(B, width_layer)`` array
        per hidden layer of unstable lower-relaxation slopes in ``[0, 1]``
        (row ``b`` applies to ``splits_list[b]``) — the batched counterpart
        of :meth:`analyze`'s ``lower_slopes``, used by the batched α-CROWN
        optimiser.  As in the sequential path, supplying slopes bypasses the
        cache entirely.

        ``parents`` optionally supplies the BaB parent of each sub-problem
        (index-aligned with ``splits_list``, ``None`` entries allowed); a
        sub-problem extending its parent by one split resolves its split
        layer through the rank-1 correction against the parent's cached
        substitution entry instead of a fresh backward substitution.
        """
        network = self.network
        require(box.dimension == network.input_dim,
                "input box dimension does not match the network")
        splits_list = [s or SplitAssignment.empty() for s in splits_list]
        batch_size = len(splits_list)
        if batch_size == 0:
            return []
        if lower_slopes is not None:
            require(len(lower_slopes) == network.num_relu_layers,
                    "lower_slopes must provide one array per hidden layer")
        if parents is not None:
            require(len(parents) == batch_size,
                    "parents must be index-aligned with splits_list")
        use_cache = cache is not None and lower_slopes is None
        incremental = use_cache and parents is not None
        num_layers = network.num_relu_layers

        # Canonical keys: in incremental mode a one-split child's key is
        # derived from its parent's by a sorted insertion (the parent's key
        # is sorted once per round, not once per child per layer).
        canonical_keys: List[Tuple] = [None] * batch_size
        all_deltas: List[Optional[ReluSplit]] = [None] * batch_size
        if use_cache:
            if incremental:
                parent_canonicals = {}
                for index, splits in enumerate(splits_list):
                    delta = self._usable_delta(parents[index], splits, num_layers)
                    if delta is None:
                        canonical_keys[index] = splits.canonical_key()
                        continue
                    parent = parents[index]
                    parent_canonical = parent_canonicals.get(id(parent))
                    if parent_canonical is None:
                        parent_canonical = parent.canonical_key()
                        parent_canonicals[id(parent)] = parent_canonical
                    canonical_keys[index] = insert_into_canonical(parent_canonical,
                                                                  delta)
                    all_deltas[index] = delta
            else:
                for index, splits in enumerate(splits_list):
                    canonical_keys[index] = splits.canonical_key()

        reports: List[Optional[BoundReport]] = [None] * batch_size
        if use_cache:
            for index in range(batch_size):
                cached = cache.get_report(canonical_keys[index], spec is not None)
                if cached is not None:
                    reports[index] = _copy_report(cached)
        pending = [index for index in range(batch_size) if reports[index] is None]
        if not pending:
            return reports
        sub = [splits_list[index] for index in pending]
        count = len(sub)

        # Per pending sub-problem: the parent assignment and single-split
        # delta when the incremental rank-1 correction applies, plus the
        # per-layer prefix-slice boundaries of the derived canonical key.
        deltas: List[Optional[ReluSplit]] = [None] * count
        parent_of: List[Optional[SplitAssignment]] = [None] * count
        sub_canonicals: List[Tuple] = [None] * count
        sub_counts: List[Tuple[int, ...]] = [None] * count
        parent_phase_memo = {}
        if use_cache:
            for position, index in enumerate(pending):
                sub_canonicals[position] = canonical_keys[index]
                if incremental:
                    sub_counts[position] = prefix_counts(canonical_keys[index],
                                                         num_layers)
                    deltas[position] = all_deltas[index]
                    if all_deltas[index] is not None:
                        parent_of[position] = parents[index]

        def _parent_phases(position: int, layer: int, width: int) -> np.ndarray:
            """The parent's decided-phase row for one layer, memoised per
            round.  Valid for the child too at every layer except the
            split layer (the delta adds the only new decision)."""
            parent = parent_of[position]
            memo_key = (id(parent), layer)
            phases = parent_phase_memo.get(memo_key)
            if phases is None:
                phases = parent.layer_phase_array(layer, width)
                parent_phase_memo[memo_key] = phases
            return phases

        parent_key_memo = {}

        def _parent_prefix(position: int, layer: int) -> Tuple:
            """The parent's prefix key at one layer, memoised per round
            (both phase-split siblings probe the same parent entry)."""
            parent = parent_of[position]
            memo_key = (id(parent), layer)
            key = parent_key_memo.get(memo_key)
            if key is None:
                key = parent.prefix_key(layer)
                parent_key_memo[memo_key] = key
            return key

        # Per layer, stacked (count, width) relaxation state of every pending
        # sub-problem (named ``relax_*`` to keep them distinct from the
        # ``lower_slopes`` override parameter).
        relax_lower_slopes: List[np.ndarray] = []
        relax_upper_slopes: List[np.ndarray] = []
        relax_upper_intercepts: List[np.ndarray] = []
        lower_layers: List[np.ndarray] = []
        upper_layers: List[np.ndarray] = []
        infeasible = np.zeros(count, dtype=bool)

        for layer in range(network.num_relu_layers):
            weight = network.weights[layer]
            bias = network.biases[layer]
            width = weight.shape[0]
            lower = np.empty((count, width))
            upper = np.empty((count, width))
            ls = np.empty((count, width))
            us = np.empty((count, width))
            ui = np.empty((count, width))
            layer_infeasible = np.zeros(count, dtype=bool)

            keys = None
            miss = list(range(count))
            if use_cache:
                if incremental:
                    keys = [sub_canonicals[row][:sub_counts[row][layer]]
                            for row in range(count)]
                else:
                    keys = [splits.prefix_key(layer) for splits in sub]
                miss = []
                corrected: List[Tuple[int, SubstitutionEntry]] = []
                for row in range(count):
                    entry = cache.get_layer(layer, keys[row])
                    if entry is not None:
                        lower[row] = entry.lower
                        upper[row] = entry.upper
                        ls[row] = entry.lower_slope
                        us[row] = entry.upper_slope
                        ui[row] = entry.upper_intercept
                        layer_infeasible[row] = entry.infeasible
                        continue
                    delta = deltas[row]
                    if delta is not None and delta.layer == layer:
                        parent_entry = cache.peek_layer(
                            layer, _parent_prefix(row, layer))
                        if parent_entry is not None and not parent_entry.infeasible:
                            corrected.append((row, parent_entry))
                            continue
                    miss.append(row)
                if corrected:
                    with _measure(timings, "correct"):
                        self._apply_split_corrections_batch(
                            corrected, layer, deltas, cache, keys,
                            lower, upper, ls, us, ui, layer_infeasible)

            if miss:
                idx = np.asarray(miss, dtype=int)
                coefficients = np.broadcast_to(weight, (len(miss),) + weight.shape)
                constants = np.broadcast_to(bias, (len(miss), bias.shape[0]))
                miss_lower, miss_upper, _ = self._bound_expression_batch(
                    coefficients, constants, layer - 1,
                    [a[idx] for a in relax_lower_slopes],
                    [a[idx] for a in relax_upper_slopes],
                    [a[idx] for a in relax_upper_intercepts], box,
                    timings=timings)
                if incremental:
                    # Away from its split layer a child's decided phases are
                    # exactly its parent's, so the rows of the clip mask can
                    # be memoised per parent instead of rebuilt per child.
                    phases = np.stack([
                        (_parent_phases(row, layer, width)
                         if parent_of[row] is not None
                         and deltas[row].layer != layer
                         else sub[row].layer_phase_array(layer, width))
                        for row in miss])
                else:
                    phases = stacked_phase_array([sub[row] for row in miss],
                                                 layer, width)
                miss_lower, miss_upper, inconsistent = clip_bounds_with_phases(
                    miss_lower, miss_upper, phases)
                miss_slopes = None
                if lower_slopes is not None:
                    layer_slopes = np.clip(
                        np.asarray(lower_slopes[layer], dtype=float), 0.0, 1.0)
                    require(layer_slopes.shape == (batch_size, width),
                            f"lower_slopes for layer {layer} must have shape "
                            f"{(batch_size, width)}")
                    miss_slopes = layer_slopes[
                        np.asarray([pending[row] for row in miss], dtype=int)]
                miss_ls, miss_us, miss_ui = _relaxation_arrays(
                    miss_lower, miss_upper, phases, miss_slopes)
                lower[idx] = miss_lower
                upper[idx] = miss_upper
                ls[idx] = miss_ls
                us[idx] = miss_us
                ui[idx] = miss_ui
                layer_infeasible[idx] = inconsistent
                if use_cache:
                    for position, row in enumerate(miss):
                        cache.put_layer(layer, keys[row], SubstitutionEntry(
                            miss_lower[position].copy(), miss_upper[position].copy(),
                            miss_ls[position].copy(), miss_us[position].copy(),
                            miss_ui[position].copy(), bool(inconsistent[position])))

            infeasible |= layer_infeasible
            lower_layers.append(lower)
            upper_layers.append(upper)
            relax_lower_slopes.append(ls)
            relax_upper_slopes.append(us)
            relax_upper_intercepts.append(ui)

        # The output-bound and specification rows share every relaxation, so
        # one fused backward pass bounds both (the spec rows are sliced off
        # the stacked result afterwards).
        last_hidden = network.num_relu_layers - 1
        num_outputs = network.biases[-1].shape[0]
        top_coefficients = network.weights[-1]
        top_constants = network.biases[-1]
        if spec is not None:
            require(spec.output_dim == network.output_dim,
                    "specification output dimension does not match the network")
            top_coefficients = np.vstack([top_coefficients,
                                          spec.coefficients @ network.weights[-1]])
            top_constants = np.concatenate([
                top_constants,
                spec.coefficients @ network.biases[-1] + spec.offsets])
        top_lower, top_upper, top_forms = self._bound_expression_batch(
            np.broadcast_to(top_coefficients, (count,) + top_coefficients.shape),
            np.broadcast_to(top_constants, (count,) + top_constants.shape),
            last_hidden, relax_lower_slopes, relax_upper_slopes,
            relax_upper_intercepts, box, timings=timings)
        output_lower = top_lower[:, :num_outputs]
        output_upper = top_upper[:, :num_outputs]

        spec_lower = None
        candidates = None
        worst_rows = None
        if spec is not None:
            spec_lower = top_lower[:, num_outputs:]
            worst_rows = np.argmin(spec_lower, axis=1)
            candidates = BatchedAffineForms(
                top_forms.lower_A[:, num_outputs:, :],
                top_forms.lower_c[:, num_outputs:],
                top_forms.upper_A[:, num_outputs:, :],
                top_forms.upper_c[:, num_outputs:]).minimizers(box, worst_rows)

        for position, index in enumerate(pending):
            pre_bounds = [ScalarBounds.wrap(lower_layers[layer][position],
                                            upper_layers[layer][position])
                          for layer in range(network.num_relu_layers)]
            spec_row_lower = None
            p_hat = None
            candidate = None
            if spec is not None:
                spec_row_lower = spec_lower[position]
                candidate = candidates[position]
                p_hat = (float("inf") if infeasible[position]
                         else float(spec_row_lower[worst_rows[position]]))
            report = BoundReport(pre_activation_bounds=pre_bounds,
                                 output_bounds=ScalarBounds.wrap(output_lower[position],
                                                                 output_upper[position]),
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
                cache.put_report(sub_canonicals[position], spec is not None,
                                 _copy_report(report))
            reports[index] = report
        return reports

    @staticmethod
    def _clip_with_splits(bounds: ScalarBounds, layer: int,
                          splits: SplitAssignment) -> ScalarBounds:
        lower = bounds.lower.copy()
        upper = bounds.upper.copy()
        for unit, phase in splits.layer_phases(layer, bounds.size).items():
            if phase == ACTIVE:
                lower[unit] = max(lower[unit], 0.0)
            elif phase == INACTIVE:
                upper[unit] = min(upper[unit], 0.0)
        return ScalarBounds(lower, upper)


def deeppoly_bounds(network: LoweredNetwork, box: InputBox,
                    splits: Optional[SplitAssignment] = None,
                    spec: Optional[LinearOutputSpec] = None,
                    lower_slopes: Optional[Sequence[np.ndarray]] = None) -> BoundReport:
    """Convenience wrapper around :class:`DeepPolyAnalyzer`."""
    return DeepPolyAnalyzer(network).analyze(box, splits=splits, spec=spec,
                                             lower_slopes=lower_slopes)


def deeppoly_bounds_batch(network: LoweredNetwork, box: InputBox,
                          splits_list: Sequence[Optional[SplitAssignment]],
                          spec: Optional[LinearOutputSpec] = None,
                          cache: Optional[BoundCache] = None) -> List[BoundReport]:
    """Convenience wrapper around :meth:`DeepPolyAnalyzer.analyze_batch`."""
    return DeepPolyAnalyzer(network).analyze_batch(box, splits_list, spec=spec,
                                                   cache=cache)
