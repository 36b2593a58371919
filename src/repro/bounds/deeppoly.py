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

**Reference bounds.**  A BaB child's region lies inside its parent's, so
the parent's pre-activation bounds stay sound for the child.  When the
caller passes each child's parent as ``(parent report, split)`` (see
:data:`~repro.bounds.report.Parent`), the child's bounds are defined from
that reference.  With ``l*`` the layer of the new split:

* layers below ``l*`` are the parent's;
* layer ``l*`` is the parent's, clipped at the newly decided neuron;
* on every layer above, only the neurons *unstable in the parent* are
  re-bounded, over the child's own relaxations; each result is
  intersected with the parent's interval, and every other neuron keeps
  the parent's interval.

The parent's bounds hold on the parent's region, which contains the
child's; a re-bound row is DeepPoly on the child's relaxations; and the
intersection of two sound intervals is sound.  So every child interval is
sound and lies inside the parent's, and an empty intersection proves the
child's region empty (``infeasible``, with the usual ``1e-12`` slack).  A
neuron counts as unstable in the parent when ``not (lower >= 0 or upper
<= 0)``, so a NaN parent bound is re-bounded, never inherited, and the
intersection (``fmax``/``fmin``) never lets a NaN win over a number.
Each parent's neurons are ordered once per call, unstable first, layer by
layer, so a layer gathers every re-bound row's weight rows by its parent's
order in one fancy index, padded to the largest parent's count.
A sub-problem without a parent (the root, a direct :meth:`analyze` call)
is bounded by plain DeepPoly.

**What a report holds.**  Only what the search reads.  Every call bounds
an output specification ``C·y + d``, a required argument: the top pass
bounds just the rows ``C·W`` of the last affine layer (constants
``C·b + d``), and from below only, which yields the spec rows' lower
bounds, ``p̂`` and the candidate corner (the spec matrix is folded into
the last layer, as auto_LiRPA does).  The logits themselves are never
bounded; a caller that wants them asks for the spec rows ``[I; −I]``.
A call writes every hidden bound into
one layer-major ``(count, H)`` array per side; each report's
:class:`~repro.bounds.report.FlatBounds` is a view of its row, and the
per-layer ``pre_activation_bounds`` are views of that row.  The parents
of a call are stacked once, and each layer reads its columns of the stack.

The copy of the layers up to ``l*`` does not depend on the verifiers'
``incremental`` flag.  Re-bounding them against the parent instead would
not reproduce the copy: an α-CROWN parent's bounds come from optimised
slopes, which a default-slope re-bound can tighten, and even against a
DeepPoly parent the re-bound rows sum in a different GEMM order.  Copying
in both modes keeps incremental on and off bit-identical.

An optional :class:`~repro.bounds.cache.BoundCache` memoises whole reports
keyed by :attr:`~repro.bounds.report.BoundReport.path` and carries the
reuse counters.  A sub-problem without a parent is plain DeepPoly of its
split set: the root has path ``("deeppoly",)``, and a plain call with
splits has path ``("deeppoly-plain", phase row bytes)``, so it never shares
an entry with a child bounded against the root along the same splits.
A call stacks its sub-problems' phase rows once
(:func:`~repro.bounds.splits.stack_rows`), and each layer clips and
relaxes against the ACTIVE and INACTIVE masks of its columns of the stack,
computed once for both.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bounds.cache import BoundCache
from repro.bounds.linear_form import concretize_center_radius, minimizing_corner_batch
from repro.bounds.report import BoundReport, FlatBounds, Parent
from repro.bounds.splits import (
    ACTIVE,
    INACTIVE,
    SplitAssignment,
    clip_bounds_with_phases,
    layer_rows,
    stack_rows,
)
from repro.nn.network import LoweredNetwork
from repro.specs.properties import InputBox, LinearOutputSpec
from repro.utils.validation import require

#: One hidden layer's backward-substitution step in its live coordinates:
#: the stacked lower slopes ``(B, 1, n)``, upper slopes ``(B, 1, n)`` and
#: upper intercepts ``(B, n, 1)`` of the relaxation's ``n`` live columns,
#: then the weight ``(n, n_below)`` and bias ``(n,)`` rows that substitute
#: them, already restricted to the live columns of the layer below.
Step = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def default_lower_slope(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """DeepPoly's area-minimising choice of the unstable lower slope."""
    return (upper > -lower).astype(float)


def _relaxation_arrays(lower: np.ndarray, upper: np.ndarray,
                       decided: Optional[Tuple[np.ndarray, np.ndarray]],
                       unstable_lower_slope: Optional[np.ndarray]) -> np.ndarray:
    """Vectorised triangle relaxation of ``(B, width)`` bounds.

    A neuron is exact-identity when split ACTIVE or provably non-negative,
    exact-zero when split INACTIVE or provably non-positive, and otherwise
    gets the triangle upper relaxation with the supplied (or default) lower
    slope.  ``decided`` holds the layer's ``(split ACTIVE, split INACTIVE)``
    masks, or is ``None`` when no neuron of the layer is decided.
    Returns the lower slopes, upper slopes and upper intercepts stacked
    into one ``(3, B, width)`` array: zeros, with the identity and unstable
    entries written through masks.
    """
    active = lower >= 0.0
    stable = upper <= 0.0
    if decided is not None:
        active |= decided[0]
        stable |= decided[1]
    stable |= active
    unstable = ~stable
    relaxation = np.zeros((3,) + lower.shape)
    lower_slopes, upper_slopes, upper_intercepts = relaxation
    np.copyto(relaxation[:2], 1.0, where=active)
    if unstable_lower_slope is None:
        unstable_lower_slope = default_lower_slope(lower, upper)
    np.copyto(lower_slopes, unstable_lower_slope, where=unstable)
    np.divide(upper, upper - lower, out=upper_slopes, where=unstable)
    np.multiply(-upper_slopes, lower, out=upper_intercepts, where=unstable)
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
        #: The network's empty split assignment: the root of a search and
        #: what a ``None`` entry of ``splits_list`` means.
        self.root_splits = SplitAssignment.empty(network.relu_layer_sizes())
        #: Layer offsets of a flat hidden row, shared by every report.
        self._offsets = list(self.root_splits.offsets)
        #: Twice each flat column's layer index: sorting a parent's columns
        #: by it plus their stability groups them by layer, unstable first.
        self._layer_key = np.repeat(2 * np.arange(network.num_relu_layers),
                                    np.diff(self._offsets))

    def _top_rows(self, spec: LinearOutputSpec) -> Tuple[np.ndarray, np.ndarray]:
        """Coefficients ``(1, rows, width)`` and constants ``(1, rows)`` of the
        top pass: the spec rows pulled through the last affine layer,
        ``C·W`` and ``C·b + d``.

        The rows of the last spec seen are kept, since an analyser bounds
        one spec many times.
        """
        top = self._top
        if top[0] is not spec:
            weight = spec.coefficients @ self.network.weights[-1]
            bias = spec.coefficients @ self.network.biases[-1] + spec.offsets
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
                    batch: int, two_sided: bool = True
                    ) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
        """``(batch, rows)`` bounds of ``A @ h + c`` over the box.

        ``center`` and ``radius`` describe the input box.  Each form is
        concretised straight after its own substitution, while it is still
        in cache.  The upper bounds are ``None`` unless ``two_sided``.  Also
        returns the coefficients of the input-level lower forms: the
        minimising corner of a spec row's form is the counterexample
        candidate.
        """
        lower_A, lower_c = self._back_substitute(
            coefficients, constants, steps, minimize=True)
        lower = concretize_center_radius(lower_A, lower_c, center, radius, -1.0)
        upper = None
        if two_sided:
            upper_A, upper_c = self._back_substitute(
                coefficients, constants, steps, minimize=False)
            upper = concretize_center_radius(upper_A, upper_c, center, radius, 1.0)
        if lower.shape[0] != batch:
            # No relaxation was substituted, so every row shares one form.
            lower = np.repeat(lower, batch, axis=0)
            if upper is not None:
                upper = np.repeat(upper, batch, axis=0)
            lower_A = np.broadcast_to(lower_A, (batch,) + lower_A.shape[1:])
        return lower, upper, lower_A

    # -- reference bounds -------------------------------------------------------
    def _rebound_against_parents(self, layer: int, weight: np.ndarray,
                                 bias: np.ndarray, steps: Sequence[Step],
                                 reference: "_Reference", lower: np.ndarray,
                                 upper: np.ndarray, center: np.ndarray,
                                 radius: np.ndarray) -> int:
        """Define one layer's ``(count, width)`` bounds from the parents.

        ``lower`` and ``upper`` hold every row's parent interval (NaN for a
        row without a parent), one contiguous ``(count, width)`` array each.
        The rows that must re-bound (see the module docstring) substitute
        only their parent's unstable neurons, padded to the largest parent's
        count, and intersect the result with the parent's interval in
        place.  Returns how many parent rows re-bounded the layer.
        """
        start = self._offsets[layer]
        rows, rebound = reference.rows[layer]
        if rows is None:
            return 0
        row_groups = reference.group[rows]
        sizes = reference.sizes[row_groups, layer]
        size = int(sizes.max())
        if not size:
            return 0
        columns = reference.order[row_groups, start:start + size] - start
        below = steps if len(rows) == len(lower) else [
            (step[0][rows], step[1][rows], step[2][rows]) + step[3:] for step in steps]
        row_lower, row_upper, _ = self._bound_rows(
            weight[columns], bias[columns], below, center, radius, len(rows))
        # Padding columns are parent-stable neurons: a NaN result leaves
        # them the parent's interval.
        padding = np.arange(size) >= sizes[:, None]
        if padding.any():
            row_lower[padding] = np.nan
            row_upper[padding] = np.nan
        at = (rows[:, None], columns)
        lower[at] = np.fmax(lower[at], row_lower)
        upper[at] = np.fmin(upper[at], row_upper)
        return rebound

    @staticmethod
    def _path(parent: Optional[Parent], splits: SplitAssignment) -> Optional[Tuple]:
        """The report path of a sub-problem (see :class:`BoundReport`)."""
        if parent is None:
            if not splits:
                return ("deeppoly",)
            return ("deeppoly-plain", splits.key)
        report, split = parent
        require(splits.phase_of(split.layer, split.unit) == split.phase,
                "a parent's split must be decided in its child")
        if report.path is None:
            return None
        return report.path + ((split.layer, split.unit, split.phase),)

    # -- public API -------------------------------------------------------------
    def analyze(self, box: InputBox, splits: Optional[SplitAssignment] = None,
                *, spec: LinearOutputSpec,
                lower_slopes: Optional[Sequence[np.ndarray]] = None,
                cache: Optional[BoundCache] = None,
                parent: Optional[Parent] = None) -> BoundReport:
        """Analyse one sub-problem: :meth:`analyze_batch` at ``B = 1``.

        ``lower_slopes`` holds one ``(width,)`` array per hidden layer and
        ``parent`` is the sub-problem's ``(parent report, split)``; every
        other parameter is as in :meth:`analyze_batch`.
        """
        if lower_slopes is not None:
            lower_slopes = [np.asarray(slopes, dtype=float)[None]
                            for slopes in lower_slopes]
        return self.analyze_batch(box, [splits], spec=spec, cache=cache,
                                  lower_slopes=lower_slopes, parents=[parent])[0]

    def analyze_batch(self, box: InputBox,
                      splits_list: Sequence[Optional[SplitAssignment]],
                      spec: LinearOutputSpec,
                      cache: Optional[BoundCache] = None,
                      lower_slopes: Optional[Sequence[np.ndarray]] = None,
                      parents: Optional[Sequence[Optional[Parent]]] = None
                      ) -> List[BoundReport]:
        """Analyse ``B`` sub-problems of the same box in one batched pass.

        The call records no timing; the frontier driver times its whole
        ``evaluate_batch`` call as the round's ``bound`` stage.

        Parameters
        ----------
        splits_list:
            The sub-problems' split assignments (``None`` means none).
        spec:
            The output specification: every report carries its rows' lower
            bounds, ``p̂`` and the counterexample candidate.
        cache:
            Optional bound cache: a sub-problem whose report path was seen
            before is served from it, and the reuse counters accumulate in
            it.  Only consulted with the default slopes; the cache must be
            dedicated to this network, box and spec.
        lower_slopes:
            Optional per-hidden-layer ``(B, width)`` arrays of unstable
            lower-relaxation slopes in ``[0, 1]``, row ``b`` applying to
            ``splits_list[b]`` (used by the α-CROWN optimiser); ``None``
            selects DeepPoly's default slope heuristic.  Supplying slopes
            bypasses the cache.
        parents:
            Optional ``(parent report, split)`` of each sub-problem
            (index-aligned with ``splits_list``, ``None`` entries allowed):
            the child's bounds are defined from the parent's report, as the
            module docstring describes.
        """
        network = self.network
        require(box.dimension == network.input_dim,
                "input box dimension does not match the network")
        splits_list = [self.root_splits if s is None else s for s in splits_list]
        batch_size = len(splits_list)
        if batch_size == 0:
            return []
        num_layers = network.num_relu_layers
        if lower_slopes is not None:
            require(len(lower_slopes) == num_layers,
                    "lower_slopes must provide one array per hidden layer")
        if parents is None:
            parents = [None] * batch_size
        require(len(parents) == batch_size,
                "parents must be index-aligned with splits_list")
        require(spec.output_dim == network.output_dim,
                "specification output dimension does not match the network")
        use_cache = cache is not None and lower_slopes is None

        paths = [self._path(parent, splits) if lower_slopes is None else None
                 for parent, splits in zip(parents, splits_list)]
        reports: List[Optional[BoundReport]] = [None] * batch_size
        if use_cache:
            for index, path in enumerate(paths):
                if path is not None:
                    cached = cache.get_report(path)
                    if cached is not None:
                        reports[index] = cached.shallow_copy()
        pending = [index for index, report in enumerate(reports) if report is None]
        if not pending:
            return reports
        count = len(pending)
        phase_rows = stack_rows([splits_list[index] for index in pending], self.root_splits)
        offsets = self._offsets
        pending_parents = [parents[index] for index in pending]
        reference = (None if all(parent is None for parent in pending_parents)
                     else _Reference(pending_parents, offsets, self._layer_key))

        # The post-clip bounds of every pending sub-problem, one flat
        # (count, H) row each, and per layer its relaxation as a
        # substitution step in the batch's live columns (see
        # :func:`_live_step`).  A layer's bounds are clipped and relaxed as
        # one contiguous (count, width) array (elementwise kernels run
        # slower on strided views) and then stored in the flat rows.
        steps: List[Step] = []
        flat_lower = np.empty((count, offsets[-1]))
        flat_upper = np.empty((count, offsets[-1]))
        infeasible = np.zeros(count, dtype=bool)
        center = box.center
        radius = box.radius
        live = None
        layers_taken = layers_rebound = 0

        for layer in range(num_layers):
            weight = network.weights[layer]
            if live is not None:
                weight = weight.take(live, axis=1)
            bias = network.biases[layer]
            start, stop = offsets[layer], offsets[layer + 1]
            if reference is None:
                lower, upper, _ = self._bound_rows(
                    weight[None], bias[None], steps, center, radius, count)
                layers_rebound += count
            else:
                lower = reference.lower[reference.group, start:stop]
                upper = reference.upper[reference.group, start:stop]
                rebound = self._rebound_against_parents(
                    layer, weight, bias, steps, reference, lower, upper,
                    center, radius)
                layers_taken += reference.children - rebound
                layers_rebound += count - reference.children + rebound
            phases = layer_rows(phase_rows, offsets, layer)
            decided = None if phases is None else (phases == ACTIVE, phases == INACTIVE)
            _, _, layer_infeasible = clip_bounds_with_phases(lower, upper, decided)
            infeasible |= layer_infeasible
            slopes = None
            if lower_slopes is not None:
                slopes = np.clip(np.asarray(lower_slopes[layer], dtype=float), 0.0, 1.0)
                require(slopes.shape == lower.shape,
                        f"lower_slopes for layer {layer} must have shape "
                        f"{lower.shape}")
            step, live = _live_step(_relaxation_arrays(lower, upper, decided, slopes),
                                    weight, bias)
            steps.append(step)
            flat_lower[:, start:stop] = lower
            flat_upper[:, start:stop] = upper
        if cache is not None:
            cache.record_reuse(0 if reference is None else reference.children,
                               layers_taken, layers_rebound)

        top_coefficients, top_constants = self._top_rows(spec)
        if live is not None:
            top_coefficients = top_coefficients.take(live, axis=2)
        spec_lower, _, spec_lower_A = self._bound_rows(
            top_coefficients, top_constants, steps, center, radius,
            count, two_sided=False)
        worst_rows = spec_lower.argmin(axis=1)
        positions = np.arange(count)
        candidates = minimizing_corner_batch(spec_lower_A[positions, worst_rows], box)
        p_hats = np.where(infeasible, np.inf, spec_lower[positions, worst_rows])

        for index, lower_row, upper_row, spec_row_lower, candidate, p_hat, empty in zip(
                pending, flat_lower, flat_upper, spec_lower, candidates,
                p_hats.tolist(), infeasible.tolist()):
            path = paths[index]
            report = BoundReport(
                hidden_bounds=FlatBounds.wrap(lower_row, upper_row, offsets),
                spec_row_lower=spec_row_lower, p_hat=p_hat,
                candidate_input=candidate, infeasible=empty,
                method="deeppoly", path=path)
            # Every bounded report is stored: an FSB probe's report serves
            # the real expansion of the same child, and a *shared* cache
            # outlives the run — the verification service replays identical
            # jobs against it.
            if use_cache and path is not None:
                cache.put_report(path, report.shallow_copy())
            reports[index] = report
        return reports


class _Reference:
    """The parents of one :meth:`DeepPolyAnalyzer.analyze_batch` call.

    ``lower`` and ``upper`` stack the flat rows of the distinct parent
    reports once per call, ``(groups, H)``; when some row has no parent, a
    NaN pseudo-parent follows them (a NaN bound is unstable, and
    ``fmax``/``fmin`` against NaN return the re-bound value, so such a row
    is plain DeepPoly).  ``group[row]`` indexes a row's parent.

    What the layers read is derived once per call, not once per layer:

    * ``order[g]`` lists each layer's columns of group ``g`` in place, the
      neurons unstable in the parent first and then the stable ones, each
      in index order: one stable sort by ``layer_key`` (twice each flat
      column's layer index) plus stability;
    * ``sizes[g, layer]`` counts the group's unstable neurons of a layer;
    * ``rows[layer]`` is ``(rows, rebound)``: the rows that re-bound the
      layer (``None`` when none does) and how many of them have a parent.
      A row takes every layer up to its split layer from its parent.
    """

    def __init__(self, parents: Sequence[Optional[Parent]], offsets: List[int],
                 layer_key: np.ndarray) -> None:
        flats: List[FlatBounds] = []
        position = {}
        group: List[int] = []
        split_layer: List[int] = []
        for parent in parents:
            if parent is None:
                group.append(-1)
                split_layer.append(-1)
                continue
            report, split = parent
            index = position.get(id(report))
            if index is None:
                require(report.hidden_bounds.offsets == offsets,
                        "a parent report must bound every hidden layer")
                index = position[id(report)] = len(flats)
                flats.append(report.hidden_bounds)
            group.append(index)
            split_layer.append(split.layer)
        self.group = np.asarray([len(flats) if index < 0 else index for index in group],
                                dtype=np.intp)
        orphans = split_layer.count(-1)
        self.children = len(group) - orphans
        self.orphans = orphans > 0
        lower = [flat.lower for flat in flats]
        upper = [flat.upper for flat in flats]
        if self.orphans:
            unknown = np.full(offsets[-1], np.nan)
            lower.append(unknown)
            upper.append(unknown)
        self.lower = np.concatenate(lower).reshape(len(lower), offsets[-1])
        self.upper = np.concatenate(upper).reshape(len(upper), offsets[-1])
        stable = (self.lower >= 0.0) | (self.upper <= 0.0)
        self.order = np.argsort(layer_key + stable, axis=1, kind="stable")
        # Every layer is at least one neuron wide, so each start opens a
        # non-empty segment.
        self.sizes = np.add.reduceat(~stable, offsets[:-1], axis=1, dtype=np.intp)
        # An orphan (split layer -1) re-bounds every layer without a parent.
        members: List[List[int]] = [[] for _ in range(len(offsets) - 1)]
        for row, split in enumerate(split_layer):
            for layer in range(split + 1, len(members)):
                members[layer].append(row)
        self.rows: List[Tuple[Optional[np.ndarray], int]] = [
            (np.asarray(rows, dtype=np.intp), len(rows) - orphans) if rows else (None, 0)
            for rows in members]
