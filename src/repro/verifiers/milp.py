"""Complete verification via MILP / LP encodings (GUROBI substitute).

The paper's experiment infrastructure uses GUROBI both as a complete
reference and inside the BaB baselines.  This module provides the same
capabilities on top of SciPy's HiGHS back-end:

* :class:`MilpVerifier` — the classical big-M MILP encoding of a ReLU
  network (Tjeng et al.), solved exactly with :func:`scipy.optimize.milp`.
  It serves as the ground-truth oracle in the test-suite and as the
  "MILP baseline" the paper's introduction contrasts BaB against.
* :func:`solve_leaf_lp` / :func:`solve_leaf_lp_batch` — an LP over a
  *fully phase-decided* sub-problem (every ReLU either stable or split),
  used by the BaB verifiers to resolve leaves exactly.  This mirrors how
  BaB tools fall back to an LP once no unstable neuron remains, which is
  what makes them complete.

The leaf LP lives in the input space.  In a decided leaf every ReLU is
linear, so the pre-activations compose forward as ``z_l(x) = A_l x + c_l``
with ``A_0 = W_0``, ``A_l = W_l diag(active_{l-1}) A_{l-1}`` (likewise
``c_l``), and each spec row's objective is ``C_i (W_out A x + c) + d_i``.
The only variables are the inputs, bounded by the box, and the only rows
are one sign row per *split* neuron: ``z >= 0`` for ACTIVE, ``z <= 0`` for
INACTIVE.  The non-split neurons need no rows: their phases come from the
leaf's report bounds, which at layer ``l`` are sound over the box
restricted by the splits at layers ``<= l``.  By induction over the
layers, every ``x`` in the box that satisfies the split rows gives every
non-split neuron its predicted phase, so this region is exactly the
projection onto ``x`` of the hidden-variable encoding (``h = z`` rows plus
report variable bounds), which trusts the same report bounds.

Most leaves that reach the LP are empty regions: their split rows
``g_i(x) = s_i (a_i x + c_i) >= 0`` (``s = +1`` ACTIVE, ``-1`` INACTIVE)
cannot all hold inside the box.  Before any HiGHS call, one batched numpy
search (:func:`_prove_empty`) looks for a Farkas certificate: multipliers
``lambda >= 0`` summing to 1 whose combined row stays below ``-1e-7`` at
every box corner, hence everywhere in the box.  Every box point then
violates some split row by more than ``1e-7``, HiGHS's primal feasibility
tolerance, so HiGHS itself would report the region infeasible; a certified
leaf therefore returns ``RowOptimum(inf, None, feasible=False)``, the exact
optimum, and is cached, counted (``LpCacheStats.proven_empty``) and
classified like any solved leaf.  A region empty by less than the
tolerance is never claimed and goes to HiGHS, as does every leaf without a
certificate.

Both entry points accept a :class:`~repro.bounds.cache.LpCache` that
memoises the resulting :class:`RowOptimum`.  Cache keys are the leaf's
phase-row bytes (``SplitAssignment.key``), optionally scoped by a
``fingerprint`` — a digest of the network weights, input box and output
spec from :func:`problem_fingerprint` — which makes one ``LpCache``
instance safely shareable *across verification problems*: a
robustness-radius sweep can thread a single cache through every epsilon,
reusing solves when a problem recurs while nearby radii (whose boxes, and
hence optima, differ) can never collide.

SciPy is imported at the first solve, inside the three functions that build
or solve a HiGHS program, not when this module is imported.  Loading
``scipy.optimize`` costs a process about 40 MB of peak RSS and 0.5-0.75 s
(on a 2-CPU x86-64 Linux host), and most runs never solve a leaf LP: their
leaves are cut by bounds or by the emptiness certificate.  Fingerprinting
(:func:`problem_fingerprint`), the certificate (:func:`_prove_empty`) and
leaf classification (:func:`classify_leaf_optimum`) stay SciPy-free.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.bounds.cache import LpCache
from repro.bounds.deeppoly import DeepPolyAnalyzer
from repro.bounds.linear_form import concretize_upper_batch
from repro.bounds.report import BoundReport
from repro.bounds.splits import ACTIVE, INACTIVE, SplitAssignment, flat_offsets, stack_rows
from repro.nn.network import LoweredNetwork, Network
from repro.specs.properties import InputBox, LinearOutputSpec, Specification
from repro.utils.timing import Budget
from repro.verifiers.result import (
    VerificationResult,
    VerificationStatus,
    Verifier,
    make_budget,
)

if TYPE_CHECKING:  # SciPy loads at the first solve, see the module docstring
    from scipy import optimize


@dataclass
class _Encoding:
    """Variable layout shared by the MILP and leaf-LP encodings."""

    num_inputs: int
    hidden_sizes: Tuple[int, ...]
    #: offset of each hidden layer's post-activation block in the variable vector
    hidden_offsets: Tuple[int, ...]
    #: indices of binary variables (MILP only), keyed by (layer, unit)
    binary_index: dict
    num_variables: int

    def h_index(self, layer: int, unit: int) -> int:
        return self.hidden_offsets[layer] + unit


def _build_encoding(network: LoweredNetwork, unstable: Sequence[Tuple[int, int]],
                    with_binaries: bool) -> _Encoding:
    hidden_sizes = network.relu_layer_sizes()
    offsets = []
    cursor = network.input_dim
    for size in hidden_sizes:
        offsets.append(cursor)
        cursor += size
    binary_index = {}
    if with_binaries:
        for neuron in unstable:
            binary_index[neuron] = cursor
            cursor += 1
    return _Encoding(network.input_dim, tuple(hidden_sizes), tuple(offsets),
                     binary_index, cursor)


class _ConstraintBuilder:
    """Accumulates sparse linear constraints ``lb <= A v <= ub``."""

    def __init__(self, num_variables: int) -> None:
        self.num_variables = num_variables
        self.rows: List[np.ndarray] = []
        self.lower: List[float] = []
        self.upper: List[float] = []

    def add(self, coefficients: dict, lower: float, upper: float) -> None:
        row = np.zeros(self.num_variables)
        for index, value in coefficients.items():
            row[index] += value
        self.rows.append(row)
        self.lower.append(lower)
        self.upper.append(upper)

    def add_affine_row(self, weight_row: np.ndarray, bias: float,
                       previous_offset: Optional[int], encoding: _Encoding,
                       extra: dict, lower: float, upper: float) -> None:
        """Add a constraint ``lower <= w·h_prev + bias + extra·v <= upper``."""
        coefficients = dict(extra)
        if previous_offset is None:
            for index, value in enumerate(weight_row):
                if value != 0.0:
                    coefficients[index] = coefficients.get(index, 0.0) + value
        else:
            for index, value in enumerate(weight_row):
                if value != 0.0:
                    key = previous_offset + index
                    coefficients[key] = coefficients.get(key, 0.0) + value
        self.add(coefficients, lower - bias, upper - bias)

    def to_constraint(self) -> Optional[optimize.LinearConstraint]:
        if not self.rows:
            return None
        from scipy import optimize, sparse

        matrix = sparse.csr_matrix(np.vstack(self.rows))
        return optimize.LinearConstraint(matrix, np.asarray(self.lower),
                                         np.asarray(self.upper))


def _encode_problem(network: LoweredNetwork, box: InputBox, report: BoundReport,
                    splits: SplitAssignment, with_binaries: bool
                    ) -> Tuple[_Encoding, _ConstraintBuilder, np.ndarray, np.ndarray, bool]:
    """Build the constraint system shared by the MILP and leaf LP.

    Returns ``(encoding, builder, var_lower, var_upper, has_unstable)``.
    When ``with_binaries`` is False every neuron must already be phase
    decided; an unstable neuron then raises ``ValueError``.
    """
    unstable = report.unstable_neurons(splits)
    if not with_binaries and unstable:
        raise ValueError("leaf LP requires every ReLU neuron to be phase-decided")
    encoding = _build_encoding(network, unstable, with_binaries)
    builder = _ConstraintBuilder(encoding.num_variables)

    var_lower = np.full(encoding.num_variables, -np.inf)
    var_upper = np.full(encoding.num_variables, np.inf)
    var_lower[:encoding.num_inputs] = box.lower
    var_upper[:encoding.num_inputs] = box.upper

    infinity = float("inf")
    layers = report.pre_activation_bounds
    # Each neuron's phase: its split, else +1 / -1 when its bounds are
    # stable, else 0 (unstable).
    flat = report.hidden_bounds
    phases = np.where(splits.row != 0, splits.row, np.where(
        flat.lower >= 0.0, ACTIVE, np.where(flat.upper <= 0.0, INACTIVE, 0)))
    for layer, size in enumerate(encoding.hidden_sizes):
        previous_offset = None if layer == 0 else encoding.hidden_offsets[layer - 1]
        weight = network.weights[layer]
        bias = network.biases[layer]
        bounds = layers[layer]
        for unit in range(size):
            h_index = encoding.h_index(layer, unit)
            lower_z = float(bounds.lower[unit])
            upper_z = float(bounds.upper[unit])
            phase = phases[flat.offsets[layer] + unit]
            if phase == ACTIVE:
                # h = z, z >= 0
                var_lower[h_index] = max(0.0, lower_z)
                var_upper[h_index] = max(0.0, upper_z)
                builder.add_affine_row(weight[unit], float(bias[unit]), previous_offset,
                                       encoding, {h_index: -1.0}, 0.0, 0.0)
                builder.add_affine_row(weight[unit], float(bias[unit]), previous_offset,
                                       encoding, {}, 0.0, infinity)
            elif phase == INACTIVE:
                # h = 0, z <= 0
                var_lower[h_index] = 0.0
                var_upper[h_index] = 0.0
                builder.add_affine_row(weight[unit], float(bias[unit]), previous_offset,
                                       encoding, {}, -infinity, 0.0)
            else:
                # Unstable neuron with binary indicator a:
                #   h >= 0, h >= z, h <= z - l (1 - a), h <= u a
                a_index = encoding.binary_index[(layer, unit)]
                var_lower[h_index] = 0.0
                var_upper[h_index] = max(0.0, upper_z)
                var_lower[a_index] = 0.0
                var_upper[a_index] = 1.0
                # h - z >= 0
                builder.add_affine_row(-weight[unit], -float(bias[unit]), previous_offset,
                                       encoding, {h_index: 1.0}, 0.0, infinity)
                # h - z - l a <= -l   (h <= z - l + l a)
                builder.add_affine_row(-weight[unit], -float(bias[unit]), previous_offset,
                                       encoding, {h_index: 1.0, a_index: -lower_z},
                                       -infinity, -lower_z)
                # h - u a <= 0
                builder.add({h_index: 1.0, a_index: -upper_z}, -infinity, 0.0)
    return encoding, builder, var_lower, var_upper, bool(unstable)


def _objective_vector(network: LoweredNetwork, spec_row: np.ndarray,
                      encoding: _Encoding) -> Tuple[np.ndarray, float]:
    """Objective ``c·v + constant`` for one spec row over the encoding variables."""
    objective = np.zeros(encoding.num_variables)
    final_weight = network.weights[-1]
    final_bias = network.biases[-1]
    coefficients = spec_row @ final_weight
    constant = float(spec_row @ final_bias)
    if encoding.hidden_sizes:
        offset = encoding.hidden_offsets[-1]
        objective[offset:offset + encoding.hidden_sizes[-1]] = coefficients
    else:
        objective[:encoding.num_inputs] = coefficients
    return objective, constant


@dataclass
class RowOptimum:
    """Exact minimum of one spec row over a (sub-)problem.

    ``value`` is ``+inf`` for an infeasible region and ``-inf`` (with no
    minimiser) when the solver stopped without a verdict.
    """

    value: float
    minimizer: Optional[np.ndarray]
    feasible: bool


def _solve(objective: np.ndarray, constant: float,
           constraints: Optional[optimize.LinearConstraint],
           var_lower: np.ndarray, var_upper: np.ndarray,
           integrality: np.ndarray, num_inputs: int,
           time_limit: Optional[float]) -> RowOptimum:
    """Minimise ``objective @ v + constant``; the value is a proven lower bound.

    Only HiGHS status 0 (optimal) and 2 (infeasible) carry a verdict.  Any
    other status — a time or iteration limit, even with an incumbent — is
    returned as ``(-inf, None)``, which every reader treats as unknown.
    With binaries, HiGHS stops within ``mip_rel_gap`` of its dual bound, so
    the value is the dual bound whenever that is lower than the incumbent.
    """
    from scipy import optimize

    options = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    result = optimize.milp(
        c=objective,
        constraints=[constraints] if constraints is not None else [],
        bounds=optimize.Bounds(var_lower, var_upper),
        integrality=integrality,
        options=options,
    )
    unknown = RowOptimum(float("-inf"), None, feasible=True)
    if result.status == 2:  # infeasible
        return RowOptimum(float("inf"), None, feasible=False)
    if result.status != 0 or result.x is None:
        return unknown
    value = float(result.fun + constant)
    if np.any(integrality):
        dual_bound = result.mip_dual_bound
        if dual_bound is None or not np.isfinite(dual_bound):
            return unknown
        value = min(value, float(dual_bound + constant))
    return RowOptimum(value, np.asarray(result.x[:num_inputs]), feasible=True)


# ---------------------------------------------------------------------------
# Batched, cached leaf-LP resolution
# ---------------------------------------------------------------------------

#: Mirror-descent steps of the leaf emptiness certificate (:func:`_prove_empty`).
_CERTIFICATE_ITERATIONS = 50
#: Exponentiated-gradient step size on rows scaled to unit range over the box.
_CERTIFICATE_STEP = 1.0
#: A certificate must leave every box point violating some split row by more
#: than this: HiGHS's default primal feasibility tolerance.
_CERTIFICATE_TOLERANCE = 1e-7


def network_weights_digest(network: LoweredNetwork) -> str:
    """A stable digest over just the lowered weights and biases.

    The verification service keys its warm-model cache on this digest so
    many properties over one network (a robustness sweep, a batch of
    labels) reuse one lowering; :func:`problem_fingerprint` accepts it as a
    precomputed prefix to avoid re-hashing the (large) weight arrays per
    property.
    """
    digest = hashlib.sha256()
    for weight, bias in zip(network.weights, network.biases):
        digest.update(np.ascontiguousarray(weight, dtype=float).tobytes())
        digest.update(np.ascontiguousarray(bias, dtype=float).tobytes())
    return digest.hexdigest()


def problem_fingerprint(network: LoweredNetwork, box: InputBox,
                        spec: LinearOutputSpec,
                        weights_digest: Optional[str] = None) -> str:
    """A stable digest identifying one verification problem.

    Hashes the lowered weights/biases, the input box and the output-spec
    rows; two problems share a fingerprint exactly when the leaf LP (and
    every bound computation) they induce is identical.  Used to scope
    :class:`~repro.bounds.cache.LpCache` keys so one cache instance can be
    shared across runs *and* across problems (e.g. a robustness-radius
    sweep) without unsound cross-problem hits.

    ``weights_digest`` optionally supplies the network's precomputed
    :func:`network_weights_digest`, skipping the per-call weight hashing;
    it MUST be the digest of ``network`` or fingerprints collide.
    """
    digest = hashlib.sha256()
    if weights_digest is None:
        weights_digest = network_weights_digest(network)
    digest.update(weights_digest.encode("ascii"))
    digest.update(np.ascontiguousarray(box.lower, dtype=float).tobytes())
    digest.update(np.ascontiguousarray(box.upper, dtype=float).tobytes())
    digest.update(np.ascontiguousarray(spec.coefficients, dtype=float).tobytes())
    digest.update(np.ascontiguousarray(spec.offsets, dtype=float).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class _LeafPrograms:
    """The input-space LPs of a batch of decided leaves.

    Leaf ``b`` minimises ``objectives[b] @ x + constants[b]`` (one row per
    spec row) over the box subject to its split rows ``matrix[b, i] @ x +
    offset[b, i] >= 0``, i.e. ``sign_i (a_i x + c_i) >= 0`` for the split
    neuron's pre-activation ``a_i x + c_i`` and ``sign[b, i]`` its phase.
    A leaf's rows come first, in flat neuron order; zero rows with sign 0
    pad them to the batch's largest count.
    """

    objectives: np.ndarray
    constants: np.ndarray
    matrix: np.ndarray
    offset: np.ndarray
    sign: np.ndarray

    def constraint(self, leaf: int) -> Optional[optimize.LinearConstraint]:
        """Leaf ``leaf``'s rows as HiGHS solves them: ``a x >= -c`` ACTIVE,
        ``a x <= -c`` INACTIVE (unsigning is exact, so the solver input is
        unchanged), or ``None`` when nothing is split."""
        present = self.sign[leaf] != 0.0
        if not present.any():
            return None
        from scipy import optimize

        sign = self.sign[leaf, present]
        active = sign > 0
        bound = -sign * self.offset[leaf, present]
        return optimize.LinearConstraint(sign[:, None] * self.matrix[leaf, present],
                                         np.where(active, bound, -np.inf),
                                         np.where(active, np.inf, bound))


def _leaf_programs(network: LoweredNetwork, spec: LinearOutputSpec,
                   leaves: Sequence[Tuple[SplitAssignment, BoundReport]]
                   ) -> _LeafPrograms:
    """The input-space LPs of ``leaves`` in one batched forward composition.

    Each leaf's decided affine map (see the module docstring) composes
    over the stacked phase rows: a neuron is active when split ACTIVE or,
    undecided, when its report's lower bound is non-negative, and the next
    layer's weights apply with inactive neurons' columns zeroed.  Raises
    ``ValueError`` when any neuron of any leaf is still unstable.
    """
    sizes = network.relu_layer_sizes()
    offsets = flat_offsets(sizes)
    count = len(leaves)
    rows = stack_rows([splits for splits, _ in leaves], SplitAssignment.empty(sizes))
    lower = np.concatenate([report.hidden_bounds.lower for _, report in leaves]).reshape(count, -1)
    upper = np.concatenate([report.hidden_bounds.upper for _, report in leaves]).reshape(count, -1)
    decided = rows != 0
    if np.any(~decided & (lower < 0.0) & (upper > 0.0)):
        raise ValueError("leaf LP requires every ReLU neuron to be phase-decided")
    active = np.where(decided, rows == ACTIVE, lower >= 0.0)

    matrix = np.broadcast_to(network.weights[0], (count,) + network.weights[0].shape)
    offset = np.broadcast_to(network.biases[0], (count, len(network.biases[0])))
    forms, form_offsets = [matrix], [offset]
    for layer in range(len(sizes)):
        weight = (network.weights[layer + 1]
                  * active[:, None, offsets[layer]:offsets[layer + 1]])
        matrix = weight @ matrix
        offset = (weight @ offset[..., None])[..., 0] + network.biases[layer + 1]
        forms.append(matrix)
        form_offsets.append(offset)
    objectives = spec.coefficients @ matrix
    constants = offset @ spec.coefficients.T + spec.offsets

    # One sign row per split neuron, in flat order at the front of its leaf.
    leaf, neuron = np.nonzero(decided)
    counts = np.bincount(leaf, minlength=count)
    position = np.arange(len(leaf)) - np.repeat(np.cumsum(counts) - counts, counts)
    signs = rows[leaf, neuron].astype(float)
    sign = np.zeros((count, int(counts.max())))
    sign[leaf, position] = signs
    split_matrix = np.zeros(sign.shape + (network.input_dim,))
    split_matrix[leaf, position] = (
        signs[:, None] * np.concatenate(forms[:-1], axis=1)[leaf, neuron])
    split_offset = np.zeros(sign.shape)
    split_offset[leaf, position] = (
        signs * np.concatenate(form_offsets[:-1], axis=1)[leaf, neuron])
    return _LeafPrograms(objectives, constants, split_matrix, split_offset, sign)


def _prove_empty(matrix: np.ndarray, offset: np.ndarray, present: np.ndarray,
                 box: InputBox) -> np.ndarray:
    """Which leaves a Farkas certificate proves empty over the box.

    A region ``{x in box : g_i(x) >= 0}`` is empty iff some ``lambda >= 0``
    with ``sum(lambda) = 1`` has ``U(lambda) = max_box sum_i lambda_i g_i(x)
    < 0``; ``U`` is the box-corner concretisation of the combined row.  The
    leaves' signed split rows come padded: ``matrix`` is ``(count, R, d)``,
    ``offset`` ``(count, R)``, and ``present`` marks the real rows (each
    leaf has at least one).  One exponentiated-gradient (mirror-descent)
    search over the simplex runs on all leaves at once, on rows scaled to
    unit range over the box.  A leaf is accepted only when its best
    ``lambda``, mapped back to the *original* rows and normalised to sum 1,
    gives ``U < -_CERTIFICATE_TOLERANCE``: every box point then violates
    some split row by more than that.  Returns one bool per leaf; ``False``
    proves nothing.  The search stops once every leaf is certified or has
    a best-response corner satisfying all its split rows: such a witness
    shows the region non-empty, so no ``lambda`` can certify it.
    """
    count = len(matrix)
    span = np.abs(matrix) @ (box.upper - box.lower)
    scale = 1.0 / np.where(span > 0.0, span, 1.0)
    unit_matrix = matrix * scale[..., None]
    unit_offset = offset * scale

    logits = np.where(present, 0.0, -np.inf)
    best = present / present.sum(axis=1, keepdims=True)
    best_upper = np.full(count, np.inf)
    witnessed = np.zeros(count, dtype=bool)
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
        witnessed |= ((values >= 0.0) | ~present).all(axis=1)
        if np.all((best_upper < -_CERTIFICATE_TOLERANCE) | witnessed):
            break
        # Descend on the subgradient g~(x*): violated rows gain weight.
        logits -= _CERTIFICATE_STEP * values

    multipliers = best * scale
    multipliers /= multipliers.sum(axis=1, keepdims=True)
    upper = concretize_upper_batch(
        np.einsum("br,brd->bd", multipliers, matrix)[:, None, :],
        (multipliers * offset).sum(axis=1)[:, None], box)[:, 0]
    return upper < -_CERTIFICATE_TOLERANCE


def _minimise_rows(objectives: np.ndarray, constants: np.ndarray,
                   constraints: Optional[optimize.LinearConstraint],
                   box: InputBox, time_limit: Optional[float]) -> RowOptimum:
    """Minimum over all spec rows of one leaf (``+inf`` when infeasible).

    Every row shares the same feasible region, so the first infeasible row
    proves the region empty and the loop returns without solving the rest.
    A row without a verdict (``-inf``) stays the minimum, so the leaf reads
    as unknown.
    """
    best = RowOptimum(float("inf"), None, feasible=False)
    integrality = np.zeros(box.dimension)
    for objective, constant in zip(objectives, constants):
        optimum = _solve(objective, float(constant), constraints, box.lower,
                         box.upper, integrality, box.dimension, time_limit)
        if not optimum.feasible:
            return optimum
        if optimum.value < best.value:
            best = optimum
    return best


def solve_leaf_lp_batch(network: LoweredNetwork, box: InputBox,
                        spec: LinearOutputSpec,
                        leaves: Sequence[Tuple[SplitAssignment, BoundReport]],
                        cache: Optional[LpCache] = None,
                        time_limit: Optional[float] = None,
                        fingerprint: Optional[str] = None) -> List[RowOptimum]:
    """Exactly resolve a batch of fully phase-decided sub-problems.

    ``leaves`` pairs each leaf's :class:`~repro.bounds.splits.SplitAssignment`
    with the :class:`~repro.bounds.report.BoundReport` of its bound analysis.
    Returns one :class:`RowOptimum` per leaf, in order, equal to what
    :func:`solve_leaf_lp` computes for each leaf alone.

    Each leaf is an LP over the input box alone: its decided ReLUs compose
    into one affine map, and its only rows are one sign row per split
    neuron (``z >= 0`` ACTIVE, ``z <= 0`` INACTIVE).  Non-split neurons add
    no rows, because the report bounds that give them their phase are sound
    over the box restricted by the splits at or below their layer, so the
    split rows already imply those phases (the module docstring has the
    induction).  The call builds every unsolved leaf's program in one
    batched forward composition over the stacked phase rows
    (:func:`_leaf_programs`).  Leaves with split rows first go through one
    batched emptiness-certificate search (:func:`_prove_empty`); a certified leaf
    is empty and returns the infeasible optimum without a solver call.
    For the rest, the spec rows are minimised one HiGHS call each, stopping
    at the first infeasible row.  When a :class:`~repro.bounds.cache.LpCache`
    is supplied, leaves whose phase row was already resolved — in
    an earlier call or earlier in this batch — are served from the cache
    (counted as hits) and never reach the solver.  ``fingerprint``
    (see :func:`problem_fingerprint`) scopes the cache keys so one cache
    can be shared across verification problems.  The call records no
    timing: the frontier driver times each round's whole leaf resolution
    as its ``lp`` stage.
    """
    if not leaves:
        return []
    results: List[Optional[RowOptimum]] = [None] * len(leaves)
    unsolved: List[int] = []        # indices that reach the solver
    aliases: List[Tuple[int, int]] = []  # (duplicate index, primary index)
    first_by_key = {}

    def cache_key(splits: SplitAssignment):
        return splits.key if fingerprint is None else (fingerprint, splits.key)

    for index, (splits, _) in enumerate(leaves):
        key = splits.key
        primary = first_by_key.get(key)
        if primary is not None:
            # An identical leaf earlier in this batch: reuse its optimum.
            if cache is not None:
                cache.record_hit()
            aliases.append((index, primary))
            continue
        if cache is not None:
            hit = cache.get(cache_key(splits))
            if hit is not None:
                results[index] = hit
                continue
        first_by_key[key] = index
        unsolved.append(index)

    if not unsolved:  # every leaf was a cache hit (so none is an alias)
        return results  # type: ignore[return-value]
    programs = _leaf_programs(network, spec, [leaves[index] for index in unsolved])
    present = programs.sign != 0.0
    screened = np.flatnonzero(present.any(axis=1))
    proven = np.zeros(len(unsolved), dtype=bool)
    if screened.size:
        proven[screened] = _prove_empty(
            programs.matrix[screened], programs.offset[screened],
            present[screened], box)

    for position, index in enumerate(unsolved):
        if proven[position]:
            # Exactly what HiGHS returns for an empty region.
            optimum = RowOptimum(float("inf"), None, feasible=False)
        else:
            optimum = _minimise_rows(
                programs.objectives[position], programs.constants[position],
                programs.constraint(position), box, time_limit)
        results[index] = optimum
        if cache is not None:
            cache.record_solve()
            if proven[position]:
                cache.record_proven_empty()
            cache.put(cache_key(leaves[index][0]), optimum)

    for duplicate, primary in aliases:
        results[duplicate] = results[primary]
    return results  # type: ignore[return-value]


#: Verdict of one exactly resolved leaf (see :func:`classify_leaf_optimum`).
LEAF_VERIFIED = "verified"
LEAF_UNKNOWN = "unknown"
LEAF_FALSIFIED = "falsified"


def classify_leaf_optimum(optimum: RowOptimum, spec: Specification,
                          network: Network) -> Tuple[str, Optional[np.ndarray]]:
    """Interpret one leaf optimum soundly; returns ``(verdict, counterexample)``.

    The single shared reading every BaB work source applies to an exact
    leaf resolution, and :class:`MilpVerifier` to each row's MILP:

    * infeasible region or non-negative proven minimum — the leaf is
      *verified* (``LEAF_VERIFIED``);
    * a negative minimum whose clipped minimiser is a real counterexample of
      the original problem — *falsified* (``LEAF_FALSIFIED``, with the
      validated point);
    * anything else (solver failure without a minimiser, or a spurious
      minimiser that does not reproduce the violation) — *unknown*
      (``LEAF_UNKNOWN``), which keeps completeness honest.
    """
    if not optimum.feasible or optimum.value >= 0.0:
        return LEAF_VERIFIED, None
    if optimum.minimizer is None:  # the solver stopped without a verdict
        return LEAF_UNKNOWN, None
    point = spec.input_box.clip(optimum.minimizer)
    if spec.is_counterexample(network, point):
        return LEAF_FALSIFIED, point
    return LEAF_UNKNOWN, None  # e.g. a dual bound below an incumbent >= 0


def solve_leaf_lp(network: LoweredNetwork, box: InputBox, spec: LinearOutputSpec,
                  splits: SplitAssignment, report: BoundReport,
                  time_limit: Optional[float] = None,
                  cache: Optional[LpCache] = None,
                  fingerprint: Optional[str] = None) -> RowOptimum:
    """Exactly resolve a fully phase-decided sub-problem with an LP.

    Returns the minimum specification margin over the sub-problem's feasible
    region along with its minimiser; an infeasible region yields ``+inf``
    (vacuously verified).  Every ReLU neuron must be stable or split.  A
    supplied :class:`~repro.bounds.cache.LpCache` memoises the optimum by
    the assignment's phase-row bytes, optionally scoped by ``fingerprint``
    (see :func:`solve_leaf_lp_batch`).
    """
    return solve_leaf_lp_batch(network, box, spec, [(splits, report)],
                               cache=cache, time_limit=time_limit,
                               fingerprint=fingerprint)[0]


class MilpVerifier(Verifier):
    """Complete verification through the big-M MILP encoding."""

    name = "MILP"

    def __init__(self, time_limit_per_row: Optional[float] = None) -> None:
        self.time_limit_per_row = time_limit_per_row

    def verify(self, network: Network, spec: Specification,
               budget: Optional[Budget] = None) -> VerificationResult:
        """Decide the problem exactly: DeepPoly pre-pass, then one MILP per
        specification row (stopping at the first violated row)."""
        budget = make_budget(budget, default_nodes=10_000)
        lowered = network.lowered()
        report = DeepPolyAnalyzer(lowered).analyze(spec.input_box,
                                                   spec=spec.output_spec)
        budget.charge_node()
        if report.p_hat > 0.0:
            return VerificationResult(VerificationStatus.VERIFIED, self.name,
                                      elapsed_seconds=budget.elapsed_seconds,
                                      nodes_explored=budget.nodes,
                                      bound=float(report.p_hat))

        splits = SplitAssignment.empty(lowered.relu_layer_sizes())
        encoding, builder, var_lower, var_upper, has_unstable = _encode_problem(
            lowered, spec.input_box, report, splits, with_binaries=True)
        constraints = builder.to_constraint()
        integrality = np.zeros(encoding.num_variables)
        for index in encoding.binary_index.values():
            integrality[index] = 1

        worst = float("inf")
        for row_index in range(spec.output_spec.num_constraints):
            if budget.exhausted():
                return self._timeout(budget)
            objective, constant = _objective_vector(
                lowered, spec.output_spec.coefficients[row_index], encoding)
            constant += float(spec.output_spec.offsets[row_index])
            time_limit = self.time_limit_per_row
            if budget.max_seconds is not None:
                remaining = max(budget.max_seconds - budget.elapsed_seconds, 0.1)
                time_limit = remaining if time_limit is None else min(time_limit, remaining)
            optimum = _solve(objective, constant, constraints, var_lower, var_upper,
                             integrality, encoding.num_inputs, time_limit)
            budget.charge_node()
            # A row is proven only by a non-negative dual bound, and falsified
            # only by a minimiser that re-checks as a counterexample.
            verdict, point = classify_leaf_optimum(optimum, spec, network)
            if verdict == LEAF_FALSIFIED:
                return VerificationResult(VerificationStatus.FALSIFIED, self.name,
                                          elapsed_seconds=budget.elapsed_seconds,
                                          nodes_explored=budget.nodes,
                                          counterexample=point,
                                          bound=float(optimum.value))
            if verdict == LEAF_UNKNOWN:
                return self._timeout(budget)
            worst = min(worst, optimum.value)
        return VerificationResult(VerificationStatus.VERIFIED, self.name,
                                  elapsed_seconds=budget.elapsed_seconds,
                                  nodes_explored=budget.nodes,
                                  bound=None if worst == float("inf") else float(worst))

    def _timeout(self, budget: Budget) -> VerificationResult:
        """No sound verdict: the budget ran out or a solve stopped early."""
        return VerificationResult(VerificationStatus.TIMEOUT, self.name,
                                  elapsed_seconds=budget.elapsed_seconds,
                                  nodes_explored=budget.nodes)
