"""Complete verification via MILP / LP encodings (GUROBI substitute).

The paper's experiment infrastructure uses GUROBI both as a complete
reference and inside the BaB baselines.  This module provides the same
capabilities on top of SciPy's HiGHS back-end:

* :class:`MilpVerifier` — the classical big-M MILP encoding of a ReLU
  network (Tjeng et al.), solved exactly with :func:`scipy.optimize.milp`.
  It serves as the ground-truth oracle in the test-suite and as the
  "MILP baseline" the paper's introduction contrasts BaB against.
* :func:`solve_leaf_lp` — an LP over a *fully phase-decided* sub-problem
  (every ReLU either stable or split), used by the BaB verifiers to resolve
  leaves exactly.  This mirrors how BaB tools fall back to an LP once no
  unstable neuron remains, which is what makes them complete.

Two execution modes back the leaf-LP hot path (the frontier drivers charge
roughly one bound computation per leaf, and the LP dominated ABONN's node
charges on the deeper seed families once bound batching landed):

* :func:`solve_leaf_lp` — one leaf at a time;
* :func:`solve_leaf_lp_batch` — all fully-decided leaves of one frontier
  round in a single pass.  A decided leaf's constraint *rows* depend only
  on the per-layer phase pattern (the bounds from its report enter only the
  variable-bound vectors), so the batch shares one row block per
  ``(layer, phase-pattern)`` group — sibling leaves, which agree on every
  layer except the one holding the flipped neuron, rebuild almost nothing —
  and computes the spec-row objective vectors once for the whole batch.
  Within one leaf, all specification rows can resolve through a **single
  stacked multi-objective ``milp`` call** (``stack_rows``): the rows share
  one feasible region, so minimising an auxiliary ``t`` over
  ``t >= f_i(v) - M_i (1 - s_i)`` with one-hot binary selectors ``s``
  yields exactly ``min_i min_v f_i(v)`` in one solve sharing the
  constraint matrix, instead of one ``milp`` call per row.  Big-Ms come
  from interval arithmetic over the (always finite) leaf variable bounds.
  The per-row loop (with an early exit on the first infeasible row — the
  rows share the region, so one infeasible row means all are) remains the
  default below :data:`STACK_ROWS_MIN` rows, where one solver call per row
  is still cheaper than the selector branch-and-bound.

Both modes accept a :class:`~repro.bounds.cache.LpCache` that memoises the
resulting :class:`RowOptimum`.  Cache keys are
``SplitAssignment.canonical_key()`` tuples, optionally scoped by a
``fingerprint`` — a digest of the network weights, input box and output
spec from :func:`problem_fingerprint` — which makes one ``LpCache``
instance safely shareable *across verification problems*: a
robustness-radius sweep can thread a single cache through every epsilon,
reusing solves when a problem recurs while nearby radii (whose boxes, and
hence optima, differ) can never collide.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize, sparse

from repro.bounds.cache import LpCache
from repro.bounds.deeppoly import DeepPolyAnalyzer
from repro.bounds.report import BoundReport
from repro.bounds.splits import ACTIVE, INACTIVE, SplitAssignment
from repro.nn.network import LoweredNetwork, Network
from repro.specs.properties import InputBox, LinearOutputSpec, Specification
from repro.utils.timing import Budget, PhaseTimings
from repro.utils.validation import require
from repro.verifiers.result import (
    VerificationResult,
    VerificationStatus,
    Verifier,
    make_budget,
)


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

    def x_slice(self) -> slice:
        return slice(0, self.num_inputs)

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


def _phase_of(layer: int, unit: int, report: BoundReport,
              splits: SplitAssignment) -> int:
    """Phase of a neuron: +1 active, -1 inactive, 0 unstable."""
    decided = splits.phase_of(layer, unit)
    if decided != 0:
        return decided
    bounds = report.pre_activation_bounds[layer]
    if bounds.lower[unit] >= 0.0:
        return ACTIVE
    if bounds.upper[unit] <= 0.0:
        return INACTIVE
    return 0


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
    for layer, size in enumerate(encoding.hidden_sizes):
        previous_offset = None if layer == 0 else encoding.hidden_offsets[layer - 1]
        weight = network.weights[layer]
        bias = network.biases[layer]
        bounds = report.pre_activation_bounds[layer]
        for unit in range(size):
            h_index = encoding.h_index(layer, unit)
            lower_z = float(bounds.lower[unit])
            upper_z = float(bounds.upper[unit])
            phase = _phase_of(layer, unit, report, splits)
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
    """Exact minimum of one spec row over a (sub-)problem."""

    value: float
    minimizer: Optional[np.ndarray]
    feasible: bool


def _lp_measure(timings: Optional[PhaseTimings]):
    """A ``timings.measure("lp")`` context, or a no-op without timings."""
    return timings.measure("lp") if timings is not None else nullcontext()


#: Row count from which the stacked multi-objective leaf solve is the
#: default.  The selector MILP costs one branch-and-bound over the one-hot
#: binaries, which beats one HiGHS call per row once enough rows share the
#: region (measured crossover on the seed families: ~2x slower at 3 rows,
#: ~1.3x faster at 9); explicit ``stack_rows=True/False`` overrides.
STACK_ROWS_MIN = 6


def _solve(objective: np.ndarray, constant: float,
           constraints: Optional[optimize.LinearConstraint],
           var_lower: np.ndarray, var_upper: np.ndarray,
           integrality: np.ndarray, encoding: _Encoding,
           time_limit: Optional[float]) -> RowOptimum:
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
    if result.status == 2:  # infeasible
        return RowOptimum(float("inf"), None, feasible=False)
    if result.x is None:  # pragma: no cover - solver failure/time limit
        return RowOptimum(float("-inf"), None, feasible=True)
    minimizer = np.asarray(result.x[:encoding.num_inputs])
    return RowOptimum(float(result.fun + constant), minimizer, feasible=True)


# ---------------------------------------------------------------------------
# Batched, cached leaf-LP resolution
# ---------------------------------------------------------------------------

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


def _leaf_phase_signature(network: LoweredNetwork, report: BoundReport,
                          splits: SplitAssignment) -> Tuple[Tuple[int, ...], ...]:
    """Per-layer decided phases of a leaf (``+1`` / ``-1`` per neuron).

    Raises ``ValueError`` when any neuron is still unstable — the leaf LP is
    only defined for fully phase-decided sub-problems.
    """
    signature = []
    for layer, size in enumerate(network.relu_layer_sizes()):
        phases = []
        for unit in range(size):
            phase = _phase_of(layer, unit, report, splits)
            if phase == 0:
                raise ValueError("leaf LP requires every ReLU neuron to be phase-decided")
            phases.append(phase)
        signature.append(tuple(phases))
    return tuple(signature)


def _layer_row_block(network: LoweredNetwork, encoding: _Encoding, layer: int,
                     phases: Tuple[int, ...]
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The leaf-LP constraint rows contributed by one hidden layer.

    For decided leaves the rows depend only on the layer's phase pattern
    (ACTIVE: ``h = z`` and ``z >= 0``; INACTIVE: ``z <= 0``), never on the
    leaf's bound report — which is what lets a batch share row blocks across
    leaves that agree on the layer.
    """
    builder = _ConstraintBuilder(encoding.num_variables)
    previous_offset = None if layer == 0 else encoding.hidden_offsets[layer - 1]
    weight = network.weights[layer]
    bias = network.biases[layer]
    infinity = float("inf")
    for unit, phase in enumerate(phases):
        h_index = encoding.h_index(layer, unit)
        if phase == ACTIVE:
            builder.add_affine_row(weight[unit], float(bias[unit]), previous_offset,
                                   encoding, {h_index: -1.0}, 0.0, 0.0)
            builder.add_affine_row(weight[unit], float(bias[unit]), previous_offset,
                                   encoding, {}, 0.0, infinity)
        else:
            builder.add_affine_row(weight[unit], float(bias[unit]), previous_offset,
                                   encoding, {}, -infinity, 0.0)
    if not builder.rows:
        empty = np.zeros((0, encoding.num_variables))
        return empty, np.zeros(0), np.zeros(0)
    return (np.vstack(builder.rows), np.asarray(builder.lower),
            np.asarray(builder.upper))


def _leaf_variable_bounds(box: InputBox, report: BoundReport,
                          signature: Tuple[Tuple[int, ...], ...],
                          encoding: _Encoding) -> Tuple[np.ndarray, np.ndarray]:
    """Per-leaf variable bounds (inputs from the box, ``h`` from the report)."""
    var_lower = np.full(encoding.num_variables, -np.inf)
    var_upper = np.full(encoding.num_variables, np.inf)
    var_lower[:encoding.num_inputs] = box.lower
    var_upper[:encoding.num_inputs] = box.upper
    for layer, phases in enumerate(signature):
        bounds = report.pre_activation_bounds[layer]
        for unit, phase in enumerate(phases):
            h_index = encoding.h_index(layer, unit)
            if phase == ACTIVE:
                var_lower[h_index] = max(0.0, float(bounds.lower[unit]))
                var_upper[h_index] = max(0.0, float(bounds.upper[unit]))
            else:
                var_lower[h_index] = 0.0
                var_upper[h_index] = 0.0
    return var_lower, var_upper


def _row_objectives(network: LoweredNetwork, spec: LinearOutputSpec,
                    encoding: _Encoding) -> List[Tuple[np.ndarray, float]]:
    """Objective vector and constant of every spec row over the encoding."""
    objectives = []
    for row_index in range(spec.num_constraints):
        objective, constant = _objective_vector(network, spec.coefficients[row_index],
                                                encoding)
        objectives.append((objective, constant + float(spec.offsets[row_index])))
    return objectives


def _minimise_rows(objectives: List[Tuple[np.ndarray, float]],
                   constraints: Optional[optimize.LinearConstraint],
                   var_lower: np.ndarray, var_upper: np.ndarray,
                   integrality: np.ndarray, encoding: _Encoding,
                   time_limit: Optional[float]) -> RowOptimum:
    """Minimum over all spec rows of one leaf (``+inf`` when infeasible).

    Every row shares the same feasible region, so the first infeasible row
    proves the region empty and the loop returns without solving the rest.
    """
    best = RowOptimum(float("inf"), None, feasible=False)
    any_feasible = False
    for objective, constant in objectives:
        optimum = _solve(objective, constant, constraints, var_lower, var_upper,
                         integrality, encoding, time_limit)
        if not optimum.feasible:
            return RowOptimum(float("inf"), None, feasible=False)
        any_feasible = True
        if optimum.value < best.value or best.minimizer is None:
            best = optimum
    if not any_feasible:
        return RowOptimum(float("inf"), None, feasible=False)
    return best


def _objective_interval(objective: np.ndarray, constant: float,
                        var_lower: np.ndarray, var_upper: np.ndarray
                        ) -> Tuple[float, float]:
    """Interval bounds of ``objective @ v + constant`` over the var bounds."""
    positive = np.maximum(objective, 0.0)
    negative = np.minimum(objective, 0.0)
    lower = positive @ var_lower + negative @ var_upper + constant
    upper = positive @ var_upper + negative @ var_lower + constant
    return float(lower), float(upper)


def _minimise_rows_stacked(objectives: List[Tuple[np.ndarray, float]],
                           row_matrix: Optional[np.ndarray],
                           row_lower: Optional[np.ndarray],
                           row_upper: Optional[np.ndarray],
                           var_lower: np.ndarray, var_upper: np.ndarray,
                           encoding: _Encoding,
                           time_limit: Optional[float]) -> Optional[RowOptimum]:
    """All spec rows of one leaf in a single stacked ``milp`` call.

    The rows share one feasible region, so ``min_i min_v f_i(v)`` is the
    optimum of::

        minimise t  s.t.  t >= f_i(v) - M_i (1 - s_i),  sum_i s_i = 1

    with binary selectors ``s`` and ``M_i = U_i - L_min`` from interval
    arithmetic over the (finite) leaf variable bounds.  Returns ``None``
    when the stacking is inapplicable (unbounded big-M) or the solver fails
    without a verdict — callers then fall back to the per-row loop.
    """
    num_rows = len(objectives)
    if num_rows == 1:
        constraints = None
        if row_matrix is not None:
            constraints = optimize.LinearConstraint(
                sparse.csr_matrix(row_matrix), row_lower, row_upper)
        objective, constant = objectives[0]
        return _solve(objective, constant, constraints, var_lower, var_upper,
                      np.zeros(encoding.num_variables), encoding, time_limit)

    intervals = [_objective_interval(objective, constant, var_lower, var_upper)
                 for objective, constant in objectives]
    if not all(np.isfinite(bound) for pair in intervals for bound in pair):
        return None  # pragma: no cover - leaf variable bounds are finite
    lowest = min(lower for lower, _ in intervals)
    big_m = [upper - lowest for _, upper in intervals]

    num_base = encoding.num_variables
    t_index = num_base
    s_offset = num_base + 1
    total = num_base + 1 + num_rows

    blocks: List[np.ndarray] = []
    lowers: List[np.ndarray] = []
    uppers: List[np.ndarray] = []
    if row_matrix is not None and row_matrix.shape[0]:
        padded = np.zeros((row_matrix.shape[0], total))
        padded[:, :num_base] = row_matrix
        blocks.append(padded)
        lowers.append(row_lower)
        uppers.append(row_upper)
    # f_i(v) - t + M_i s_i <= M_i - k_i  (i.e. t >= f_i(v) - M_i (1 - s_i))
    selector_rows = np.zeros((num_rows, total))
    for index, (objective, constant) in enumerate(objectives):
        selector_rows[index, :num_base] = objective
        selector_rows[index, t_index] = -1.0
        selector_rows[index, s_offset + index] = big_m[index]
    blocks.append(selector_rows)
    lowers.append(np.full(num_rows, -np.inf))
    uppers.append(np.asarray([big_m[index] - objectives[index][1]
                              for index in range(num_rows)]))
    # Exactly one selected row.
    one_hot = np.zeros((1, total))
    one_hot[0, s_offset:] = 1.0
    blocks.append(one_hot)
    lowers.append(np.ones(1))
    uppers.append(np.ones(1))

    constraints = optimize.LinearConstraint(
        sparse.csr_matrix(np.vstack(blocks)),
        np.concatenate(lowers), np.concatenate(uppers))
    full_lower = np.concatenate([var_lower, [lowest], np.zeros(num_rows)])
    full_upper = np.concatenate([var_upper,
                                 [min(upper for _, upper in intervals)],
                                 np.ones(num_rows)])
    integrality = np.zeros(total)
    integrality[s_offset:] = 1
    options = {"mip_rel_gap": 0.0}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    result = optimize.milp(
        c=np.concatenate([np.zeros(num_base), [1.0], np.zeros(num_rows)]),
        constraints=[constraints],
        bounds=optimize.Bounds(full_lower, full_upper),
        integrality=integrality,
        options=options,
    )
    if result.status == 2:  # infeasible region: every row is infeasible
        return RowOptimum(float("inf"), None, feasible=False)
    if result.x is None:  # pragma: no cover - solver failure/time limit
        return None
    minimizer = np.asarray(result.x[:encoding.num_inputs])
    return RowOptimum(float(result.fun), minimizer, feasible=True)


def solve_leaf_lp_batch(network: LoweredNetwork, box: InputBox,
                        spec: LinearOutputSpec,
                        leaves: Sequence[Tuple[SplitAssignment, BoundReport]],
                        cache: Optional[LpCache] = None,
                        time_limit: Optional[float] = None,
                        fingerprint: Optional[str] = None,
                        stack_rows: Optional[bool] = None,
                        timings: Optional[PhaseTimings] = None) -> List[RowOptimum]:
    """Exactly resolve a batch of fully phase-decided sub-problems.

    ``leaves`` pairs each leaf's :class:`~repro.bounds.splits.SplitAssignment`
    with the :class:`~repro.bounds.report.BoundReport` of its bound analysis.
    Returns one :class:`RowOptimum` per leaf, in order, equal to what
    :func:`solve_leaf_lp` computes for each leaf alone.

    The batch is resolved in one pass over shared structure: the variable
    layout and the per-spec-row objective vectors are computed once; the
    constraint rows, which depend only on each layer's phase pattern, are
    built once per ``(layer, phase-pattern)`` group and reused by every leaf
    agreeing on that layer.  With ``stack_rows`` each leaf's spec rows are
    minimised through one stacked multi-objective ``milp`` call sharing
    that constraint matrix (see the module docstring); ``False`` keeps one
    call per row, and ``None`` (the default) stacks from
    :data:`STACK_ROWS_MIN` rows up — the measured crossover where one
    selector MILP beats per-row solves.  When a
    :class:`~repro.bounds.cache.LpCache` is
    supplied, leaves whose ``canonical_key()`` was already resolved — in an
    earlier call or earlier in this batch — are served from the cache
    (counted as hits) and never reach the solver.  ``fingerprint``
    (see :func:`problem_fingerprint`) scopes the cache keys so one cache
    can be shared across verification problems; ``timings`` accumulates the
    solver time under the ``"lp"`` phase.
    """
    if not leaves:
        return []
    results: List[Optional[RowOptimum]] = [None] * len(leaves)
    unsolved: List[int] = []        # indices that reach the solver
    aliases: List[Tuple[int, int]] = []  # (duplicate index, primary index)
    first_by_key = {}

    def cache_key(splits: SplitAssignment):
        canonical = splits.canonical_key()
        return canonical if fingerprint is None else (fingerprint, canonical)

    for index, (splits, _) in enumerate(leaves):
        key = splits.canonical_key()
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

    if unsolved:
        encoding = _build_encoding(network, (), with_binaries=False)
        integrality = np.zeros(encoding.num_variables)
        objectives = _row_objectives(network, spec, encoding)
        if stack_rows is None:
            stack_rows = len(objectives) >= STACK_ROWS_MIN
        row_blocks = {}  # (layer, phase pattern) -> shared row block
        for index in unsolved:
            splits, report = leaves[index]
            signature = _leaf_phase_signature(network, report, splits)
            blocks = []
            for layer, phases in enumerate(signature):
                block_key = (layer, phases)
                block = row_blocks.get(block_key)
                if block is None:
                    block = _layer_row_block(network, encoding, layer, phases)
                    row_blocks[block_key] = block
                blocks.append(block)
            if blocks and sum(block[0].shape[0] for block in blocks):
                row_matrix = np.vstack([block[0] for block in blocks])
                row_lower = np.concatenate([block[1] for block in blocks])
                row_upper = np.concatenate([block[2] for block in blocks])
            else:
                row_matrix = None
                row_lower = None
                row_upper = None
            var_lower, var_upper = _leaf_variable_bounds(box, report,
                                                         signature, encoding)
            with _lp_measure(timings):
                optimum = None
                if stack_rows:
                    optimum = _minimise_rows_stacked(
                        objectives, row_matrix, row_lower, row_upper,
                        var_lower, var_upper, encoding, time_limit)
                    # The selector relaxations only ever *under*-estimate
                    # (weaker constraints lower the minimum), so a
                    # non-negative stacked value soundly proves the leaf;
                    # a negative one may be a big-M/integrality-tolerance
                    # artefact and is confirmed by the exact per-row LPs.
                    if (optimum is not None and optimum.feasible
                            and optimum.value < 0.0):
                        optimum = None
                if optimum is None:
                    constraints = None
                    if row_matrix is not None:
                        constraints = optimize.LinearConstraint(
                            sparse.csr_matrix(row_matrix), row_lower, row_upper)
                    optimum = _minimise_rows(objectives, constraints,
                                             var_lower, var_upper, integrality,
                                             encoding, time_limit)
            results[index] = optimum
            if cache is not None:
                cache.record_solve()
                cache.put(cache_key(splits), optimum)

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
    leaf resolution:

    * infeasible region or non-negative minimum — the leaf is *verified*
      (``LEAF_VERIFIED``);
    * a negative minimum whose clipped minimiser is a real counterexample of
      the original problem — *falsified* (``LEAF_FALSIFIED``, with the
      validated point);
    * anything else (solver failure without a minimiser, or a spurious
      minimiser that does not reproduce the violation) — *unknown*
      (``LEAF_UNKNOWN``), which keeps completeness honest.
    """
    if not optimum.feasible or optimum.value >= 0.0:
        return LEAF_VERIFIED, None
    if optimum.minimizer is None:  # pragma: no cover - solver failure
        return LEAF_UNKNOWN, None
    point = spec.input_box.clip(optimum.minimizer)
    if spec.is_counterexample(network, point):
        return LEAF_FALSIFIED, point
    return LEAF_UNKNOWN, None  # pragma: no cover - numerical corner case


def solve_leaf_lp(network: LoweredNetwork, box: InputBox, spec: LinearOutputSpec,
                  splits: SplitAssignment, report: BoundReport,
                  time_limit: Optional[float] = None,
                  cache: Optional[LpCache] = None,
                  fingerprint: Optional[str] = None,
                  stack_rows: Optional[bool] = None,
                  timings: Optional[PhaseTimings] = None) -> RowOptimum:
    """Exactly resolve a fully phase-decided sub-problem with an LP.

    Returns the minimum specification margin over the sub-problem's feasible
    region along with its minimiser; an infeasible region yields ``+inf``
    (vacuously verified).  Every ReLU neuron must be stable or split.  A
    supplied :class:`~repro.bounds.cache.LpCache` memoises the optimum by
    the assignment's canonical key, optionally scoped by ``fingerprint``
    (see :func:`solve_leaf_lp_batch`, which also documents ``stack_rows``
    and ``timings``).
    """
    return solve_leaf_lp_batch(network, box, spec, [(splits, report)],
                               cache=cache, time_limit=time_limit,
                               fingerprint=fingerprint, stack_rows=stack_rows,
                               timings=timings)[0]


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
        if report.p_hat is not None and report.p_hat > 0.0:
            return VerificationResult(VerificationStatus.VERIFIED, self.name,
                                      elapsed_seconds=budget.elapsed_seconds,
                                      nodes_explored=budget.nodes,
                                      bound=float(report.p_hat))

        splits = SplitAssignment.empty()
        encoding, builder, var_lower, var_upper, has_unstable = _encode_problem(
            lowered, spec.input_box, report, splits, with_binaries=True)
        constraints = builder.to_constraint()
        integrality = np.zeros(encoding.num_variables)
        for index in encoding.binary_index.values():
            integrality[index] = 1

        worst = float("inf")
        counterexample = None
        for row_index in range(spec.output_spec.num_constraints):
            if budget.exhausted():
                return VerificationResult(VerificationStatus.TIMEOUT, self.name,
                                          elapsed_seconds=budget.elapsed_seconds,
                                          nodes_explored=budget.nodes)
            objective, constant = _objective_vector(
                lowered, spec.output_spec.coefficients[row_index], encoding)
            constant += float(spec.output_spec.offsets[row_index])
            time_limit = self.time_limit_per_row
            if budget.max_seconds is not None:
                remaining = max(budget.max_seconds - budget.elapsed_seconds, 0.1)
                time_limit = remaining if time_limit is None else min(time_limit, remaining)
            optimum = _solve(objective, constant, constraints, var_lower, var_upper,
                             integrality, encoding, time_limit)
            budget.charge_node()
            if not optimum.feasible:
                continue
            if optimum.minimizer is None:
                # Solver hit its limit without an incumbent: no sound verdict.
                return VerificationResult(VerificationStatus.TIMEOUT, self.name,
                                          elapsed_seconds=budget.elapsed_seconds,
                                          nodes_explored=budget.nodes)
            if optimum.value < worst:
                worst = optimum.value
                counterexample = optimum.minimizer
            if optimum.value < 0.0 and optimum.minimizer is not None:
                point = spec.input_box.clip(optimum.minimizer)
                return VerificationResult(VerificationStatus.FALSIFIED, self.name,
                                          elapsed_seconds=budget.elapsed_seconds,
                                          nodes_explored=budget.nodes,
                                          counterexample=point,
                                          bound=float(optimum.value))
        return VerificationResult(VerificationStatus.VERIFIED, self.name,
                                  elapsed_seconds=budget.elapsed_seconds,
                                  nodes_explored=budget.nodes,
                                  bound=None if worst == float("inf") else float(worst))
