"""Adversarial-attack substrate: FGSM and multi-restart PGD falsification.

Attacks search for concrete counterexamples by minimising the specification
margin with (signed) gradient steps projected onto the input box.  They play
two roles in the library, mirroring how the paper's baselines use them:

* quick falsification before/while running expensive branch and bound
  (used by the αβ-CROWN-like baseline);
* validation or sharpening of the counterexample candidates returned by the
  bound-propagation verifiers.

The search runs on the network's canonical affine/ReLU form
(:meth:`~repro.nn.network.Network.lowered`, memoised on the network): one
matrix product per layer forward and one per layer back, with no im2col and
no weight gradients.  :func:`pgd_attack` runs its restarts in lockstep: the
restarts' current points are the rows of one ``(R, d)`` array, and each PGD
step is one batched forward and backward pass for all of them.  The result
is the one a restart-by-restart loop returns: restart ``r`` wins only if
every earlier restart finished without a counterexample, so the attack
stops early only when the first restart finds one.

The lowered form can differ from the layer-by-layer network in the last few
ulps (``Conv2d.to_affine`` builds its matrix by differencing two forwards),
so every row whose lowered margin is negative is re-checked with a forward
pass of the real network (:meth:`~repro.specs.properties.Specification.margin`)
and only a confirmed point counts as a counterexample.  A batched GEMM also
sums in a different order than a one-row one, so a restart's margins may
differ from a one-row evaluation of the same point in the last bits; that
changes a step only where a margin or a gradient entry is within rounding of
zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.nn.network import Network
from repro.specs.properties import LinearOutputSpec, Specification
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import require


@dataclass(frozen=True)
class AttackConfig:
    """Hyperparameters of the PGD attack."""

    steps: int = 30
    restarts: int = 3
    step_fraction: float = 0.15  # step size as a fraction of the box radius
    seed: int = 0

    def __post_init__(self) -> None:
        require(self.steps >= 1, "steps must be positive")
        require(self.restarts >= 1, "restarts must be positive")
        require(self.step_fraction > 0, "step_fraction must be positive")


@dataclass
class AttackResult:
    """Best input found by an attack and its specification margin."""

    best_input: np.ndarray
    best_margin: float
    iterations: int

    @property
    def is_counterexample(self) -> bool:
        """Whether the best input violates the specification (margin < 0)."""
        return self.best_margin < 0.0


def _margins_and_gradients(network: Network, spec: LinearOutputSpec,
                           points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Margins ``(B,)`` and input gradients ``(B, input_dim)`` of ``(B, d)`` points.

    One batched forward and backward pass on ``network.lowered()``; each
    row's gradient is that of its active (minimal) spec row.
    """
    lowered = network.lowered()
    # Row-vector products, as in Dense.forward/backward: on a network of
    # unmerged Dense layers the lowered margin is bitwise the real one.
    h = points
    masks = []
    for weight, bias in zip(lowered.weights[:-1], lowered.biases[:-1]):
        z = h @ weight.T + bias
        masks.append(z > 0)
        h = np.maximum(z, 0.0)
    output = h @ lowered.weights[-1].T + lowered.biases[-1]
    values = output @ spec.coefficients.T + spec.offsets
    worst_rows = np.argmin(values, axis=1)
    grad = spec.coefficients[worst_rows] @ lowered.weights[-1]
    for weight, mask in zip(reversed(lowered.weights[:-1]), reversed(masks)):
        grad = (grad * mask) @ weight
    return values[np.arange(len(values)), worst_rows], grad


def margin_and_gradient(network: Network, spec: LinearOutputSpec,
                        point: np.ndarray) -> Tuple[float, np.ndarray]:
    """Specification margin at ``point`` and its gradient w.r.t. the input.

    The margin is ``min_i (C_i @ f(x) + d_i)``; its gradient is the gradient
    of the active (minimal) row.  Both are computed on ``network.lowered()``
    rather than the layer-by-layer network, so the margin may differ from
    :meth:`~repro.specs.properties.Specification.margin` in the last few
    ulps.  At ``z = 0`` the ReLU derivative is taken as 0, as in
    :meth:`repro.nn.layers.ReLU.backward`.  The gradient is flat,
    ``(input_dim,)``.  This is the one-row case of the batched kernel
    :func:`pgd_attack` steps its restarts with.
    """
    margins, gradients = _margins_and_gradients(
        network, spec, np.asarray(point, dtype=float).reshape(1, -1))
    return float(margins[0]), gradients[0]


def _checked_margins_and_gradients(network: Network, spec: Specification,
                                   points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`_margins_and_gradients` with negative margins re-checked for real.

    A violation on the lowered form only counts once the layer-by-layer
    network confirms it, so the real network's margin replaces each negative
    lowered one: a point that violates only on the lowered form is kept as a
    non-violation.
    """
    margins, gradients = _margins_and_gradients(network, spec.output_spec, points)
    negative = margins < 0.0
    if negative.any():
        for row in np.flatnonzero(negative):
            margins[row] = spec.margin(network, points[row])
    return margins, gradients


def fgsm(network: Network, spec: Specification,
         start: Optional[np.ndarray] = None) -> AttackResult:
    """Single signed-gradient step from the box centre (or ``start``).

    Margins are re-checked on the real network exactly as in
    :func:`pgd_attack`.
    """
    box = spec.input_box
    point = box.center if start is None else box.clip(start)
    margins, gradients = _checked_margins_and_gradients(network, spec, point[None])
    stepped = box.clip(point - np.sign(gradients[0]) * (box.upper - box.lower))
    stepped_margins, _ = _checked_margins_and_gradients(network, spec, stepped[None])
    if stepped_margins[0] < margins[0]:
        return AttackResult(stepped, float(stepped_margins[0]), 1)
    return AttackResult(point, float(margins[0]), 1)


def pgd_attack(network: Network, spec: Specification,
               config: Optional[AttackConfig] = None,
               start: Optional[np.ndarray] = None,
               rng: SeedLike = None) -> AttackResult:
    """Multi-restart projected gradient descent on the specification margin.

    Restarts begin at ``start`` (when given), the box centre, then one
    ``box.sample(rng, 1)`` draw each, ``config.restarts`` in all.  Each
    takes ``config.steps`` signed steps of ``config.step_fraction`` times
    the box width, projected onto the box, and evaluates its point before
    every step and once after the last.  The restarts advance in lockstep:
    each of the at most ``steps + 1`` rounds is one batched pass over the
    rows still running, and the box centre is evaluated once, in the first
    round, whether or not it is a restart.

    The result is that of running the restarts one after another.  A
    restart whose margin turns negative during its steps wins only if every
    earlier restart finished without a counterexample, so its success drops
    every later restart, and the search stops early once the first restart
    succeeds.  Otherwise the best point so far (centre first, first minimum
    kept) is returned after the first restart that leaves it negative, or
    after the last restart.  ``iterations`` counts that loop's evaluations.

    Every negative lowered margin is re-checked on the real network; only a
    confirmed point is a counterexample, with its real margin as
    ``best_margin``.  An unconfirmed point keeps its real margin and its
    restart continues.  Without a counterexample ``best_margin`` is the
    lowered form's margin.  The returned input is always inside the box.
    """
    config = config or AttackConfig()
    rng = as_rng(config.seed if rng is None else rng)
    box = spec.input_box
    step = config.step_fraction * np.maximum(box.upper - box.lower, 1e-12)
    steps, restarts = config.steps, config.restarts

    # Row r is restart r.  The centre row follows ``start``; with a start
    # and one restart it is an extra row evaluated in the first round only.
    starts = [] if start is None else [box.clip(start)]
    centre = len(starts)
    starts.append(box.center)
    while len(starts) < restarts:
        starts.append(box.sample(rng, 1)[0])
    points = np.array(starts)
    trajectory, margins_by_round = [], []
    count = restarts  # rows [0, count) run on: none of them has succeeded
    for round_index in range(steps + 1):
        margins, gradients = _checked_margins_and_gradients(network, spec, points)
        trajectory.append(points)
        margins_by_round.append(margins.tolist())
        if round_index == steps:
            break
        successes = margins[:count] < 0.0
        if successes.any():
            # The first success decides every later restart.
            count = int(successes.argmax())
            if not count:
                break
        points = points[:count] - step * np.sign(gradients[:count])
        np.minimum(np.maximum(points, box.lower, out=points), box.upper, out=points)

    # Replay the restart-by-restart loop over the recorded rounds.
    best_margin, best_point = margins_by_round[0][centre], starts[centre]
    iterations = 0
    for row in range(restarts):
        for round_index, (round_points, round_margins) in enumerate(
                zip(trajectory, margins_by_round)):
            margin = round_margins[row]
            iterations += 1
            if margin < best_margin:
                best_margin, best_point = margin, round_points[row]
            if margin < 0.0 and round_index < steps:
                return AttackResult(round_points[row], margin, iterations)
        if best_margin < 0.0:
            break
    return AttackResult(best_point, best_margin, iterations)


def empirical_robustness_radius(network: Network, reference: np.ndarray, label: int,
                                num_classes: int, upper: float = 0.5,
                                tolerance: float = 1e-3,
                                config: Optional[AttackConfig] = None) -> float:
    """Binary-search the smallest ε at which PGD finds an adversarial example.

    Used by the benchmark-suite generator to place instance perturbation radii
    in the interesting regime between "trivially certified" and "trivially
    falsified".
    """
    from repro.specs.robustness import local_robustness_spec

    low, high = 0.0, float(upper)
    spec_high = local_robustness_spec(reference, high, label, num_classes)
    if not pgd_attack(network, spec_high, config).is_counterexample:
        return high
    while high - low > tolerance:
        mid = 0.5 * (low + high)
        spec = local_robustness_spec(reference, mid, label, num_classes)
        if pgd_attack(network, spec, config).is_counterexample:
            high = mid
        else:
            low = mid
    return high
