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
matrix-vector product per layer forward and one per layer back, with no
im2col and no weight gradients.  The lowered form can differ from the
layer-by-layer network in the last few ulps (``Conv2d.to_affine`` builds
its matrix by differencing two forwards), so :func:`pgd_attack` reports a
counterexample only after re-checking it with a forward pass of the real
network (:meth:`~repro.specs.properties.Specification.margin`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.nn.network import Network
from repro.specs.properties import InputBox, LinearOutputSpec, Specification
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


def margin_and_gradient(network: Network, spec: LinearOutputSpec,
                        point: np.ndarray) -> Tuple[float, np.ndarray]:
    """Specification margin at ``point`` and its gradient w.r.t. the input.

    The margin is ``min_i (C_i @ f(x) + d_i)``; its gradient is the gradient
    of the active (minimal) row.  Both are computed on ``network.lowered()``
    rather than the layer-by-layer network, so the margin may differ from
    :meth:`~repro.specs.properties.Specification.margin` in the last few
    ulps.  At ``z = 0`` the ReLU derivative is taken as 0, as in
    :meth:`repro.nn.layers.ReLU.backward`.  The gradient is flat,
    ``(input_dim,)``.
    """
    lowered = network.lowered()
    # Row-vector products, as in Dense.forward/backward: on a network of
    # unmerged Dense layers the lowered margin is bitwise the real one.
    h = np.asarray(point, dtype=float).reshape(1, -1)
    masks = []
    for weight, bias in zip(lowered.weights[:-1], lowered.biases[:-1]):
        z = h @ weight.T + bias
        masks.append(z > 0)
        h = np.maximum(z, 0.0)
    output = (h @ lowered.weights[-1].T + lowered.biases[-1])[0]
    values = spec.coefficients @ output + spec.offsets
    worst_row = int(np.argmin(values))
    grad = spec.coefficients[worst_row:worst_row + 1] @ lowered.weights[-1]
    for weight, mask in zip(reversed(lowered.weights[:-1]), reversed(masks)):
        grad = (grad * mask) @ weight
    return float(values[worst_row]), grad.reshape(-1)


def _checked_margin_and_gradient(network: Network, spec: Specification,
                                 point: np.ndarray) -> Tuple[float, np.ndarray]:
    """:func:`margin_and_gradient` with a negative margin re-checked for real.

    A violation on the lowered form only counts once the layer-by-layer
    network confirms it, so the real network's margin replaces a negative
    lowered one: a point that violates only on the lowered form is kept as a
    non-violation.
    """
    margin, gradient = margin_and_gradient(network, spec.output_spec, point)
    if margin < 0.0:
        margin = spec.margin(network, point)
    return margin, gradient


def fgsm(network: Network, spec: Specification,
         start: Optional[np.ndarray] = None) -> AttackResult:
    """Single signed-gradient step from the box centre (or ``start``).

    Margins are re-checked on the real network exactly as in
    :func:`pgd_attack`.
    """
    box = spec.input_box
    point = box.center if start is None else box.clip(start)
    margin, gradient = _checked_margin_and_gradient(network, spec, point)
    stepped = box.clip(point - np.sign(gradient) * (box.upper - box.lower))
    stepped_margin, _ = _checked_margin_and_gradient(network, spec, stepped)
    if stepped_margin < margin:
        return AttackResult(stepped, stepped_margin, 1)
    return AttackResult(point, margin, 1)


def pgd_attack(network: Network, spec: Specification,
               config: Optional[AttackConfig] = None,
               start: Optional[np.ndarray] = None,
               rng: SeedLike = None) -> AttackResult:
    """Multi-restart projected gradient descent on the specification margin.

    Returns the input with the lowest margin found (always inside the box).
    The search runs on the lowered form (:func:`margin_and_gradient`); every
    point whose lowered margin is negative is re-checked on the real
    network, and only a confirmed point ends the search as a counterexample,
    with the real network's margin as ``best_margin``.  An unconfirmed point
    keeps its (non-negative) real margin and the search continues.  When no
    counterexample is found, ``best_margin`` is the lowered form's margin.
    """
    config = config or AttackConfig()
    rng = as_rng(config.seed if rng is None else rng)
    box = spec.input_box
    step = config.step_fraction * np.maximum(box.upper - box.lower, 1e-12)

    best_point = box.center
    best_margin, _ = _checked_margin_and_gradient(network, spec, best_point)
    iterations = 0

    starts = []
    if start is not None:
        starts.append(box.clip(start))
    starts.append(box.center)
    while len(starts) < config.restarts:
        starts.append(box.sample(rng, 1)[0])

    for start_point in starts[:config.restarts]:
        point = start_point.copy()
        for _ in range(config.steps):
            margin, gradient = _checked_margin_and_gradient(network, spec, point)
            iterations += 1
            if margin < best_margin:
                best_margin, best_point = margin, point.copy()
            if margin < 0.0:
                return AttackResult(point.copy(), margin, iterations)
            point = box.clip(point - step * np.sign(gradient))
        margin, _ = _checked_margin_and_gradient(network, spec, point)
        iterations += 1
        if margin < best_margin:
            best_margin, best_point = margin, point.copy()
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
