"""Local-robustness specification builders and radius sweeps.

The paper's 552 benchmark problems are all L∞ local-robustness properties:
for a reference input ``x0`` with label ``t``, every input within an L∞
ball of radius ``ε`` must be classified as ``t``.  In the linear form of
:class:`repro.specs.properties.LinearOutputSpec` this is the conjunction of
``y_t - y_j >= 0`` for every other class ``j``.

:func:`robustness_radius_sweep` verifies the same reference at a ladder of
radii while threading **one shared** :class:`~repro.bounds.cache.LpCache`
through every run: the verifiers scope their cache keys by the problem
fingerprint (network ⊕ box ⊕ spec), so a re-visited problem reuses its leaf
solves and nearby radii — whose boxes, and hence optima, differ — can never
collide.  This is the pattern robustness-radius searches (bisection over
ε, certified-accuracy curves) hit constantly: they re-verify the same
network at many nearby epsilons.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.bounds.cache import LpCache
from repro.specs.properties import InputBox, LinearOutputSpec, Specification
from repro.utils.validation import require


def robustness_output_spec(num_classes: int, label: int,
                           target: Optional[int] = None) -> LinearOutputSpec:
    """Output property "class ``label`` wins" as linear constraints.

    With ``target`` given, only the single constraint ``y_label - y_target >= 0``
    is produced (a targeted-robustness property); otherwise one constraint per
    competing class.
    """
    require(num_classes >= 2, "need at least two classes")
    require(0 <= label < num_classes, f"label {label} out of range")
    if target is not None:
        require(0 <= target < num_classes and target != label,
                f"target {target} must be a class different from the label")
        competitors: Sequence[int] = [target]
    else:
        competitors = [j for j in range(num_classes) if j != label]
    coefficients = np.zeros((len(competitors), num_classes))
    for row, competitor in enumerate(competitors):
        coefficients[row, label] = 1.0
        coefficients[row, competitor] = -1.0
    description = (f"class {label} beats class {target}" if target is not None
                   else f"class {label} beats all other classes")
    return LinearOutputSpec(coefficients, np.zeros(len(competitors)), description)


def local_robustness_spec(reference: np.ndarray, epsilon: float, label: int,
                          num_classes: int, target: Optional[int] = None,
                          domain_lower: float = 0.0, domain_upper: float = 1.0,
                          name: Optional[str] = None) -> Specification:
    """Build the L∞ local-robustness verification problem around ``reference``."""
    reference = np.asarray(reference, dtype=float).reshape(-1)
    input_box = InputBox.from_linf_ball(reference, epsilon, domain_lower, domain_upper)
    output_spec = robustness_output_spec(num_classes, label, target)
    if name is None:
        name = f"robustness(eps={epsilon:g}, label={label})"
    metadata = {
        "kind": "local_robustness",
        "epsilon": float(epsilon),
        "label": int(label),
        "target": None if target is None else int(target),
        "reference": reference.copy(),
    }
    return Specification(input_box, output_spec, name=name, metadata=metadata)


def robustness_radius_sweep(make_verifier: Callable[[LpCache], object],
                            network, reference: np.ndarray,
                            epsilons: Sequence[float], label: int,
                            num_classes: int,
                            budget=None,
                            shared_lp_cache: Optional[LpCache] = None,
                            target: Optional[int] = None,
                            domain_lower: float = 0.0,
                            domain_upper: float = 1.0
                            ) -> Tuple[List[Tuple[float, object]], LpCache]:
    """Verify one reference at several radii with a shared leaf-LP cache.

    ``make_verifier`` builds a fresh verifier from the shared
    :class:`~repro.bounds.cache.LpCache` (e.g. ``lambda cache:
    AbonnVerifier(lp_cache=cache)``); one verifier instance runs per
    epsilon so per-run state never leaks between radii, while the cache —
    keyed by ``(problem fingerprint, phase-row bytes)`` — persists across
    the sweep.  ``budget`` (a :class:`~repro.utils.timing.Budget`) is
    copied per run so every radius gets the full allowance.  Returns the
    per-epsilon ``(epsilon, VerificationResult)`` pairs in input order plus
    the cache, whose ``stats`` show the cross-run reuse.
    """
    require(len(epsilons) > 0, "epsilons must be non-empty")
    cache = shared_lp_cache if shared_lp_cache is not None else LpCache()
    results: List[Tuple[float, object]] = []
    for epsilon in epsilons:
        spec = local_robustness_spec(reference, float(epsilon), label,
                                     num_classes, target=target,
                                     domain_lower=domain_lower,
                                     domain_upper=domain_upper)
        verifier = make_verifier(cache)
        # Start the per-run copy explicitly: ``make_verifier`` may build a
        # custom verifier that consumes the budget directly (without the
        # ``make_budget`` copy-and-start), and an unstarted wall clock would
        # otherwise only begin at its first ``exhausted()`` check.
        run_budget = budget.copy().start() if budget is not None else None
        results.append((float(epsilon),
                        verifier.verify(network, spec, run_budget)))
    return results, cache


def robustness_radius_sweep_service(network, reference: np.ndarray,
                                    epsilons: Sequence[float], label: int,
                                    num_classes: int,
                                    budget=None,
                                    service=None,
                                    priority: int = 0,
                                    deadline_seconds: Optional[float] = None,
                                    target: Optional[int] = None,
                                    domain_lower: float = 0.0,
                                    domain_upper: float = 1.0):
    """Run a radius sweep through the verification service.

    The service generalises :func:`robustness_radius_sweep`: each epsilon
    becomes one job, sharded and cached by problem fingerprint, so repeated
    epsilons (bisection revisits, concurrent sweeps over one model) reuse
    each other's leaf-LP and bound work and the whole sweep shares one
    warm-model digest.  ``service`` accepts an existing
    :class:`~repro.service.scheduler.VerificationService` (jobs join its
    pool and caches, on whatever transport it runs; the caller owns its
    ``shutdown()``); by default a fresh cooperative one is built.  Failed
    jobs raise :class:`RuntimeError` — a sweep has no meaningful partial
    answer.  Returns the per-epsilon
    ``(epsilon, VerificationResult)`` pairs in input order plus the
    service, whose ``stats()`` expose the cross-request reuse.
    """
    require(len(epsilons) > 0, "epsilons must be non-empty")
    # Imported lazily: ``repro.service`` sits above the verifiers, which
    # import this module — a top-level import would be circular.
    from repro.service import VerificationService

    if service is None:
        service = VerificationService()
    job_ids = []
    for epsilon in epsilons:
        spec = local_robustness_spec(reference, float(epsilon), label,
                                     num_classes, target=target,
                                     domain_lower=domain_lower,
                                     domain_upper=domain_upper)
        run_budget = budget.copy().start() if budget is not None else None
        job_ids.append(service.submit(network, spec, budget=run_budget,
                                      priority=priority,
                                      deadline_seconds=deadline_seconds))
    wanted = set(job_ids)
    for job_result in service.as_completed():
        if job_result.job_id in wanted and not job_result.ok:
            raise RuntimeError(
                f"sweep job {job_result.job_id} failed: {job_result.error}")
    results: List[Tuple[float, object]] = []
    for epsilon, job_id in zip(epsilons, job_ids):
        results.append((float(epsilon), service.result(job_id).result))
    return results, service
