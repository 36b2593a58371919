"""Benchmark-suite generation (the analogue of the paper's 552 problems).

The paper evaluates on L∞ local-robustness problems drawn from VNN-COMP
benchmarks and explicitly selects "meaningful problems that are neither too
easy nor too hard to solve" (§V-A, Fig. 3).  Without the original data we
reproduce that *selection methodology* rather than the exact problems:

for every model family we take correctly-classified reference inputs and
place the perturbation radius ε of each instance inside the interesting
regime, which is bracketed by

* ``eps_root`` — the largest ε the approximated verifier certifies at the
  root (below this the problem is trivially verified, no BaB needed), and
* ``eps_attack`` — the smallest ε at which a PGD attack succeeds (well above
  this the problem is trivially falsified).

Instances are sampled on a grid spanning that bracket, so the suite contains
a mixture of certified, violated and budget-limited problems whose BaB trees
have the non-trivial size distribution reported in Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datasets.synthetic import Dataset
from repro.nn.network import Network
from repro.nn.zoo import FAMILY_ORDER, build_trained_model, family
from repro.specs.properties import Specification
from repro.specs.robustness import local_robustness_spec
from repro.utils.rng import as_rng, derive_seed
from repro.utils.validation import require
from repro.verifiers.appver import ApproximateVerifier
from repro.verifiers.attack import AttackConfig, empirical_robustness_radius


@dataclass(frozen=True)
class VerificationInstance:
    """One verification problem of the benchmark suite."""

    instance_id: str
    family: str
    spec: Specification
    epsilon: float
    label: int
    reference_index: int

    def __str__(self) -> str:
        return f"{self.instance_id} (eps={self.epsilon:.4f}, label={self.label})"


@dataclass
class BenchmarkSuite:
    """A set of verification instances over trained model-family networks."""

    instances: List[VerificationInstance]
    networks: Dict[str, Network]
    datasets: Dict[str, Dataset]
    seed: int = 0

    @property
    def families(self) -> Tuple[str, ...]:
        ordered = [name for name in FAMILY_ORDER if name in self.networks]
        extra = sorted(set(self.networks) - set(ordered))
        return tuple(ordered + extra)

    def by_family(self, name: str) -> List[VerificationInstance]:
        return [instance for instance in self.instances if instance.family == name]

    def network_for(self, instance: VerificationInstance) -> Network:
        return self.networks[instance.family]

    def counts(self) -> Dict[str, int]:
        return {name: len(self.by_family(name)) for name in self.families}

    def __len__(self) -> int:
        return len(self.instances)


@dataclass(frozen=True)
class SuiteConfig:
    """Parameters of the suite generator.

    The defaults produce a laptop-scale suite (tens of problems); the paper's
    552-problem scale can be approached by raising ``instances_per_family``.
    """

    families: Tuple[str, ...] = FAMILY_ORDER
    instances_per_family: int = 10
    seed: int = 0
    #: Number of ε values sampled per reference input.
    epsilons_per_reference: int = 2
    #: The sampled ε span, as multiples of the root-certified radius
    #: (lower end) and of the attack radius (upper end).
    lower_margin: float = 1.05
    upper_margin: float = 1.1
    #: Binary-search resolution for the bracketing radii.
    search_steps: int = 10
    attack_config: AttackConfig = field(default_factory=lambda: AttackConfig(steps=20,
                                                                             restarts=2))

    def __post_init__(self) -> None:
        require(self.instances_per_family >= 1, "instances_per_family must be positive")
        require(self.epsilons_per_reference >= 1, "epsilons_per_reference must be positive")
        require(self.search_steps >= 4, "search_steps must be at least 4")


def root_certified_radius(network: Network, reference: np.ndarray, label: int,
                          num_classes: int, upper: float = 0.5,
                          steps: int = 10) -> float:
    """Largest ε (up to ``upper``) certified by the root DeepPoly bound."""
    reference = np.asarray(reference, dtype=float).reshape(-1)
    spec_upper = local_robustness_spec(reference, upper, label, num_classes)
    if ApproximateVerifier(network, spec_upper).evaluate().verified:
        return float(upper)
    low, high = 0.0, float(upper)
    for _ in range(steps):
        mid = 0.5 * (low + high)
        spec = local_robustness_spec(reference, mid, label, num_classes)
        if ApproximateVerifier(network, spec).evaluate().verified:
            low = mid
        else:
            high = mid
    return low


def _instance_epsilons(eps_root: float, eps_attack: float, count: int,
                       config: SuiteConfig, rng: np.random.Generator) -> List[float]:
    """Sample candidate ε values across the interesting bracket of one reference.

    The bracket runs from just above the root-certified radius to just above
    the empirical attack radius.  Candidates are spread over the whole
    bracket (with small jitter); the caller filters out the ones that turn
    out to be trivial (root-verified or root-falsified), so several
    candidates per requested instance are produced.
    """
    lower = max(eps_root * config.lower_margin, 1e-4)
    upper = max(eps_attack * config.upper_margin, lower * 1.25)
    candidates = max(count * 3, 4)
    positions = np.linspace(0.1, 1.02, candidates) + rng.uniform(-0.03, 0.03, candidates)
    positions = np.clip(positions, 0.02, 1.05)
    # Interleave candidates from the two ends of the bracket so the accepted
    # instances mix near-boundary (likely violated) and low-ε (likely
    # certified) problems, mirroring the paper's mixed benchmark selection.
    order: List[int] = []
    left, right = 0, len(positions) - 1
    while left <= right:
        order.append(right)
        if left != right:
            order.append(left)
        left += 1
        right -= 1
    return [float(lower + positions[i] * (upper - lower)) for i in order]


def generate_suite(config: Optional[SuiteConfig] = None) -> BenchmarkSuite:
    """Generate a benchmark suite according to ``config``."""
    config = config or SuiteConfig()
    rng = as_rng(config.seed)
    networks: Dict[str, Network] = {}
    datasets: Dict[str, Dataset] = {}
    instances: List[VerificationInstance] = []

    for family_name in config.families:
        family(family_name)  # validates the name early
        network, dataset = build_trained_model(family_name, seed=config.seed)
        networks[family_name] = network
        datasets[family_name] = dataset
        family_rng = as_rng(derive_seed(config.seed, family_name))
        instances.extend(_family_instances(family_name, network, dataset,
                                           config, family_rng))
    return BenchmarkSuite(instances, networks, datasets, seed=config.seed)


def _family_instances(family_name: str, network: Network, dataset: Dataset,
                      config: SuiteConfig, rng: np.random.Generator
                      ) -> List[VerificationInstance]:
    predictions = network.predict(dataset.inputs)
    correct = np.nonzero(predictions == dataset.labels)[0]
    rng.shuffle(correct)
    instances: List[VerificationInstance] = []

    for reference_index in correct:
        if len(instances) >= config.instances_per_family:
            break
        image, label = dataset.sample(int(reference_index))
        reference = image.reshape(-1)
        eps_root = root_certified_radius(network, reference, label,
                                         dataset.num_classes, steps=config.search_steps)
        eps_attack = empirical_robustness_radius(network, reference, label,
                                                 dataset.num_classes,
                                                 upper=0.5,
                                                 tolerance=0.5 / 2 ** config.search_steps,
                                                 config=config.attack_config)
        remaining = config.instances_per_family - len(instances)
        count = min(config.epsilons_per_reference, remaining)
        accepted_for_reference = 0
        for epsilon in _instance_epsilons(eps_root, eps_attack, count, config, rng):
            instance_id = f"{family_name.lower()}_{reference_index:03d}_{len(instances):03d}"
            spec = local_robustness_spec(reference, epsilon, label, dataset.num_classes,
                                         name=instance_id)
            # The paper keeps "meaningful problems that are neither too easy
            # nor too hard": drop problems the root bound already settles,
            # either by certifying them or with an immediately valid
            # counterexample.
            outcome = ApproximateVerifier(network, spec).evaluate()
            if outcome.verified or outcome.falsified:
                continue
            instances.append(VerificationInstance(instance_id=instance_id,
                                                  family=family_name, spec=spec,
                                                  epsilon=float(epsilon), label=int(label),
                                                  reference_index=int(reference_index)))
            accepted_for_reference += 1
            if len(instances) >= config.instances_per_family:
                break
            if accepted_for_reference >= count:
                break
    return instances


def table1_rows(suite: BenchmarkSuite) -> List[Dict[str, object]]:
    """The rows of Table I: model, dataset, architecture, #neurons, #instances."""
    rows = []
    for family_name in suite.families:
        network = suite.networks[family_name]
        dataset = suite.datasets[family_name]
        rows.append({
            "model": family_name,
            "dataset": dataset.name,
            "architecture": family(family_name).architecture,
            "neurons": network.num_relu_neurons,
            "instances": len(suite.by_family(family_name)),
        })
    return rows
