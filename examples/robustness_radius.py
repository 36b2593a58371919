"""Compute certified and empirical robustness radii for a trained model.

Run with::

    python examples/robustness_radius.py

For several test inputs of the CIFAR-like model family the script reports

* the radius certified by the root DeepPoly bound alone,
* the radius certified by complete verification with ABONN (binary search),
* the empirical radius at which a PGD attack finds an adversarial example.

The gap between the first two columns is exactly the value added by branch
and bound; the gap between the last two brackets the true robustness radius.
"""

from repro import AbonnVerifier, Budget, local_robustness_spec
from repro.experiments import root_certified_radius
from repro.nn import build_trained_model
from repro.verifiers import AttackConfig, empirical_robustness_radius
from repro.verifiers.result import VerificationStatus


def certified_radius_with_abonn(network, reference, label, num_classes,
                                upper: float, steps: int = 8) -> float:
    """Largest radius (up to ``upper``) that ABONN certifies within its budget."""
    low, high = 0.0, upper
    for _ in range(steps):
        mid = 0.5 * (low + high)
        spec = local_robustness_spec(reference, mid, label, num_classes)
        result = AbonnVerifier().verify(network, spec,
                                        Budget(max_nodes=800, max_seconds=20))
        if result.status == VerificationStatus.VERIFIED:
            low = mid
        else:
            high = mid
    return low


def main() -> None:
    network, dataset = build_trained_model("CIFAR_BASE", seed=0)
    print(f"model: {network.name}, {network.num_relu_neurons} ReLU neurons\n")
    print(f"{'input':>6} {'label':>5} {'root-certified':>15} "
          f"{'ABONN-certified':>16} {'attack radius':>14}")

    shown = 0
    for index in range(dataset.count):
        image, label = dataset.sample(index)
        reference = image.reshape(-1)
        if int(network.predict(reference.reshape(1, -1))[0]) != label:
            continue
        root_radius = root_certified_radius(network, reference, label,
                                            dataset.num_classes, steps=8)
        attack_radius = empirical_robustness_radius(network, reference, label,
                                                    dataset.num_classes, upper=0.5,
                                                    config=AttackConfig(steps=30,
                                                                        restarts=3))
        abonn_radius = certified_radius_with_abonn(network, reference, label,
                                                   dataset.num_classes,
                                                   upper=attack_radius)
        print(f"{index:>6} {label:>5} {root_radius:>15.4f} "
              f"{abonn_radius:>16.4f} {attack_radius:>14.4f}")
        shown += 1
        if shown >= 5:
            break


if __name__ == "__main__":
    main()
