"""Tests for repro.experiments.suite (benchmark generation, Table I data)."""

import numpy as np
import pytest

from repro.experiments.suite import (
    SuiteConfig,
    generate_suite,
    root_certified_radius,
    table1_rows,
)
from repro.nn import dense_network
from repro.nn.zoo import FAMILY_ORDER, build_trained_model
from repro.specs.robustness import local_robustness_spec
from repro.verifiers.appver import ApproximateVerifier


@pytest.fixture(scope="module")
def small_suite():
    config = SuiteConfig(families=("MNIST_L2",), instances_per_family=4, seed=0,
                         search_steps=6)
    return generate_suite(config)


class TestSuiteGeneration:
    def test_instance_count_respected(self, small_suite):
        assert len(small_suite) <= 4
        assert len(small_suite) >= 1

    def test_families(self, small_suite):
        assert small_suite.families == ("MNIST_L2",)
        assert set(small_suite.counts()) == {"MNIST_L2"}

    def test_instances_are_not_root_trivial(self, small_suite):
        for instance in small_suite.instances:
            network = small_suite.network_for(instance)
            outcome = ApproximateVerifier(network, instance.spec).evaluate()
            assert not outcome.verified
            assert not outcome.falsified

    def test_instance_ids_unique(self, small_suite):
        ids = [instance.instance_id for instance in small_suite.instances]
        assert len(ids) == len(set(ids))

    def test_specs_reference_correctly_classified_inputs(self, small_suite):
        for instance in small_suite.instances:
            network = small_suite.network_for(instance)
            dataset = small_suite.datasets[instance.family]
            image, label = dataset.sample(instance.reference_index)
            assert label == instance.label
            assert int(network.predict(image.reshape(1, -1))[0]) == label

    def test_deterministic_for_seed(self):
        config = SuiteConfig(families=("MNIST_L2",), instances_per_family=2, seed=3,
                             search_steps=5)
        first = generate_suite(config)
        second = generate_suite(config)
        assert [i.instance_id for i in first.instances] == \
            [i.instance_id for i in second.instances]
        assert [i.epsilon for i in first.instances] == \
            pytest.approx([i.epsilon for i in second.instances])

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SuiteConfig(instances_per_family=0)
        with pytest.raises(ValueError):
            SuiteConfig(search_steps=2)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            generate_suite(SuiteConfig(families=("MNIST_L8",), instances_per_family=1))


def appver_root_radius(network, reference, label, num_classes, upper=0.5, steps=10):
    """The oracle: the same bisection with one ``ApproximateVerifier`` per step."""
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


class TestRootCertifiedRadius:
    @pytest.mark.parametrize("name", FAMILY_ORDER)
    def test_radius_matches_the_appver_bisection(self, name):
        network, dataset = build_trained_model(name, seed=0)
        correct = np.nonzero(network.predict(dataset.inputs) == dataset.labels)[0][:8]
        assert len(correct) == 8
        radii = []
        for index in correct:
            image, label = dataset.sample(int(index))
            radius = root_certified_radius(network, image.reshape(-1), label,
                                           dataset.num_classes)
            assert radius == appver_root_radius(network, image.reshape(-1), label,
                                                dataset.num_classes)
            radii.append(radius)
        # The bisection moved: the references are certified at some radius
        # short of the upper end.
        assert 0.0 < max(radii) < 0.5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_root_bounds_raise(self):
        network = dense_network([4, 6, 6, 3], seed=0)
        for dense in network.layers[0], network.layers[2]:
            dense.weight *= 1e200
        network.invalidate_lowered()
        reference = np.full(4, 0.5)
        with pytest.raises(ValueError, match="finite"):
            appver_root_radius(network, reference, 0, 3)
        with pytest.raises(ValueError, match="finite"):
            root_certified_radius(network, reference, 0, 3)

    def test_radius_is_certified(self, small_suite):
        family = small_suite.families[0]
        network = small_suite.networks[family]
        dataset = small_suite.datasets[family]
        image, label = dataset.sample(0)
        if int(network.predict(image.reshape(1, -1))[0]) != label:
            pytest.skip("reference not classified correctly")
        radius = root_certified_radius(network, image.reshape(-1), label,
                                       dataset.num_classes, steps=6)
        if radius > 0:
            spec = local_robustness_spec(image.reshape(-1), radius * 0.95, label,
                                         dataset.num_classes)
            assert ApproximateVerifier(network, spec).evaluate().verified


class TestTable1:
    def test_rows_have_expected_columns(self, small_suite):
        rows = table1_rows(small_suite)
        assert len(rows) == 1
        row = rows[0]
        assert row["model"] == "MNIST_L2"
        assert row["neurons"] == small_suite.networks["MNIST_L2"].num_relu_neurons
        assert row["instances"] == len(small_suite)
