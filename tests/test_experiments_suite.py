"""Tests for repro.experiments.suite (benchmark generation, Table I data)."""

import pytest

from repro.experiments.suite import (
    SuiteConfig,
    generate_suite,
    root_certified_radius,
    table1_rows,
)
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


class TestRootCertifiedRadius:
    def test_radius_is_certified(self, small_suite):
        from repro.specs.robustness import local_robustness_spec

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
