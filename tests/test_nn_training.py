"""Tests for repro.nn.training."""

import pickle

import numpy as np
import pytest

from repro.datasets import make_blob_dataset, make_stripe_dataset
from repro.nn import dense_network
from repro.nn.layers import _FORWARD_CACHES
from repro.nn.training import (
    Trainer,
    TrainingConfig,
    accuracy,
    cross_entropy_loss,
    softmax,
    train_network,
)
from repro.nn.zoo import family


class TestSoftmax:
    def test_rows_sum_to_one(self):
        logits = np.random.default_rng(0).normal(size=(4, 5))
        np.testing.assert_allclose(softmax(logits).sum(axis=1), np.ones(4))

    def test_invariant_to_shift(self):
        logits = np.random.default_rng(1).normal(size=(3, 4))
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0), atol=1e-12)

    def test_numerically_stable_for_large_inputs(self):
        out = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(out).all()


class TestCrossEntropy:
    def test_perfect_prediction_has_low_loss(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        loss, _ = cross_entropy_loss(logits, np.array([0, 1]))
        assert loss < 1e-4

    def test_wrong_prediction_has_high_loss(self):
        logits = np.array([[10.0, -10.0]])
        loss, _ = cross_entropy_loss(logits, np.array([1]))
        assert loss > 5.0

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(3, 4))
        labels = np.array([0, 2, 3])
        _, grad = cross_entropy_loss(logits, labels)
        numeric = np.zeros_like(logits)
        eps = 1e-6
        for index in np.ndindex(logits.shape):
            perturbed = logits.copy()
            perturbed[index] += eps
            up, _ = cross_entropy_loss(perturbed, labels)
            perturbed[index] -= 2 * eps
            down, _ = cross_entropy_loss(perturbed, labels)
            numeric[index] = (up - down) / (2 * eps)
        np.testing.assert_allclose(grad, numeric, atol=1e-5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy_loss(np.zeros((2, 3)), np.array([0, 1, 2]))


class TestTrainingConfig:
    def test_rejects_bad_optimizer(self):
        with pytest.raises(ValueError):
            TrainingConfig(optimizer="rmsprop")

    def test_rejects_nonpositive_learning_rate(self):
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0.0)


class TestTrainer:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_blob_dataset(count=120, size=5, num_classes=3, seed=3)

    def test_loss_decreases(self, dataset):
        network = dense_network([25, 12, 3], seed=0)
        history = train_network(network, dataset.inputs, dataset.labels,
                                TrainingConfig(epochs=10, seed=0))
        assert history.losses[-1] < history.losses[0]

    def test_accuracy_improves_over_chance(self, dataset):
        network = dense_network([25, 12, 3], seed=0)
        train_network(network, dataset.inputs, dataset.labels,
                      TrainingConfig(epochs=12, seed=0))
        assert accuracy(network, dataset.inputs, dataset.labels) > 0.6

    def test_adam_optimizer_trains(self, dataset):
        network = dense_network([25, 10, 3], seed=1)
        history = train_network(network, dataset.inputs, dataset.labels,
                                TrainingConfig(epochs=8, optimizer="adam",
                                               learning_rate=0.01, seed=0))
        assert history.losses[-1] < history.losses[0]

    def test_zero_epochs_leaves_network_unchanged(self, dataset):
        network = dense_network([25, 8, 3], seed=2)
        before = network.forward(dataset.inputs[:4])
        history = train_network(network, dataset.inputs, dataset.labels,
                                TrainingConfig(epochs=0))
        after = network.forward(dataset.inputs[:4])
        np.testing.assert_allclose(before, after)
        assert history.final_loss is None

    def test_fit_invalidates_lowered_cache(self, dataset):
        network = dense_network([25, 8, 3], seed=3)
        stale = network.lowered()
        train_network(network, dataset.inputs, dataset.labels, TrainingConfig(epochs=1))
        assert network.lowered() is not stale

    def test_fit_forwards_batches_only_and_skips_the_input_gradient(self, dataset):
        network = dense_network([25, 8, 3], seed=6)
        first = network.layers[0]
        widths, input_gradients = [], []
        forward, backward = first.forward, first.backward
        first.forward = lambda x: widths.append(len(x)) or forward(x)
        first.backward = lambda grad: input_gradients.append(grad) or backward(grad)
        train_network(network, dataset.inputs, dataset.labels,
                      TrainingConfig(epochs=3, batch_size=16))
        # 120 samples: eight mini-batches per epoch and no full-dataset pass.
        assert len(widths) == 3 * 8 and max(widths) == 16
        assert input_gradients == []

    def test_mismatched_labels_rejected(self, dataset):
        network = dense_network([25, 8, 3], seed=4)
        with pytest.raises(ValueError):
            Trainer(network).fit(dataset.inputs, dataset.labels[:-1])

    def test_accuracy_helper_range(self, dataset):
        network = dense_network([25, 8, 3], seed=5)
        value = accuracy(network, dataset.inputs, dataset.labels)
        assert 0.0 <= value <= 1.0


class TestTrainedNetworkMemory:
    @pytest.fixture(scope="class")
    def trained(self):
        spec = family("CIFAR_BASE")
        dataset = make_stripe_dataset(count=64, size=8, channels=3, num_classes=4, seed=0)
        network = spec.build_network(dataset, 0)
        train_network(network, dataset.inputs, dataset.labels,
                      TrainingConfig(epochs=2, optimizer="adam", learning_rate=0.02))
        return network, dataset

    def test_trained_network_holds_no_forward_or_index_cache(self, trained):
        network, _ = trained
        for layer in network.layers:
            for name in _FORWARD_CACHES:
                assert getattr(layer, name, None) is None, (type(layer).__name__, name)

    def test_pickled_copy_forwards_bit_identically(self, trained):
        network, dataset = trained
        expected = network.forward(dataset.inputs)
        # The forward rebuilt the gather index; the pickle must leave it out.
        assert any(getattr(layer, "_gather", None) is not None for layer in network.layers)
        restored = pickle.loads(pickle.dumps(network))
        for layer in restored.layers:
            for name in _FORWARD_CACHES:
                assert getattr(layer, name, None) is None
        assert np.array_equal(restored.forward(dataset.inputs), expected)
