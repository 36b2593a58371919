"""Tests for repro.nn.network: Sequential container and affine/ReLU lowering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import Dense, ReLU
from repro.nn.network import LoweredNetwork, Network, dense_network
from repro.nn.zoo import family


class TestNetworkBasics:
    def test_forward_shape(self, small_network):
        out = small_network.forward(np.zeros((5, 4)))
        assert out.shape == (5, 3)

    def test_callable(self, small_network):
        x = np.zeros((2, 4))
        np.testing.assert_allclose(small_network(x), small_network.forward(x))

    def test_predict_returns_labels(self, small_network):
        labels = small_network.predict(np.random.default_rng(0).random((6, 4)))
        assert labels.shape == (6,)
        assert set(labels) <= {0, 1, 2}

    def test_input_and_output_dims(self, conv_network):
        assert conv_network.input_dim == 36
        assert conv_network.output_dim == 3

    def test_layer_shapes(self, conv_network):
        shapes = conv_network.layer_shapes()
        assert shapes[0] == (1, 6, 6)
        assert shapes[-1] == (3,)

    def test_summary_mentions_layers(self, small_network):
        text = small_network.summary()
        assert "Dense" in text and "ReLU" in text

    def test_num_parameters_positive(self, small_network):
        assert small_network.num_parameters() > 0

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            Network([], (2,))

    def test_backward_shape(self, small_network):
        x = np.random.default_rng(0).random((3, 4))
        out = small_network.forward(x)
        grad = small_network.backward(np.ones_like(out))
        assert grad.shape == (3, 4)

    def test_lowering_between_forward_and_backward_keeps_gradients(self):
        """``lowered()`` must not overwrite the activations ``backward`` reads."""
        spec = family("CIFAR_BASE")
        dataset = spec.build_dataset(0)
        network, twin = spec.build_network(dataset, 0), spec.build_network(dataset, 0)
        x = dataset.inputs[:8]
        grad = np.random.default_rng(0).normal(size=(8, dataset.num_classes))
        network.forward(x)
        network.lowered()
        lowered_grad = network.backward(grad)
        twin.forward(x)
        assert np.array_equal(lowered_grad, twin.backward(grad))
        for layer, other in zip(network.layers, twin.layers):
            for name, value in layer.gradients().items():
                assert np.array_equal(value, other.gradients()[name])


class TestDenseNetworkBuilder:
    def test_structure(self):
        network = dense_network([3, 5, 4, 2], seed=0)
        kinds = [type(layer).__name__ for layer in network.layers]
        assert kinds == ["Dense", "ReLU", "Dense", "ReLU", "Dense"]

    def test_too_few_sizes_rejected(self):
        with pytest.raises(ValueError):
            dense_network([4])

    def test_deterministic_for_seed(self):
        a = dense_network([3, 4, 2], seed=5)
        b = dense_network([3, 4, 2], seed=5)
        x = np.random.default_rng(0).random((2, 3))
        np.testing.assert_allclose(a.forward(x), b.forward(x))


class TestLowering:
    def test_lowered_matches_forward_dense(self, small_network):
        lowered = small_network.lowered()
        x = np.random.default_rng(1).random((10, 4))
        np.testing.assert_allclose(lowered.forward(x), small_network.forward(x), atol=1e-9)

    def test_lowered_matches_forward_conv(self, conv_network):
        lowered = conv_network.lowered()
        x = np.random.default_rng(2).random((4, 1, 6, 6))
        np.testing.assert_allclose(lowered.forward(x.reshape(4, -1)),
                                   conv_network.forward(x), atol=1e-9)

    def test_lowered_structure(self, conv_network):
        lowered = conv_network.lowered()
        # conv -> relu -> (flatten+dense merged) -> relu -> dense
        assert lowered.num_affine_layers == 3
        assert lowered.num_relu_layers == 2
        assert lowered.relu_layer_sizes() == (2 * 6 * 6, 8)

    def test_num_relu_neurons(self, small_network):
        assert small_network.num_relu_neurons == 8 + 6

    def test_pre_activations(self, small_network):
        lowered = small_network.lowered()
        x = np.random.default_rng(3).random(4)
        pre = lowered.pre_activations(x)
        assert [p.shape[0] for p in pre] == [8, 6]
        # Reconstruct the output from the pre-activations by hand.
        hidden = np.maximum(pre[-1], 0.0)
        manual = lowered.weights[-1] @ hidden + lowered.biases[-1]
        np.testing.assert_allclose(manual, lowered.forward(x)[0], atol=1e-9)

    def test_relu_first_rejected(self):
        network = Network([ReLU(), Dense(3, 2, seed=0)], (3,))
        with pytest.raises(ValueError):
            network.lowered()

    def test_trailing_relu_rejected(self):
        network = Network([Dense(3, 2, seed=0), ReLU()], (3,))
        with pytest.raises(ValueError):
            network.lowered()

    def test_lowered_is_cached_and_invalidatable(self, small_network):
        first = small_network.lowered()
        assert small_network.lowered() is first
        small_network.invalidate_lowered()
        assert small_network.lowered() is not first

    def test_inconsistent_lowered_network_rejected(self):
        with pytest.raises(ValueError):
            LoweredNetwork((np.zeros((2, 3)), np.zeros((4, 5))),
                           (np.zeros(2), np.zeros(4)), (3,))


class TestPersistence:
    def test_save_load_roundtrip_dense(self, tmp_path, small_network):
        path = tmp_path / "model.npz"
        small_network.save(path)
        restored = Network.load(path)
        x = np.random.default_rng(4).random((3, 4))
        np.testing.assert_allclose(restored.forward(x), small_network.forward(x))
        assert restored.name == small_network.name

    def test_save_load_roundtrip_conv(self, tmp_path, conv_network):
        path = tmp_path / "conv.npz"
        conv_network.save(path)
        restored = Network.load(path)
        x = np.random.default_rng(5).random((2, 1, 6, 6))
        np.testing.assert_allclose(restored.forward(x), conv_network.forward(x))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000),
       width=st.integers(min_value=1, max_value=8),
       depth=st.integers(min_value=1, max_value=3))
def test_lowering_preserves_semantics_property(seed, width, depth):
    """The lowered network computes exactly the same function."""
    sizes = [3] + [width] * depth + [2]
    network = dense_network(sizes, seed=seed)
    lowered = network.lowered()
    x = np.random.default_rng(seed).normal(size=(5, 3))
    np.testing.assert_allclose(lowered.forward(x), network.forward(x), atol=1e-8)
