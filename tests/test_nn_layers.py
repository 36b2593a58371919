"""Tests for repro.nn.layers: forward semantics, gradients, affine lowering."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import (
    Conv2d,
    Dense,
    Flatten,
    ReLU,
    layer_config,
    layer_from_config,
)
from repro.nn.network import Network


def numerical_gradient(function, point, epsilon=1e-6):
    """Central-difference gradient of a scalar function of a flat array."""
    point = np.asarray(point, dtype=float)
    grad = np.zeros_like(point)
    flat = point.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = function(point)
        flat[index] = original - epsilon
        lower = function(point)
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * epsilon)
    return grad


class TestDense:
    def test_forward_matches_matrix_product(self):
        layer = Dense(3, 2, weight=[[1.0, 0.0, -1.0], [2.0, 1.0, 0.5]], bias=[0.1, -0.2])
        out = layer.forward(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out, [[1 - 3 + 0.1, 2 + 2 + 1.5 - 0.2]])

    def test_forward_flattens_structured_input(self):
        layer = Dense(4, 2, seed=0)
        x = np.arange(8, dtype=float).reshape(2, 2, 2)
        out = layer.forward(x)
        assert out.shape == (2, 2)

    def test_output_shape(self):
        assert Dense(6, 4, seed=0).output_shape((2, 3)) == (4,)

    def test_output_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            Dense(6, 4, seed=0).output_shape((5,))

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Dense(0, 3)
        with pytest.raises(ValueError):
            Dense(3, -1)

    def test_explicit_weight_shape_checked(self):
        with pytest.raises(ValueError):
            Dense(3, 2, weight=np.zeros((3, 2)))

    def test_to_affine_matches_forward(self):
        layer = Dense(5, 3, seed=1)
        weight, bias = layer.to_affine((5,))
        x = np.random.default_rng(0).random((4, 5))
        np.testing.assert_allclose(layer.forward(x), x @ weight.T + bias)

    def test_gradient_wrt_input(self):
        layer = Dense(4, 3, seed=2)
        x = np.random.default_rng(1).random((1, 4))
        target = np.random.default_rng(2).random(3)

        def loss(point):
            return float(((layer.forward(point.reshape(1, 4)) - target) ** 2).sum())

        layer.forward(x)
        grad_out = 2 * (layer.forward(x) - target)
        analytic = layer.backward(grad_out).reshape(-1)
        numeric = numerical_gradient(loss, x.copy()).reshape(-1)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_gradient_wrt_parameters(self):
        layer = Dense(3, 2, seed=3)
        x = np.random.default_rng(4).random((2, 3))
        layer.forward(x)
        grad_out = np.ones((2, 2))
        layer.backward(grad_out)
        assert layer.grad_weight.shape == layer.weight.shape
        assert layer.grad_bias.shape == layer.bias.shape
        np.testing.assert_allclose(layer.grad_bias, [2.0, 2.0])

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            Dense(2, 2, seed=0).backward(np.ones((1, 2)))


class TestFlatten:
    def test_forward_and_backward_roundtrip(self):
        layer = Flatten()
        x = np.random.default_rng(0).random((3, 2, 4))
        out = layer.forward(x)
        assert out.shape == (3, 8)
        back = layer.backward(out)
        np.testing.assert_allclose(back, x)

    def test_to_affine_is_identity(self):
        weight, bias = Flatten().to_affine((2, 3))
        np.testing.assert_allclose(weight, np.eye(6))
        np.testing.assert_allclose(bias, np.zeros(6))


class TestReLU:
    def test_forward_clamps_negative(self):
        out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.0, 2.0]])

    def test_backward_masks_gradient(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 3.0]]))
        grad = layer.backward(np.array([[5.0, 7.0]]))
        np.testing.assert_allclose(grad, [[0.0, 7.0]])

    def test_output_shape_preserved(self):
        assert ReLU().output_shape((3, 4, 4)) == (3, 4, 4)

    def test_is_not_affine(self):
        assert ReLU().is_relu and not ReLU().is_affine


class TestConv2d:
    def test_output_shape_no_padding(self):
        layer = Conv2d(1, 2, kernel_size=3, stride=1, padding=0, seed=0)
        assert layer.output_shape((1, 5, 5)) == (2, 3, 3)

    def test_output_shape_with_padding_and_stride(self):
        layer = Conv2d(3, 4, kernel_size=3, stride=2, padding=1, seed=0)
        assert layer.output_shape((3, 8, 8)) == (4, 4, 4)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            Conv2d(3, 4, kernel_size=3).output_shape((1, 8, 8))

    def test_forward_matches_manual_convolution(self):
        # A 1x1 kernel is a per-pixel linear map, easy to verify by hand.
        layer = Conv2d(1, 1, kernel_size=1, weight=np.array([[[[2.0]]]]), bias=np.array([0.5]))
        x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        np.testing.assert_allclose(layer.forward(x), 2.0 * x + 0.5)

    def test_forward_known_sum_kernel(self):
        kernel = np.ones((1, 1, 2, 2))
        layer = Conv2d(1, 1, kernel_size=2, weight=kernel, bias=np.zeros(1))
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        np.testing.assert_allclose(layer.forward(x), [[[[10.0]]]])

    def test_to_affine_matches_forward(self):
        layer = Conv2d(2, 3, kernel_size=3, stride=2, padding=1, seed=5)
        weight, bias = layer.to_affine((2, 6, 6))
        x = np.random.default_rng(3).random((4, 2, 6, 6))
        direct = layer.forward(x).reshape(4, -1)
        via_matrix = x.reshape(4, -1) @ weight.T + bias
        np.testing.assert_allclose(direct, via_matrix, atol=1e-10)

    def test_gradient_wrt_input(self):
        layer = Conv2d(1, 2, kernel_size=3, stride=1, padding=1, seed=6)
        x = np.random.default_rng(5).random((1, 1, 4, 4))

        def loss(point):
            return float((layer.forward(point.reshape(1, 1, 4, 4)) ** 2).sum())

        out = layer.forward(x)
        analytic = layer.backward(2 * out).reshape(-1)
        numeric = numerical_gradient(loss, x.copy()).reshape(-1)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_gradient_wrt_weight(self):
        layer = Conv2d(1, 1, kernel_size=2, stride=1, padding=0, seed=7)
        x = np.random.default_rng(6).random((2, 1, 3, 3))
        out = layer.forward(x)
        layer.backward(np.ones_like(out))
        original = layer.weight.copy()
        epsilon = 1e-6
        numeric = np.zeros_like(original)
        for index in np.ndindex(original.shape):
            layer.weight[index] = original[index] + epsilon
            upper = layer.forward(x).sum()
            layer.weight[index] = original[index] - epsilon
            lower = layer.forward(x).sum()
            layer.weight[index] = original[index]
            numeric[index] = (upper - lower) / (2 * epsilon)
        layer.forward(x)
        layer.backward(np.ones_like(out))
        np.testing.assert_allclose(layer.grad_weight, numeric, atol=1e-5)


class _PaddedConv2d(Conv2d):
    """Reference im2col that pads with ``np.pad``."""

    def _im2col(self, x):
        batch, channels, height, width = x.shape
        out_h, out_w = self._spatial_output(height, width)
        if self.padding:
            x = np.pad(x, ((0, 0), (0, 0),
                           (self.padding, self.padding), (self.padding, self.padding)))
        k = self.kernel_size
        cols = np.empty((batch, channels, k, k, out_h, out_w), dtype=float)
        for i in range(k):
            i_end = i + self.stride * out_h
            for j in range(k):
                j_end = j + self.stride * out_w
                cols[:, :, i, j, :, :] = x[:, :, i:i_end:self.stride, j:j_end:self.stride]
        cols = cols.transpose(0, 4, 5, 1, 2, 3).reshape(batch, out_h * out_w, -1)
        return cols, (out_h, out_w)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 2])
def test_conv_im2col_bitwise_matches_np_pad(stride, padding):
    layer = Conv2d(2, 3, kernel_size=3, stride=stride, padding=padding, seed=11)
    reference = _PaddedConv2d(2, 3, kernel_size=3, stride=stride, padding=padding,
                              weight=layer.weight, bias=layer.bias)
    x = np.random.default_rng(stride + 10 * padding).normal(size=(3, 2, 7, 7))
    out = layer.forward(x)
    expected = reference.forward(x)
    assert np.array_equal(out, expected)
    grad = np.random.default_rng(1).normal(size=out.shape)
    assert np.array_equal(layer.backward(grad), reference.backward(grad))
    assert np.array_equal(layer.grad_weight, reference.grad_weight)


class TestLayerPickling:
    @staticmethod
    def network():
        layers = [Conv2d(1, 2, kernel_size=3, stride=2, padding=1, seed=0), ReLU(),
                  Flatten(), Dense(2 * 3 * 3, 5, seed=1), ReLU(), Dense(5, 3, seed=2)]
        return Network(layers, (1, 6, 6))

    def test_pickle_size_does_not_grow_after_forward(self):
        network = self.network()
        fresh = len(pickle.dumps(network))
        network.forward(np.random.default_rng(0).random((320, 1, 6, 6)))
        assert len(pickle.dumps(network)) == fresh

    def test_unpickled_copy_forwards_bitwise_equal(self):
        network = self.network()
        x = np.random.default_rng(1).random((4, 1, 6, 6))
        expected = network.forward(x)
        restored = pickle.loads(pickle.dumps(network))
        assert np.array_equal(restored.forward(x), expected)

    def test_unpickled_copy_needs_forward_before_backward(self):
        network = self.network()
        network.forward(np.zeros((2, 1, 6, 6)))
        restored = pickle.loads(pickle.dumps(network))
        with pytest.raises(RuntimeError):
            restored.backward(np.ones((2, 3)))
        for layer in restored.layers:
            with pytest.raises(RuntimeError):
                layer.backward(np.ones((2, 3)))


class TestLayerSerialisation:
    @pytest.mark.parametrize("layer", [
        Dense(3, 2, seed=0),
        Conv2d(1, 2, kernel_size=3, stride=2, padding=1, seed=1),
        Flatten(),
        ReLU(),
    ])
    def test_roundtrip(self, layer):
        restored = layer_from_config(layer_config(layer))
        assert type(restored) is type(layer)
        for name, value in layer.parameters().items():
            np.testing.assert_allclose(restored.parameters()[name], value)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            layer_from_config({"kind": "mystery"})


@settings(max_examples=25, deadline=None)
@given(
    in_features=st.integers(min_value=1, max_value=6),
    out_features=st.integers(min_value=1, max_value=6),
    batch=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_dense_affine_property(in_features, out_features, batch, seed):
    """Dense layers are affine: f(x) - f(0) is linear in x."""
    layer = Dense(in_features, out_features, seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, in_features))
    y = rng.normal(size=(batch, in_features))
    zero = layer.forward(np.zeros((1, in_features)))
    combined = layer.forward(x + y)
    np.testing.assert_allclose(combined,
                               layer.forward(x) + layer.forward(y) - zero,
                               atol=1e-9)
