"""The strided-loop convolution and per-parameter optimisers: the training oracle.

:class:`repro.nn.layers.Conv2d` gathers its im2col columns with one
``np.take`` and scatters col2im with one ``np.bincount``, and
:class:`repro.nn.training.Trainer` back-propagates into the parameters
only and takes each optimiser step on one flat vector.  This module keeps
the code they replaced, unchanged: :class:`ReferenceConv2d` fills im2col
and col2im one kernel offset at a time through strided slices, and
:class:`ReferenceTrainer` runs the full ``Network.backward`` and updates
one parameter array at a time with its own momentum / Adam state.  The
library must produce bit-identical outputs, gradients and trained weights,
including the sign of every zero.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.nn.layers import Conv2d, Dense
from repro.nn.network import Network
from repro.nn.training import Trainer, cross_entropy_loss


class ReferenceConv2d(Conv2d):
    """``Conv2d`` with the strided-slice im2col and col2im loops."""

    def _im2col(self, x: np.ndarray) -> Tuple[np.ndarray, Tuple[int, int]]:
        batch, channels, height, width = x.shape
        out_h, out_w = self._spatial_output(height, width)
        if self.padding:
            pad = self.padding
            padded = np.zeros((batch, channels, height + 2 * pad, width + 2 * pad))
            padded[:, :, pad:pad + height, pad:pad + width] = x
            x = padded
        k = self.kernel_size
        cols = np.empty((batch, channels, k, k, out_h, out_w), dtype=float)
        for i in range(k):
            i_end = i + self.stride * out_h
            for j in range(k):
                j_end = j + self.stride * out_w
                cols[:, :, i, j, :, :] = x[:, :, i:i_end:self.stride, j:j_end:self.stride]
        # (batch, out_h, out_w, channels * k * k)
        cols = cols.transpose(0, 4, 5, 1, 2, 3).reshape(batch, out_h * out_w, -1)
        return cols, (out_h, out_w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """The strided ``+=`` col2im loop over kernel offsets."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cols, input_shape = self._cache
        batch, channels, height, width = input_shape
        out_h, out_w = self._spatial_output(height, width)
        grad_output = np.asarray(grad_output, dtype=float)
        grad_flat = grad_output.reshape(batch, self.out_channels, out_h * out_w)
        grad_flat = grad_flat.transpose(0, 2, 1)  # (batch, positions, out_channels)

        kernel = self.weight.reshape(self.out_channels, -1)
        grad_kernel = np.einsum("bpo,bpk->ok", grad_flat, cols)
        self.grad_weight = grad_kernel.reshape(self.weight.shape)
        self.grad_bias = grad_flat.sum(axis=(0, 1))

        grad_cols = grad_flat @ kernel  # (batch, positions, channels*k*k)
        k = self.kernel_size
        grad_cols = grad_cols.reshape(batch, out_h, out_w, channels, k, k)
        grad_cols = grad_cols.transpose(0, 3, 4, 5, 1, 2)
        padded = np.zeros((batch, channels, height + 2 * self.padding, width + 2 * self.padding))
        for i in range(k):
            i_end = i + self.stride * out_h
            for j in range(k):
                j_end = j + self.stride * out_w
                padded[:, :, i:i_end:self.stride, j:j_end:self.stride] += grad_cols[:, :, i, j]
        if self.padding:
            return padded[:, :, self.padding:-self.padding, self.padding:-self.padding]
        return padded


def reference_copy(network: Network) -> Network:
    """A copy of ``network`` whose ``Conv2d`` layers are :class:`ReferenceConv2d`.

    Every layer is new and holds its own copy of the parameters.
    """
    layers = []
    for layer in network.layers:
        if isinstance(layer, Conv2d):
            layer = ReferenceConv2d(layer.in_channels, layer.out_channels, layer.kernel_size,
                                    stride=layer.stride, padding=layer.padding,
                                    weight=layer.weight.copy(), bias=layer.bias.copy())
        elif isinstance(layer, Dense):
            layer = Dense(layer.in_features, layer.out_features,
                          weight=layer.weight.copy(), bias=layer.bias.copy())
        else:
            layer = type(layer)()
        layers.append(layer)
    return Network(layers, network.input_shape, name=network.name)


class ReferenceTrainer(Trainer):
    """``Trainer`` with the full back-propagation and the per-parameter SGD and
    Adam loops."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._momentum_buffers: Dict[int, np.ndarray] = {}
        self._adam_m_by_id: Dict[int, np.ndarray] = {}
        self._adam_v_by_id: Dict[int, np.ndarray] = {}

    def _step(self, batch_inputs: np.ndarray, batch_labels: np.ndarray) -> float:
        logits = self.network.forward(batch_inputs)
        loss, grad_logits = cross_entropy_loss(logits, batch_labels)
        self.network.backward(grad_logits)
        if self.config.optimizer == "adam":
            self._apply_adam()
        else:
            self._apply_sgd()
        return loss

    def _apply_sgd(self) -> None:
        config = self.config
        for layer in self.network.layers:
            params = layer.parameters()
            grads = layer.gradients()
            for name, param in params.items():
                grad = grads[name] + config.weight_decay * param
                key = id(param)
                buffer = self._momentum_buffers.get(key)
                if buffer is None:
                    buffer = np.zeros_like(param)
                buffer = config.momentum * buffer + grad
                self._momentum_buffers[key] = buffer
                param -= config.learning_rate * buffer

    def _apply_adam(self, beta1: float = 0.9, beta2: float = 0.999,
                    epsilon: float = 1e-8) -> None:
        config = self.config
        self._adam_t += 1
        for layer in self.network.layers:
            params = layer.parameters()
            grads = layer.gradients()
            for name, param in params.items():
                grad = grads[name] + config.weight_decay * param
                key = id(param)
                m = self._adam_m_by_id.get(key, np.zeros_like(param))
                v = self._adam_v_by_id.get(key, np.zeros_like(param))
                m = beta1 * m + (1 - beta1) * grad
                v = beta2 * v + (1 - beta2) * grad * grad
                self._adam_m_by_id[key] = m
                self._adam_v_by_id[key] = v
                m_hat = m / (1 - beta1 ** self._adam_t)
                v_hat = v / (1 - beta2 ** self._adam_t)
                param -= config.learning_rate * m_hat / (np.sqrt(v_hat) + epsilon)
