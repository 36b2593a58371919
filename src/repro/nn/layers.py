"""Neural-network layers implemented in numpy.

The verification algorithms in this library only need networks composed of
affine transformations and ReLU activations (the class handled by the ABONN
paper).  Each layer therefore provides three views:

* ``forward`` / ``backward`` — batched inference and gradient propagation,
  used by the trainer (:mod:`repro.nn.training`) and, through
  :meth:`repro.nn.network.Network.forward`, as the ground truth that every
  counterexample is checked against;
* ``output_shape`` — static shape inference;
* for affine layers, ``to_affine`` — the explicit ``(W, b)`` pair over the
  flattened input, used to lower the network into the canonical
  affine/ReLU alternation consumed by the bound-propagation verifiers.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import require


#: Per-layer activation caches written by ``forward`` for ``backward``.
_FORWARD_CACHES = ("_cache_input", "_cache_shape", "_cache_mask", "_cache")


class Layer:
    """Base class for all layers."""

    #: True for layers that are affine over the flattened input.
    is_affine: bool = False
    #: True for ReLU activation layers.
    is_relu: bool = False

    def __getstate__(self) -> Dict[str, object]:
        """Pickle without the last ``forward``'s activation caches.

        A trained layer would otherwise carry the activations of its last
        (full-dataset) forward into every pickle; the unpickled copy behaves
        like a fresh layer and needs a ``forward`` before ``backward``.
        """
        state = self.__dict__.copy()
        for name in _FORWARD_CACHES:
            if name in state:
                state[name] = None
        return state

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Map a batch ``x`` of shape ``(batch, *input_shape)`` to outputs."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Propagate gradients; must be called after ``forward``."""
        raise NotImplementedError

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Infer the per-sample output shape given a per-sample input shape."""
        raise NotImplementedError

    def parameters(self) -> Dict[str, np.ndarray]:
        """Trainable parameters (possibly empty)."""
        return {}

    def gradients(self) -> Dict[str, np.ndarray]:
        """Gradients for the trainable parameters (same keys as parameters)."""
        return {}

    def to_affine(self, input_shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(W, b)`` such that the layer equals ``x -> W @ x + b``.

        Only valid when :attr:`is_affine` is True.  ``x`` is the flattened
        per-sample input of the given shape.
        """
        raise NotImplementedError(f"{type(self).__name__} is not an affine layer")


class Dense(Layer):
    """Fully connected layer ``y = x @ W.T + b``.

    Parameters
    ----------
    in_features, out_features:
        Layer dimensions.
    weight, bias:
        Optional explicit parameters (used when loading saved networks).
    seed:
        Seed for He-initialisation when parameters are not given.
    """

    is_affine = True

    def __init__(
        self,
        in_features: int,
        out_features: int,
        weight: Optional[np.ndarray] = None,
        bias: Optional[np.ndarray] = None,
        seed: SeedLike = None,
    ) -> None:
        require(in_features > 0, "in_features must be positive")
        require(out_features > 0, "out_features must be positive")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        if weight is None:
            rng = as_rng(seed)
            scale = np.sqrt(2.0 / in_features)
            weight = rng.normal(0.0, scale, size=(out_features, in_features))
        if bias is None:
            bias = np.zeros(out_features)
        self.weight = np.asarray(weight, dtype=float)
        self.bias = np.asarray(bias, dtype=float)
        require(self.weight.shape == (out_features, in_features),
                f"weight must have shape {(out_features, in_features)}")
        require(self.bias.shape == (out_features,),
                f"bias must have shape {(out_features,)}")
        self._cache_input: Optional[np.ndarray] = None
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        flat = x.reshape(x.shape[0], -1)
        require(flat.shape[1] == self.in_features,
                f"Dense expected {self.in_features} input features, got {flat.shape[1]}")
        self._cache_input = flat
        return flat @ self.weight.T + self.bias

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_input is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=float)
        self.grad_weight = grad_output.T @ self._cache_input
        self.grad_bias = grad_output.sum(axis=0)
        return grad_output @ self.weight

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        flat = int(np.prod(input_shape))
        require(flat == self.in_features,
                f"Dense expected {self.in_features} input features, got shape {input_shape}")
        return (self.out_features,)

    def parameters(self) -> Dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def gradients(self) -> Dict[str, np.ndarray]:
        return {"weight": self.grad_weight, "bias": self.grad_bias}

    def to_affine(self, input_shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        flat = int(np.prod(input_shape))
        require(flat == self.in_features,
                f"Dense expected {self.in_features} input features, got shape {input_shape}")
        return self.weight.copy(), self.bias.copy()


class Flatten(Layer):
    """Flatten per-sample inputs to a vector; affine with identity matrix."""

    is_affine = True

    def __init__(self) -> None:
        self._cache_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self._cache_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_shape is None:
            raise RuntimeError("backward called before forward")
        return np.asarray(grad_output, dtype=float).reshape(self._cache_shape)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (int(np.prod(input_shape)),)

    def to_affine(self, input_shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        flat = int(np.prod(input_shape))
        return np.eye(flat), np.zeros(flat)


class ReLU(Layer):
    """Elementwise rectified linear unit ``max(0, x)``."""

    is_relu = True

    def __init__(self) -> None:
        self._cache_mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self._cache_mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache_mask is None:
            raise RuntimeError("backward called before forward")
        return np.asarray(grad_output, dtype=float) * self._cache_mask

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(input_shape)


class Conv2d(Layer):
    """2-D convolution over ``(batch, channels, height, width)`` inputs.

    The convolution is implemented with an im2col lowering, which also makes
    the explicit affine matrix (``to_affine``) straightforward to build for
    the verification backends.
    """

    is_affine = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        weight: Optional[np.ndarray] = None,
        bias: Optional[np.ndarray] = None,
        seed: SeedLike = None,
    ) -> None:
        require(in_channels > 0 and out_channels > 0, "channel counts must be positive")
        require(kernel_size > 0, "kernel_size must be positive")
        require(stride > 0, "stride must be positive")
        require(padding >= 0, "padding must be non-negative")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        fan_in = in_channels * kernel_size * kernel_size
        if weight is None:
            rng = as_rng(seed)
            scale = np.sqrt(2.0 / fan_in)
            weight = rng.normal(0.0, scale,
                                size=(out_channels, in_channels, kernel_size, kernel_size))
        if bias is None:
            bias = np.zeros(out_channels)
        self.weight = np.asarray(weight, dtype=float)
        self.bias = np.asarray(bias, dtype=float)
        require(self.weight.shape == (out_channels, in_channels, kernel_size, kernel_size),
                "conv weight has wrong shape")
        require(self.bias.shape == (out_channels,), "conv bias has wrong shape")
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._cache: Optional[Tuple[np.ndarray, Tuple[int, ...]]] = None

    # -- shape bookkeeping -------------------------------------------------
    def _spatial_output(self, height: int, width: int) -> Tuple[int, int]:
        out_h = (height + 2 * self.padding - self.kernel_size) // self.stride + 1
        out_w = (width + 2 * self.padding - self.kernel_size) // self.stride + 1
        require(out_h > 0 and out_w > 0,
                f"convolution output would be empty for input {(height, width)}")
        return out_h, out_w

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        require(len(input_shape) == 3, f"Conv2d expects (C, H, W) inputs, got {input_shape}")
        channels, height, width = input_shape
        require(channels == self.in_channels,
                f"Conv2d expected {self.in_channels} channels, got {channels}")
        out_h, out_w = self._spatial_output(height, width)
        return (self.out_channels, out_h, out_w)

    # -- im2col helpers ----------------------------------------------------
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        require(x.ndim == 4, f"Conv2d expects 4-D input (batch, C, H, W), got ndim={x.ndim}")
        cols, (out_h, out_w) = self._im2col(x)
        kernel = self.weight.reshape(self.out_channels, -1)
        out = cols @ kernel.T + self.bias  # (batch, out_h*out_w, out_channels)
        self._cache = (cols, x.shape)
        return out.transpose(0, 2, 1).reshape(x.shape[0], self.out_channels, out_h, out_w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
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

    def parameters(self) -> Dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def gradients(self) -> Dict[str, np.ndarray]:
        return {"weight": self.grad_weight, "bias": self.grad_bias}

    def to_affine(self, input_shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        """Build the explicit affine map over the flattened (C, H, W) input.

        The matrix is built by pushing the identity basis through the
        convolution, which is exact and fast enough for the laptop-scale
        networks used in this reproduction.
        """
        out_shape = self.output_shape(tuple(input_shape))
        in_dim = int(np.prod(input_shape))
        out_dim = int(np.prod(out_shape))
        basis = np.eye(in_dim).reshape((in_dim,) + tuple(input_shape))
        response = self.forward(basis).reshape(in_dim, out_dim)
        bias_term = self.forward(np.zeros((1,) + tuple(input_shape))).reshape(out_dim)
        matrix = (response - bias_term).T
        return matrix, bias_term


def layer_from_config(config: Dict[str, object]) -> Layer:
    """Re-create a layer from the dictionary produced by :func:`layer_config`."""
    kind = config["kind"]
    if kind == "dense":
        return Dense(int(config["in_features"]), int(config["out_features"]),
                     weight=np.asarray(config["weight"]), bias=np.asarray(config["bias"]))
    if kind == "conv2d":
        return Conv2d(int(config["in_channels"]), int(config["out_channels"]),
                      int(config["kernel_size"]), stride=int(config["stride"]),
                      padding=int(config["padding"]),
                      weight=np.asarray(config["weight"]), bias=np.asarray(config["bias"]))
    if kind == "flatten":
        return Flatten()
    if kind == "relu":
        return ReLU()
    raise ValueError(f"unknown layer kind: {kind!r}")


def layer_config(layer: Layer) -> Dict[str, object]:
    """Return a serialisable description of ``layer`` (used by save/load)."""
    if isinstance(layer, Dense):
        return {"kind": "dense", "in_features": layer.in_features,
                "out_features": layer.out_features,
                "weight": layer.weight, "bias": layer.bias}
    if isinstance(layer, Conv2d):
        return {"kind": "conv2d", "in_channels": layer.in_channels,
                "out_channels": layer.out_channels, "kernel_size": layer.kernel_size,
                "stride": layer.stride, "padding": layer.padding,
                "weight": layer.weight, "bias": layer.bias}
    if isinstance(layer, Flatten):
        return {"kind": "flatten"}
    if isinstance(layer, ReLU):
        return {"kind": "relu"}
    raise ValueError(f"cannot serialise layer of type {type(layer).__name__}")
