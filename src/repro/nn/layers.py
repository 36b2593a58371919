"""Neural-network layers implemented in numpy.

The verification algorithms in this library only need networks composed of
affine transformations and ReLU activations (the class handled by the ABONN
paper).  Each layer therefore provides three views:

* ``forward`` / ``backward`` — batched inference and gradient propagation,
  used by the trainer (:mod:`repro.nn.training`) and, through
  :meth:`repro.nn.network.Network.forward`, as the ground truth that every
  counterexample is checked against.  ``backward_parameters`` is the
  parameter half of ``backward``: it stores the same gradients and forms no
  input gradient, which the trainer never reads below the lowest layer
  with parameters;
* ``output_shape`` — static shape inference;
* for affine layers, ``to_affine`` — the explicit ``(W, b)`` pair over the
  flattened input, used to lower the network into the canonical
  affine/ReLU alternation consumed by the bound-propagation verifiers.

:class:`Conv2d` runs without Python loops over kernel offsets: im2col is
one ``np.take`` through a cached index array and col2im one ``np.bincount``.
Both reproduce the strided-slice loops they replaced bit for bit (their
docstrings say why), so trained weights, lowered matrices and every bound
computed from them do not depend on how the convolution is written.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import require


#: Per-layer caches: the activations ``forward`` keeps for ``backward`` and
#: :class:`Conv2d`'s im2col gather index.  Pickles leave them out and
#: :meth:`Layer.clear_caches` drops them.
_FORWARD_CACHES = ("_cache_input", "_cache_shape", "_cache_mask", "_cache", "_gather")


class Layer:
    """Base class for all layers."""

    #: True for layers that are affine over the flattened input.
    is_affine: bool = False
    #: True for ReLU activation layers.
    is_relu: bool = False

    def __getstate__(self) -> Dict[str, object]:
        """Pickle without the caches named in ``_FORWARD_CACHES``.

        A layer would otherwise carry the activations of its last forward
        (and a convolution its gather index) into every pickle; the
        unpickled copy behaves like a fresh layer and needs a ``forward``
        before ``backward``.
        """
        state = self.__dict__.copy()
        for name in _FORWARD_CACHES:
            if name in state:
                state[name] = None
        return state

    def clear_caches(self) -> None:
        """Drop the caches named in ``_FORWARD_CACHES``, as a pickle does.

        ``backward`` then raises until the next ``forward``.
        """
        for name in _FORWARD_CACHES:
            if name in self.__dict__:
                setattr(self, name, None)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Map a batch ``x`` of shape ``(batch, *input_shape)`` to outputs."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Propagate gradients; must be called after ``forward``."""
        raise NotImplementedError

    def backward_parameters(self, grad_output: np.ndarray) -> None:
        """Store the parameter gradients ``backward`` stores, and return nothing.

        Layers with parameters skip forming the input gradient; the default
        runs the whole ``backward``.
        """
        self.backward(grad_output)

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
        Optional explicit parameters, used instead of He-initialisation.
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
        """Return ``x @ W.T + b`` over the flattened batch and keep ``x``."""
        x = np.asarray(x, dtype=float)
        flat = x.reshape(x.shape[0], -1)
        require(flat.shape[1] == self.in_features,
                f"Dense expected {self.in_features} input features, got {flat.shape[1]}")
        self._cache_input = flat
        return flat @ self.weight.T + self.bias

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Store the weight and bias gradients; return the flat input gradient."""
        return self._store_gradients(grad_output) @ self.weight

    def backward_parameters(self, grad_output: np.ndarray) -> None:
        """Store the weight and bias gradients without the input gradient."""
        self._store_gradients(grad_output)

    def _store_gradients(self, grad_output: np.ndarray) -> np.ndarray:
        """Store the parameter gradients; return ``grad_output`` as floats."""
        if self._cache_input is None:
            raise RuntimeError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=float)
        self.grad_weight = grad_output.T @ self._cache_input
        self.grad_bias = grad_output.sum(axis=0)
        return grad_output

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """``(out_features,)``; the input must hold ``in_features`` values."""
        flat = int(np.prod(input_shape))
        require(flat == self.in_features,
                f"Dense expected {self.in_features} input features, got shape {input_shape}")
        return (self.out_features,)

    def parameters(self) -> Dict[str, np.ndarray]:
        """The live ``weight`` and ``bias`` arrays (updated in place by training)."""
        return {"weight": self.weight, "bias": self.bias}

    def gradients(self) -> Dict[str, np.ndarray]:
        """The gradients stored by the last ``backward``."""
        return {"weight": self.grad_weight, "bias": self.grad_bias}

    def to_affine(self, input_shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of ``(W, b)``."""
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
        """Reshape to ``(batch, features)`` and keep the input shape."""
        x = np.asarray(x, dtype=float)
        self._cache_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Reshape the gradient back to the last input's shape."""
        if self._cache_shape is None:
            raise RuntimeError("backward called before forward")
        return np.asarray(grad_output, dtype=float).reshape(self._cache_shape)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """The flattened size ``(prod(input_shape),)``."""
        return (int(np.prod(input_shape)),)

    def to_affine(self, input_shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        """The identity matrix and a zero bias."""
        flat = int(np.prod(input_shape))
        return np.eye(flat), np.zeros(flat)


class ReLU(Layer):
    """Elementwise rectified linear unit ``max(0, x)``."""

    is_relu = True

    def __init__(self) -> None:
        self._cache_mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Return ``max(x, 0)`` and keep the mask of positive entries."""
        x = np.asarray(x, dtype=float)
        self._cache_mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Zero the gradient where the last input was not positive."""
        if self._cache_mask is None:
            raise RuntimeError("backward called before forward")
        return np.asarray(grad_output, dtype=float) * self._cache_mask

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """The input shape, unchanged."""
        return tuple(input_shape)


class Conv2d(Layer):
    """2-D convolution over ``(batch, channels, height, width)`` inputs.

    The convolution is lowered to a matrix product through im2col, which
    also makes the explicit affine matrix (``to_affine``) straightforward to
    build for the verification backends.

    *im2col* is one ``np.take`` of the zero-padded input through a
    ``(C·k·k, P)`` index array (:meth:`_gather_index`, cached for the last
    input's spatial shape), where ``P`` is the number of output positions.
    The gathered ``(batch, C·k·k, P)`` buffer is returned as its
    ``(batch, P, C·k·k)`` transpose view, not as a contiguous copy: the
    matrix product and the ``einsum`` in ``backward`` pick their BLAS and
    summation paths from the operands' strides, so a copy holding equal
    values rounds differently in the last bits.  This view has the strides
    of the strided-slice loop's result, so it rounds exactly as that did.

    *col2im* is one ``np.bincount`` of the column gradients, laid out like
    the gathered buffer, ``(batch, C·k·k, P)``, into the padded input.
    ``bincount`` adds its weights in input order.  Within one sample and
    channel the rows run over the kernel offsets ``(i, j)`` and each offset
    meets an input element at most once, so every element receives its
    contributions in ``(i, j)`` order, starting from ``0.0``: the order of
    the ``+=`` loop over kernel offsets it replaced.  The sums are
    bit-identical.
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
        self._gather: Optional[Tuple[Tuple[int, int], np.ndarray]] = None

    # -- shape bookkeeping -------------------------------------------------
    def _spatial_output(self, height: int, width: int) -> Tuple[int, int]:
        out_h = (height + 2 * self.padding - self.kernel_size) // self.stride + 1
        out_w = (width + 2 * self.padding - self.kernel_size) // self.stride + 1
        require(out_h > 0 and out_w > 0,
                f"convolution output would be empty for input {(height, width)}")
        return out_h, out_w

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """``(out_channels, out_h, out_w)`` for a ``(C, H, W)`` input."""
        require(len(input_shape) == 3, f"Conv2d expects (C, H, W) inputs, got {input_shape}")
        channels, height, width = input_shape
        require(channels == self.in_channels,
                f"Conv2d expected {self.in_channels} channels, got {channels}")
        out_h, out_w = self._spatial_output(height, width)
        return (self.out_channels, out_h, out_w)

    # -- im2col / col2im ---------------------------------------------------
    def _gather_index(self, height: int, width: int) -> np.ndarray:
        """Index of every im2col entry in one flattened padded sample.

        Shape ``(C·k·k, P)``: rows run channel-major, then kernel offset
        ``(i, j)``, as in ``weight.reshape(out_channels, -1)``; columns are
        the output positions in row-major order.
        """
        if self._gather is not None and self._gather[0] == (height, width):
            return self._gather[1]
        out_h, out_w = self._spatial_output(height, width)
        k, stride = self.kernel_size, self.stride
        padded_h, padded_w = height + 2 * self.padding, width + 2 * self.padding
        rows = np.arange(k)[:, None] + stride * np.arange(out_h)  # (i, out_h)
        cols = np.arange(k)[:, None] + stride * np.arange(out_w)  # (j, out_w)
        channel = np.arange(self.in_channels)[:, None, None, None, None]
        index = ((channel * padded_h + rows[:, None, :, None]) * padded_w
                 + cols[:, None, :])  # (C, i, j, out_h, out_w)
        index = index.reshape(self.in_channels * k * k, out_h * out_w)
        self._gather = ((height, width), index)
        return index

    def _im2col(self, x: np.ndarray) -> Tuple[np.ndarray, Tuple[int, int]]:
        batch, channels, height, width = x.shape
        index = self._gather_index(height, width)
        if self.padding:
            pad = self.padding
            padded = np.zeros((batch, channels, height + 2 * pad, width + 2 * pad))
            padded[:, :, pad:pad + height, pad:pad + width] = x
            x = padded
        cols = np.take(x.reshape(batch, -1), index, axis=1)
        # (batch, positions, channels*k*k) as a view; see the class docstring.
        return cols.transpose(0, 2, 1), self._spatial_output(height, width)

    def _convolve(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The output for ``x`` and its im2col columns, leaving ``_cache`` alone."""
        cols, (out_h, out_w) = self._im2col(x)
        kernel = self.weight.reshape(self.out_channels, -1)
        out = cols @ kernel.T + self.bias  # (batch, out_h*out_w, out_channels)
        out = out.transpose(0, 2, 1).reshape(x.shape[0], self.out_channels, out_h, out_w)
        return out, cols

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Convolve a ``(batch, C, H, W)`` batch and keep its im2col columns."""
        x = np.asarray(x, dtype=float)
        require(x.ndim == 4, f"Conv2d expects 4-D input (batch, C, H, W), got ndim={x.ndim}")
        out, cols = self._convolve(x)
        self._cache = (cols, x.shape)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Store the kernel and bias gradients; return the input gradient."""
        grad_flat = self._store_gradients(grad_output)
        batch, channels, height, width = self._cache[1]
        kernel = self.weight.reshape(self.out_channels, -1)
        grad_cols = grad_flat @ kernel  # (batch, positions, channels*k*k)
        padded_shape = (batch, channels, height + 2 * self.padding, width + 2 * self.padding)
        sample = int(np.prod(padded_shape[1:]))
        # Both laid out (batch, channels*k*k, positions); see the class docstring.
        index = self._gather_index(height, width) + sample * np.arange(batch)[:, None, None]
        padded = np.bincount(index.ravel(), weights=grad_cols.transpose(0, 2, 1).ravel(),
                             minlength=batch * sample).reshape(padded_shape)
        if self.padding:
            return padded[:, :, self.padding:-self.padding, self.padding:-self.padding]
        return padded

    def backward_parameters(self, grad_output: np.ndarray) -> None:
        """Store the kernel and bias gradients without the col2im scatter."""
        self._store_gradients(grad_output)

    def _store_gradients(self, grad_output: np.ndarray) -> np.ndarray:
        """Store the parameter gradients; return ``grad_output`` as
        ``(batch, positions, out_channels)``."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cols, (batch, _, height, width) = self._cache
        out_h, out_w = self._spatial_output(height, width)
        grad_output = np.asarray(grad_output, dtype=float)
        grad_flat = grad_output.reshape(batch, self.out_channels, out_h * out_w)
        grad_flat = grad_flat.transpose(0, 2, 1)
        grad_kernel = np.einsum("bpo,bpk->ok", grad_flat, cols)
        self.grad_weight = grad_kernel.reshape(self.weight.shape)
        self.grad_bias = grad_flat.sum(axis=(0, 1))
        return grad_flat

    def parameters(self) -> Dict[str, np.ndarray]:
        """The live ``weight`` and ``bias`` arrays (updated in place by training)."""
        return {"weight": self.weight, "bias": self.bias}

    def gradients(self) -> Dict[str, np.ndarray]:
        """The gradients stored by the last ``backward``."""
        return {"weight": self.grad_weight, "bias": self.grad_bias}

    def to_affine(self, input_shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        """Build the explicit affine map over the flattened (C, H, W) input.

        The matrix is built by convolving the identity basis, which is exact
        and fast enough for the laptop-scale networks used in this
        reproduction.  It bypasses ``forward``, so a ``forward`` /
        ``backward`` pair around a lowering still sees its own activations.
        """
        out_shape = self.output_shape(tuple(input_shape))
        in_dim = int(np.prod(input_shape))
        out_dim = int(np.prod(out_shape))
        basis = np.eye(in_dim).reshape((in_dim,) + tuple(input_shape))
        response = self._convolve(basis)[0].reshape(in_dim, out_dim)
        bias_term = self._convolve(np.zeros((1,) + tuple(input_shape)))[0].reshape(out_dim)
        matrix = (response - bias_term).T
        return matrix, bias_term
