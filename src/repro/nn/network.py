"""Sequential network container and its canonical affine/ReLU lowering.

The verification backends (:mod:`repro.bounds`, :mod:`repro.verifiers.milp`)
consume networks in a canonical form: an alternation

``affine -> ReLU -> affine -> ReLU -> ... -> affine``

over the flattened input.  :meth:`Network.lowered` produces that form by
merging consecutive affine layers (Flatten/Dense/Conv2d) into explicit
``(W, b)`` pairs.  Each hidden affine output corresponds to one ReLU "layer"
of the paper's BaB formulation.  Individual neurons are addressed by one
flat, layer-major index in ``[0, K)``, where ``K`` is the total number of
ReLU neurons (the constant in Def. 1); that is the index of
:class:`~repro.bounds.splits.SplitAssignment`'s phase row and of
:class:`~repro.bounds.report.FlatBounds`' hidden bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.layers import Dense, Layer, ReLU, layer_config, layer_from_config
from repro.utils.validation import require, require_finite_array


@dataclass(frozen=True)
class LoweredNetwork:
    """Canonical affine/ReLU representation of a network.

    Attributes
    ----------
    weights, biases:
        ``weights[i] @ h + biases[i]`` is the i-th affine map.  ReLU is
        applied after every affine map except the last one.
    input_shape:
        Original per-sample input shape (the affine maps act on the
        flattened input).
    """

    weights: Tuple[np.ndarray, ...]
    biases: Tuple[np.ndarray, ...]
    input_shape: Tuple[int, ...]

    def __post_init__(self) -> None:
        require(len(self.weights) == len(self.biases),
                "weights and biases must have the same length")
        require(len(self.weights) >= 1, "a lowered network needs at least one affine layer")
        for index, (weight, bias) in enumerate(zip(self.weights, self.biases)):
            require(weight.ndim == 2, f"weight {index} must be a matrix")
            require(bias.ndim == 1, f"bias {index} must be a vector")
            require(weight.shape[0] == bias.shape[0],
                    f"weight/bias {index} output dimensions disagree")
            # A NaN bound fails every emptiness test, so a non-finite
            # parameter would read as an empty (verified) region.
            require_finite_array(weight, f"weight {index}")
            require_finite_array(bias, f"bias {index}")
            if index > 0:
                require(weight.shape[1] == self.weights[index - 1].shape[0],
                        f"affine layers {index - 1} and {index} do not compose")

    # -- structural queries --------------------------------------------------
    @property
    def num_affine_layers(self) -> int:
        return len(self.weights)

    @property
    def num_relu_layers(self) -> int:
        """Number of hidden ReLU layers (every affine layer except the last)."""
        return len(self.weights) - 1

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]

    def relu_layer_sizes(self) -> Tuple[int, ...]:
        """Widths of the hidden (pre-activation) layers, in order."""
        return tuple(weight.shape[0] for weight in self.weights[:-1])

    @property
    def num_relu_neurons(self) -> int:
        """Total number of ReLU neurons ``K`` (the constant of Def. 1)."""
        return int(sum(self.relu_layer_sizes()))

    # -- evaluation ----------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Evaluate a batch of flattened inputs ``(batch, input_dim)``."""
        h = np.atleast_2d(np.asarray(x, dtype=float))
        require(h.shape[1] == self.input_dim,
                f"expected inputs of dimension {self.input_dim}, got {h.shape[1]}")
        for index, (weight, bias) in enumerate(zip(self.weights, self.biases)):
            h = h @ weight.T + bias
            if index < len(self.weights) - 1:
                h = np.maximum(h, 0.0)
        return h

    def pre_activations(self, x: np.ndarray) -> List[np.ndarray]:
        """Return the pre-activation values of every hidden layer for ``x``.

        ``x`` is a single flattened input; the output values (logits) are not
        included.
        """
        h = np.asarray(x, dtype=float).reshape(-1)
        require(h.shape[0] == self.input_dim,
                f"expected input of dimension {self.input_dim}, got {h.shape[0]}")
        pre_acts: List[np.ndarray] = []
        for weight, bias in zip(self.weights[:-1], self.biases[:-1]):
            z = weight @ h + bias
            pre_acts.append(z)
            h = np.maximum(z, 0.0)
        return pre_acts


class Network:
    """A sequential feed-forward network.

    Parameters
    ----------
    layers:
        Layer instances, applied in order.
    input_shape:
        Per-sample input shape, e.g. ``(16,)`` for flat inputs or
        ``(1, 8, 8)`` for images.
    name:
        Optional human-readable name (used in benchmark tables).
    """

    def __init__(self, layers: Sequence[Layer], input_shape: Sequence[int],
                 name: str = "network") -> None:
        require(len(layers) > 0, "a network needs at least one layer")
        self.layers: List[Layer] = list(layers)
        self.input_shape: Tuple[int, ...] = tuple(int(d) for d in input_shape)
        self.name = str(name)
        # Validate shape compatibility eagerly so mistakes fail at build time.
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
        self._output_shape = shape
        self._lowered: Optional[LoweredNetwork] = None

    # -- basic properties ----------------------------------------------------
    @property
    def input_dim(self) -> int:
        return int(np.prod(self.input_shape))

    @property
    def output_shape(self) -> Tuple[int, ...]:
        return self._output_shape

    @property
    def output_dim(self) -> int:
        return int(np.prod(self._output_shape))

    @property
    def num_relu_neurons(self) -> int:
        return self.lowered().num_relu_neurons

    def layer_shapes(self) -> List[Tuple[int, ...]]:
        """Per-sample output shape after each layer, starting with the input."""
        shapes = [self.input_shape]
        for layer in self.layers:
            shapes.append(layer.output_shape(shapes[-1]))
        return shapes

    def summary(self) -> str:
        """Return a human-readable architecture summary."""
        lines = [f"Network {self.name!r}: input {self.input_shape}"]
        shape = self.input_shape
        for index, layer in enumerate(self.layers):
            shape = layer.output_shape(shape)
            params = sum(p.size for p in layer.parameters().values())
            lines.append(f"  [{index}] {type(layer).__name__:<8} -> {shape} ({params} params)")
        lines.append(f"  total ReLU neurons: {self.num_relu_neurons}")
        return "\n".join(lines)

    # -- inference -----------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Evaluate a batch shaped ``(batch, *input_shape)`` (or flat)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1 or x.shape[1:] != self.input_shape:
            x = x.reshape((-1,) + self.input_shape)
        h = x
        for layer in self.layers:
            h = layer.forward(h)
        return h

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate ``d loss / d output`` through the network."""
        grad = np.asarray(grad_output, dtype=float)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Return the argmax class label for each sample in the batch."""
        return np.argmax(self.forward(x), axis=1)

    def parameters(self) -> List[Tuple[Layer, str, np.ndarray]]:
        """All trainable parameters as ``(layer, name, array)`` triples."""
        out = []
        for layer in self.layers:
            for name, array in layer.parameters().items():
                out.append((layer, name, array))
        return out

    def num_parameters(self) -> int:
        return int(sum(array.size for _, _, array in self.parameters()))

    # -- lowering ------------------------------------------------------------
    def lowered(self) -> LoweredNetwork:
        """Return (and cache) the canonical affine/ReLU form of the network."""
        if self._lowered is None:
            self._lowered = self._build_lowered()
        return self._lowered

    def invalidate_lowered(self) -> None:
        """Drop the cached lowering (call after mutating parameters)."""
        self._lowered = None

    def _build_lowered(self) -> LoweredNetwork:
        weights: List[np.ndarray] = []
        biases: List[np.ndarray] = []
        # Current accumulated affine map (matrix over the flattened input of
        # the current segment) and the segment's input shape.
        current_w: Optional[np.ndarray] = None
        current_b: Optional[np.ndarray] = None
        shape = self.input_shape
        for layer in self.layers:
            if layer.is_relu:
                require(current_w is not None,
                        "a ReLU layer cannot appear before any affine layer")
                weights.append(current_w)
                biases.append(current_b)
                current_w, current_b = None, None
            elif layer.is_affine:
                w, b = layer.to_affine(shape)
                if current_w is None:
                    current_w, current_b = w, b
                else:
                    current_w = w @ current_w
                    current_b = w @ current_b + b
                shape = layer.output_shape(shape)
            else:  # pragma: no cover - defensive
                raise ValueError(f"cannot lower layer of type {type(layer).__name__}")
        require(current_w is not None,
                "the network must end with an affine layer (logits), not a ReLU")
        weights.append(current_w)
        biases.append(current_b)
        return LoweredNetwork(tuple(weights), tuple(biases), self.input_shape)

    # -- persistence ---------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Save architecture and weights to an ``.npz`` file."""
        path = Path(path)
        payload: Dict[str, np.ndarray] = {
            "__input_shape__": np.asarray(self.input_shape, dtype=np.int64),
            "__name__": np.asarray(self.name),
            "__num_layers__": np.asarray(len(self.layers), dtype=np.int64),
        }
        for index, layer in enumerate(self.layers):
            config = layer_config(layer)
            for key, value in config.items():
                payload[f"layer{index}__{key}"] = np.asarray(value)
        np.savez(path, **payload)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Network":
        """Load a network previously written by :meth:`save`."""
        with np.load(Path(path), allow_pickle=False) as data:
            input_shape = tuple(int(d) for d in data["__input_shape__"])
            name = str(data["__name__"])
            num_layers = int(data["__num_layers__"])
            layers: List[Layer] = []
            for index in range(num_layers):
                prefix = f"layer{index}__"
                config = {key[len(prefix):]: data[key] for key in data.files
                          if key.startswith(prefix)}
                config["kind"] = str(config["kind"])
                layers.append(layer_from_config(config))
        return cls(layers, input_shape, name=name)


def dense_network(layer_sizes: Sequence[int], seed: int = 0, name: str = "dense") -> Network:
    """Build a fully-connected ReLU network from a list of layer widths.

    ``layer_sizes = [in, h1, h2, out]`` produces
    ``Dense(in,h1) -> ReLU -> Dense(h1,h2) -> ReLU -> Dense(h2,out)``.
    """
    require(len(layer_sizes) >= 2, "need at least input and output sizes")
    layers: List[Layer] = []
    for index in range(len(layer_sizes) - 1):
        layers.append(Dense(layer_sizes[index], layer_sizes[index + 1],
                            seed=seed + index))
        if index < len(layer_sizes) - 2:
            layers.append(ReLU())
    return Network(layers, (layer_sizes[0],), name=name)
