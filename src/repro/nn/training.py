"""A small numpy trainer used to produce realistic verification targets.

The paper evaluates verification on *trained* MNIST/CIFAR-10 networks; the
distribution of stable/unstable ReLUs (and therefore BaB behaviour) depends
on training.  This module trains the laptop-scale model-zoo networks on the
synthetic datasets with mini-batch SGD (optionally Adam) and a softmax
cross-entropy loss.

Each optimiser step works on one flat vector: the step concatenates every
layer's gradients and parameters, keeps the momentum (or Adam's ``m`` and
``v``) as flat vectors, and subtracts each layer's slice of the update from
that layer's own parameter array in place.  Every operation is elementwise,
so each weight receives exactly the value a per-parameter loop computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.nn.network import Network
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import require


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def cross_entropy_loss(logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
    """Return mean cross-entropy loss and its gradient w.r.t. the logits."""
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=int)
    require(logits.ndim == 2, "logits must be (batch, classes)")
    require(labels.shape == (logits.shape[0],), "labels must be a vector matching the batch")
    probabilities = softmax(logits)
    batch = logits.shape[0]
    picked = probabilities[np.arange(batch), labels]
    loss = float(-np.log(np.clip(picked, 1e-12, None)).mean())
    grad = probabilities.copy()
    grad[np.arange(batch), labels] -= 1.0
    return loss, grad / batch


def accuracy(network: Network, inputs: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of samples classified correctly."""
    predictions = network.predict(inputs)
    return float(np.mean(predictions == np.asarray(labels)))


@dataclass
class TrainingConfig:
    """Hyperparameters for :class:`Trainer`."""

    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    optimizer: str = "sgd"  # "sgd" or "adam"
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        require(self.epochs >= 0, "epochs must be non-negative")
        require(self.batch_size > 0, "batch_size must be positive")
        require(self.learning_rate > 0, "learning_rate must be positive")
        require(self.optimizer in ("sgd", "adam"),
                f"unknown optimizer {self.optimizer!r}")


@dataclass
class TrainingHistory:
    """Per-epoch loss and accuracy recorded by the trainer."""

    losses: List[float] = field(default_factory=list)
    accuracies: List[float] = field(default_factory=list)

    @property
    def final_loss(self) -> Optional[float]:
        """The last epoch's mean loss, or ``None`` before any epoch."""
        return self.losses[-1] if self.losses else None

    @property
    def final_accuracy(self) -> Optional[float]:
        """The last epoch's training accuracy, or ``None`` before any epoch."""
        return self.accuracies[-1] if self.accuracies else None


class Trainer:
    """Mini-batch trainer with SGD+momentum or Adam updates."""

    def __init__(self, network: Network, config: Optional[TrainingConfig] = None) -> None:
        self.network = network
        self.config = config or TrainingConfig()
        # Optimiser state over the flat parameter vector (see the module docstring).
        self._momentum: Optional[np.ndarray] = None
        self._adam_m: Optional[np.ndarray] = None
        self._adam_v: Optional[np.ndarray] = None
        self._adam_t = 0

    def fit(self, inputs: np.ndarray, labels: np.ndarray,
            rng: SeedLike = None) -> TrainingHistory:
        """Train the network in place and return the training history.

        The layers' forward caches are dropped at the end, so the trained
        network does not hold the last full-dataset accuracy forward.
        """
        config = self.config
        rng = as_rng(config.seed if rng is None else rng)
        inputs = np.asarray(inputs, dtype=float)
        labels = np.asarray(labels, dtype=int)
        require(inputs.shape[0] == labels.shape[0],
                "inputs and labels must have the same number of samples")
        history = TrainingHistory()
        count = inputs.shape[0]
        for _ in range(config.epochs):
            order = rng.permutation(count) if config.shuffle else np.arange(count)
            epoch_losses = []
            for start in range(0, count, config.batch_size):
                batch_index = order[start:start + config.batch_size]
                loss = self._step(inputs[batch_index], labels[batch_index])
                epoch_losses.append(loss)
            history.losses.append(float(np.mean(epoch_losses)))
            history.accuracies.append(accuracy(self.network, inputs, labels))
        for layer in self.network.layers:
            layer.clear_caches()
        self.network.invalidate_lowered()
        return history

    def _step(self, batch_inputs: np.ndarray, batch_labels: np.ndarray) -> float:
        logits = self.network.forward(batch_inputs)
        loss, grad_logits = cross_entropy_loss(logits, batch_labels)
        self.network.backward(grad_logits)
        if self.config.optimizer == "adam":
            self._apply_adam()
        else:
            self._apply_sgd()
        return loss

    def _flat_gradient(self) -> Tuple[List[np.ndarray], np.ndarray]:
        """Every parameter array, and the weight-decayed gradient as one vector."""
        params: List[np.ndarray] = []
        grads: List[np.ndarray] = []
        for layer in self.network.layers:
            gradients = layer.gradients()
            for name, param in layer.parameters().items():
                params.append(param)
                grads.append(gradients[name])
        if not params:
            return params, np.zeros(0)
        flat_params = np.concatenate([param.ravel() for param in params])
        flat_grads = np.concatenate([grad.ravel() for grad in grads])
        return params, flat_grads + self.config.weight_decay * flat_params

    @staticmethod
    def _subtract(params: List[np.ndarray], update: np.ndarray) -> None:
        """Subtract each parameter's slice of the flat ``update`` in place."""
        offset = 0
        for param in params:
            param -= update[offset:offset + param.size].reshape(param.shape)
            offset += param.size

    def _apply_sgd(self) -> None:
        config = self.config
        params, grad = self._flat_gradient()
        if self._momentum is None:
            self._momentum = np.zeros_like(grad)
        self._momentum = config.momentum * self._momentum + grad
        self._subtract(params, config.learning_rate * self._momentum)

    def _apply_adam(self, beta1: float = 0.9, beta2: float = 0.999,
                    epsilon: float = 1e-8) -> None:
        config = self.config
        self._adam_t += 1
        params, grad = self._flat_gradient()
        if self._adam_m is None:
            self._adam_m = np.zeros_like(grad)
            self._adam_v = np.zeros_like(grad)
        self._adam_m = beta1 * self._adam_m + (1 - beta1) * grad
        self._adam_v = beta2 * self._adam_v + (1 - beta2) * grad * grad
        m_hat = self._adam_m / (1 - beta1 ** self._adam_t)
        v_hat = self._adam_v / (1 - beta2 ** self._adam_t)
        self._subtract(params, config.learning_rate * m_hat / (np.sqrt(v_hat) + epsilon))


def train_network(network: Network, inputs: np.ndarray, labels: np.ndarray,
                  config: Optional[TrainingConfig] = None) -> TrainingHistory:
    """Convenience wrapper: train ``network`` in place and return the history."""
    return Trainer(network, config).fit(inputs, labels)
