"""Shared fixtures: small networks, specifications and suites used across tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_blob_dataset
from repro.nn import Conv2d, Dense, Flatten, Network, ReLU, dense_network
from repro.nn.training import TrainingConfig, train_network
from repro.specs import local_robustness_spec
from repro.utils import Budget


@pytest.fixture(scope="session")
def tiny_network() -> Network:
    """A 2-16-3 untrained dense network (fast, deterministic)."""
    return dense_network([2, 6, 3], seed=0, name="tiny")


@pytest.fixture(scope="session")
def small_network() -> Network:
    """A 4-8-6-3 untrained dense network used by the bound/verifier tests."""
    return dense_network([4, 8, 6, 3], seed=1, name="small")


@pytest.fixture(scope="session")
def conv_network() -> Network:
    """A small convolutional network over 1x6x6 images."""
    layers = [Conv2d(1, 2, kernel_size=3, stride=1, padding=1, seed=2), ReLU(),
              Flatten(), Dense(2 * 6 * 6, 8, seed=3), ReLU(), Dense(8, 3, seed=4)]
    return Network(layers, (1, 6, 6), name="conv-small")


@pytest.fixture(scope="session")
def trained_network():
    """A trained classifier over the blob dataset, with its dataset.

    Training makes the ReLU stability pattern realistic, which several BaB
    and experiment tests rely on.
    """
    dataset = make_blob_dataset(count=160, size=5, num_classes=3, seed=7)
    layers = [Flatten(), Dense(25, 12, seed=0), ReLU(), Dense(12, 10, seed=1), ReLU(),
              Dense(10, 3, seed=2)]
    network = Network(layers, dataset.image_shape, name="trained-blobs")
    train_network(network, dataset.inputs, dataset.labels,
                  TrainingConfig(epochs=15, batch_size=32, seed=0))
    return network, dataset


@pytest.fixture()
def small_spec(small_network):
    """A robustness spec around a fixed point for the small dense network."""
    reference = np.array([0.45, 0.55, 0.5, 0.4])
    label = int(small_network.predict(reference.reshape(1, -1))[0])
    return local_robustness_spec(reference, 0.08, label, 3, name="small-spec")


@pytest.fixture()
def node_budget() -> Budget:
    """A generous node-only budget for deterministic verifier tests."""
    return Budget(max_nodes=2000)


def make_robustness_problem(network: Network, reference: np.ndarray, epsilon: float):
    """Helper used by several test modules to build a robustness problem."""
    reference = np.asarray(reference, dtype=float).reshape(-1)
    label = int(network.predict(reference.reshape(1, -1))[0])
    num_classes = network.output_dim
    return local_robustness_spec(reference, epsilon, label, num_classes)


def make_random_dense_problem(seed: int, depth: int, width: int, epsilon: float):
    """A random dense lowered network plus a robustness spec around a random point."""
    rng = np.random.default_rng(seed)
    input_dim = int(rng.integers(3, 6))
    num_classes = int(rng.integers(2, 5))
    layers = [Flatten()]
    previous = input_dim
    for index in range(depth):
        layers.append(Dense(previous, width, seed=seed * 31 + index))
        layers.append(ReLU())
        previous = width
    layers.append(Dense(previous, num_classes, seed=seed * 31 + depth))
    network = Network(layers, (input_dim,), name=f"rand-{seed}")
    reference = rng.uniform(0.2, 0.8, size=input_dim)
    label = int(network.predict(reference.reshape(1, -1))[0])
    spec = local_robustness_spec(reference, epsilon, label, num_classes)
    return network.lowered(), spec
