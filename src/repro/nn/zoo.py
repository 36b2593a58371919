"""Model zoo mirroring the paper's five benchmark model families.

The paper (Table I) evaluates five models:

========== ========== ===================== =========
paper name dataset    architecture          #neurons
========== ========== ===================== =========
MNIST_L2   MNIST      2 x 256 linear        512
MNIST_L4   MNIST      4 x 256 linear        1024
CIFAR_BASE CIFAR-10   2 conv, 2 linear      4852
CIFAR_WIDE CIFAR-10   2 conv (wide), 2 lin  6244
CIFAR_DEEP CIFAR-10   4 conv, 2 linear      6756
========== ========== ===================== =========

This reproduction keeps the *relative* structure (two dense families on the
single-channel dataset, three convolutional families of increasing width /
depth on the multi-channel dataset) but scales the widths down so that the
complete evaluation — hundreds of verification problems, each solved by
three verifiers — runs on a laptop with a pure-numpy bound-propagation
backend.  The substitution is recorded in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.datasets.synthetic import Dataset, make_blob_dataset, make_stripe_dataset
from repro.nn.layers import Conv2d, Dense, Flatten, ReLU
from repro.nn.network import Network
from repro.nn.training import TrainingConfig, train_network
from repro.utils.validation import require


@dataclass(frozen=True)
class ModelFamily:
    """A named benchmark model family: how to build its dataset and network."""

    name: str
    dataset_name: str
    architecture: str
    build_dataset: Callable[[int], Dataset]
    build_network: Callable[[Dataset, int], Network]
    training: TrainingConfig


def _blob_dataset(seed: int) -> Dataset:
    return make_blob_dataset(count=320, size=7, num_classes=4, noise=0.12,
                             seed=seed, name="blobs-7x7")


def _stripe_dataset(seed: int) -> Dataset:
    return make_stripe_dataset(count=320, size=8, channels=3, num_classes=4,
                               noise=0.1, seed=seed, name="stripes-3x8x8")


def _dense_model(dataset: Dataset, hidden: List[int], seed: int, name: str) -> Network:
    input_dim = 1
    for dim in dataset.image_shape:
        input_dim *= dim
    layers = [Flatten()]
    previous = input_dim
    for index, width in enumerate(hidden):
        layers.append(Dense(previous, width, seed=seed + index))
        layers.append(ReLU())
        previous = width
    layers.append(Dense(previous, dataset.num_classes, seed=seed + len(hidden)))
    return Network(layers, dataset.image_shape, name=name)


def _conv_model(dataset: Dataset, conv_channels: List[int], dense_width: int,
                seed: int, name: str) -> Network:
    channels = dataset.image_shape[0]
    layers = []
    previous = channels
    for index, out_channels in enumerate(conv_channels):
        stride = 2 if index == 0 else 1
        layers.append(Conv2d(previous, out_channels, kernel_size=3, stride=stride,
                             padding=1, seed=seed + index))
        layers.append(ReLU())
        previous = out_channels
    layers.append(Flatten())
    probe = Network(list(layers), dataset.image_shape, name="probe")
    flat_dim = probe.output_dim
    layers.append(Dense(flat_dim, dense_width, seed=seed + 100))
    layers.append(ReLU())
    layers.append(Dense(dense_width, dataset.num_classes, seed=seed + 101))
    return Network(layers, dataset.image_shape, name=name)


_DEFAULT_TRAINING = TrainingConfig(epochs=25, batch_size=32, learning_rate=0.05,
                                   momentum=0.9, weight_decay=1e-4, optimizer="sgd")
_CONV_TRAINING = TrainingConfig(epochs=25, batch_size=32, learning_rate=0.02,
                                momentum=0.9, weight_decay=1e-4, optimizer="adam")


MODEL_FAMILIES: Dict[str, ModelFamily] = {
    "MNIST_L2": ModelFamily(
        name="MNIST_L2",
        dataset_name="blobs-7x7",
        architecture="2 x 24 linear",
        build_dataset=_blob_dataset,
        build_network=lambda ds, seed: _dense_model(ds, [24, 24], seed, "MNIST_L2"),
        training=_DEFAULT_TRAINING,
    ),
    "MNIST_L4": ModelFamily(
        name="MNIST_L4",
        dataset_name="blobs-7x7",
        architecture="4 x 16 linear",
        build_dataset=_blob_dataset,
        build_network=lambda ds, seed: _dense_model(ds, [16, 16, 16, 16], seed, "MNIST_L4"),
        training=_DEFAULT_TRAINING,
    ),
    "CIFAR_BASE": ModelFamily(
        name="CIFAR_BASE",
        dataset_name="stripes-3x8x8",
        architecture="2 conv, 2 linear",
        build_dataset=_stripe_dataset,
        build_network=lambda ds, seed: _conv_model(ds, [4, 4], 24, seed, "CIFAR_BASE"),
        training=_CONV_TRAINING,
    ),
    "CIFAR_WIDE": ModelFamily(
        name="CIFAR_WIDE",
        dataset_name="stripes-3x8x8",
        architecture="2 conv (wide), 2 linear",
        build_dataset=_stripe_dataset,
        build_network=lambda ds, seed: _conv_model(ds, [6, 6], 32, seed, "CIFAR_WIDE"),
        training=_CONV_TRAINING,
    ),
    "CIFAR_DEEP": ModelFamily(
        name="CIFAR_DEEP",
        dataset_name="stripes-3x8x8",
        architecture="4 conv, 2 linear",
        build_dataset=_stripe_dataset,
        build_network=lambda ds, seed: _conv_model(ds, [4, 4, 4, 4], 24, seed, "CIFAR_DEEP"),
        training=_CONV_TRAINING,
    ),
}

#: Paper order of the model families (used by tables and figures).
FAMILY_ORDER: Tuple[str, ...] = ("MNIST_L2", "MNIST_L4", "CIFAR_BASE",
                                 "CIFAR_WIDE", "CIFAR_DEEP")

_TRAINED_CACHE: Dict[Tuple[str, int], Tuple[Network, Dataset]] = {}


def family(name: str) -> ModelFamily:
    """Look up a model family by name."""
    require(name in MODEL_FAMILIES,
            f"unknown model family {name!r}; available: {sorted(MODEL_FAMILIES)}")
    return MODEL_FAMILIES[name]


def build_trained_model(name: str, seed: int = 0,
                        use_cache: bool = True) -> Tuple[Network, Dataset]:
    """Build the dataset and a trained network for a model family.

    Results are cached per ``(name, seed)`` because the experiment harness
    evaluates many verification instances against the same trained model.
    """
    key = (name, int(seed))
    if use_cache and key in _TRAINED_CACHE:
        return _TRAINED_CACHE[key]
    spec = family(name)
    dataset = spec.build_dataset(seed)
    network = spec.build_network(dataset, seed)
    train_network(network, dataset.inputs, dataset.labels, spec.training)
    if use_cache:
        _TRAINED_CACHE[key] = (network, dataset)
    return network, dataset


def clear_model_cache() -> None:
    """Drop all cached trained models (used by tests)."""
    _TRAINED_CACHE.clear()
