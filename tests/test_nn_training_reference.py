"""Exact tests: the gather/bincount ``Conv2d`` and the flat optimiser step.

Each test runs the library next to the loops it replaced
(:mod:`tests.reference_training`) and demands equal bits, including the sign
of zeros: a reordered sum fails them.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_training import ReferenceConv2d, ReferenceTrainer, reference_copy
from repro.nn.layers import Conv2d
from repro.nn.training import Trainer
from repro.nn.zoo import family


def assert_bits_equal(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


@st.composite
def conv_cases(draw):
    kernel = draw(st.integers(1, 3))
    padding = draw(st.integers(0, 2))
    smallest = max(1, kernel - 2 * padding)
    return dict(
        in_channels=draw(st.integers(1, 6)),
        out_channels=draw(st.integers(1, 6)),
        kernel=kernel,
        stride=draw(st.integers(1, 2)),
        padding=padding,
        batch=draw(st.integers(1, 40)),
        height=draw(st.integers(smallest, 9)),
        width=draw(st.integers(smallest, 9)),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=100, deadline=None)
@given(case=conv_cases())
def test_conv2d_matches_strided_loops(case):
    rng = np.random.default_rng(case["seed"])
    reference = ReferenceConv2d(case["in_channels"], case["out_channels"], case["kernel"],
                                stride=case["stride"], padding=case["padding"],
                                seed=case["seed"])
    layer = Conv2d(reference.in_channels, reference.out_channels, reference.kernel_size,
                   stride=reference.stride, padding=reference.padding,
                   weight=reference.weight.copy(), bias=reference.bias.copy())
    x = rng.normal(size=(case["batch"], case["in_channels"], case["height"], case["width"]))
    # Exact zeros of both signs exercise the signbit comparison.
    x[rng.random(x.shape) < 0.2] = 0.0
    x[rng.random(x.shape) < 0.1] = -0.0
    out = layer.forward(x)
    assert_bits_equal(out, reference.forward(x))
    grad = rng.normal(size=out.shape)
    grad[rng.random(grad.shape) < 0.3] = -0.0
    assert_bits_equal(layer.backward(grad), reference.backward(grad))
    assert_bits_equal(layer.grad_weight, reference.grad_weight)
    assert_bits_equal(layer.grad_bias, reference.grad_bias)
    # The lowered matrix behind every bound: the identity basis as one batch.
    shape = x.shape[1:]
    for actual, wanted in zip(layer.to_affine(shape), reference.to_affine(shape)):
        assert_bits_equal(actual, wanted)
    # Another spatial shape on the same layer must not reuse the cached index.
    taller = rng.normal(size=(2, case["in_channels"], case["height"] + 1, case["width"]))
    assert_bits_equal(layer.forward(taller), reference.forward(taller))


@pytest.mark.parametrize("name", ["MNIST_L2", "CIFAR_BASE"])
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_trained_weights_match_reference(name, optimizer):
    spec = family(name)
    dataset = spec.build_dataset(0)
    network = spec.build_network(dataset, 0)
    reference = reference_copy(network)
    config = dataclasses.replace(spec.training, epochs=3, optimizer=optimizer)
    history = Trainer(network, config).fit(dataset.inputs, dataset.labels)
    expected = ReferenceTrainer(reference, config).fit(dataset.inputs, dataset.labels)
    assert history.losses == expected.losses
    assert history.accuracies == expected.accuracies
    for (_, _, actual), (_, _, wanted) in zip(network.parameters(), reference.parameters()):
        assert_bits_equal(actual, wanted)
