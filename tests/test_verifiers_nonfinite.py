"""Hostile and degenerate inputs at the verifier and service boundary.

A NaN bound fails the ``lower <= upper + 1e-12`` emptiness test, so a
network with one NaN weight or infinite bias used to have every region
read as empty and come back VERIFIED.  Lowering now rejects non-finite
parameters: each verifier raises ``ValueError`` and the service turns the
job into a structured ``InvalidRequest`` rejection.  The point box
(``ε = 0``) is the opposite corner case and must stay exact.  An extreme
but finite input box overflows the bounds to NaN instead; see the
section at the end.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.bab import BaBBaselineVerifier
from repro.baselines.alphabeta_crown import AlphaBetaCrownVerifier
from repro.bounds.deeppoly import DeepPolyAnalyzer
from repro.bounds.linear_form import ScalarBounds
from repro.bounds.report import FlatBounds
from repro.bounds.splits import (
    ACTIVE,
    INACTIVE,
    ReluSplit,
    clip_bounds_with_phases,
)
from repro.core.abonn import AbonnVerifier
from repro.core.config import AbonnConfig
from repro.nn import dense_network
from repro.nn.zoo import build_trained_model
from repro.service import VerificationService
from repro.specs.properties import InputBox, Specification
from repro.specs.robustness import local_robustness_spec, robustness_output_spec
from repro.utils.timing import Budget
from repro.verifiers.result import VerificationStatus

REFERENCE = np.array([0.3, 0.7, 0.5, 0.2])

VERIFIERS = {
    "abonn": lambda: AbonnVerifier(AbonnConfig()),
    "bab-baseline": BaBBaselineVerifier,
    "alphabeta-crown": AlphaBetaCrownVerifier,
}


def _network(seed: int = 3):
    return dense_network([4, 6, 3], seed=seed, name="hostile")


def _poisoned(kind: str):
    """A 4-6-3 network with one NaN weight or one infinite bias."""
    network = _network()
    dense = network.layers[0] if kind == "nan-weight" else network.layers[2]
    if kind == "nan-weight":
        dense.weight[2, 1] = np.nan
    else:
        dense.bias[0] = np.inf
    network.invalidate_lowered()
    return network


def _spec(network, epsilon: float, label=None):
    if label is None:
        label = int(network.predict(REFERENCE.reshape(1, -1))[0])
    return local_robustness_spec(REFERENCE, epsilon, label, 3)


@pytest.mark.parametrize("kind", ["nan-weight", "inf-bias"])
def test_lowering_rejects_nonfinite_parameters(kind):
    with pytest.raises(ValueError, match="finite"):
        _poisoned(kind).lowered()


@pytest.mark.parametrize("kind", ["nan-weight", "inf-bias"])
@pytest.mark.parametrize("name", sorted(VERIFIERS))
def test_verifiers_raise_instead_of_verifying(name, kind):
    network = _poisoned(kind)
    spec = _spec(_network(), 0.05)
    with pytest.raises(ValueError, match="finite"):
        VERIFIERS[name]().verify(network, spec, Budget(max_nodes=50))


@pytest.mark.parametrize("kind", ["nan-weight", "inf-bias"])
def test_service_rejects_the_job_and_runs_the_next(kind):
    good = _network()
    spec = _spec(good, 0.05)
    service = VerificationService()
    with service:
        bad_id = service.submit(_poisoned(kind), spec, budget=Budget(max_nodes=50))
        good_id = service.submit(good, spec, budget=Budget(max_nodes=50))
        results = {done.job_id: done for done in service.as_completed()}
    assert set(results) == {bad_id, good_id}
    bad = results[bad_id]
    assert not bad.ok
    assert bad.result is None
    assert bad.error.kind == "InvalidRequest"
    assert bad.error.stage == "submit"
    assert bad.attempts == 0
    assert "finite" in bad.error.message
    assert results[good_id].ok
    assert results[good_id].result.status in (VerificationStatus.VERIFIED,
                                              VerificationStatus.FALSIFIED,
                                              VerificationStatus.TIMEOUT)


@pytest.mark.parametrize("name", sorted(VERIFIERS))
def test_point_box_is_decided_exactly(name):
    """ε = 0: the true label is VERIFIED, any other label FALSIFIED."""
    network = _network()
    label = int(network.predict(REFERENCE.reshape(1, -1))[0])
    verified = VERIFIERS[name]().verify(network, _spec(network, 0.0, label),
                                        Budget(max_nodes=50))
    assert verified.status == VerificationStatus.VERIFIED
    wrong = (label + 1) % 3
    falsified = VERIFIERS[name]().verify(network, _spec(network, 0.0, wrong),
                                         Budget(max_nodes=50))
    assert falsified.status == VerificationStatus.FALSIFIED
    np.testing.assert_array_equal(falsified.counterexample, REFERENCE)


# -- extreme but finite input boxes ---------------------------------------------
#
# A ``±1e308`` box (or the point box at ``1e308``) is finite, so VNN-LIB and
# ``InputBox`` accept it, but DeepPoly overflows to ``inf − inf = NaN`` and a
# NaN bound used to read as an empty region: p̂ became +inf and every
# verifier answered VERIFIED.  NaN now never reads as empty, and a root
# report with non-finite bounds raises ``ValueError``.  A ``±1e300`` box
# does not overflow and is still FALSIFIED.

def _extreme_problem(lower: float, upper: float):
    """Trained MNIST_L2 with "class 0 wins" over a constant box."""
    network, _ = build_trained_model("MNIST_L2", 0)
    dimension = network.lowered().input_dim
    box = InputBox(np.full(dimension, lower), np.full(dimension, upper))
    return network, Specification(box, robustness_output_spec(network.output_dim, 0))


EXTREME_BOXES = {"wide-1e308": (-1e308, 1e308), "point-1e308": (1e308, 1e308)}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("box", sorted(EXTREME_BOXES))
@pytest.mark.parametrize("name", sorted(VERIFIERS))
def test_overflowing_box_raises_instead_of_verifying(name, box):
    network, spec = _extreme_problem(*EXTREME_BOXES[box])
    with pytest.raises(ValueError, match="finite"):
        VERIFIERS[name]().verify(network, spec, Budget(max_nodes=50))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(VERIFIERS))
def test_large_box_without_overflow_is_falsified(name):
    network, spec = _extreme_problem(-1e300, 1e300)
    result = VERIFIERS[name]().verify(network, spec, Budget(max_nodes=50))
    assert result.status == VerificationStatus.FALSIFIED
    assert spec.is_counterexample(network, result.counterexample)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_bounds_never_read_as_empty():
    lower = np.array([[np.nan, 0.0], [1.0, 0.0]])
    upper = np.array([[0.5, np.nan], [0.0, 1.0]])
    _, _, empty = clip_bounds_with_phases(lower.copy(), upper.copy(), None)
    np.testing.assert_array_equal(empty, [False, True])
    # A child clipped at a neuron whose parent bound is NaN is not empty.
    network = dense_network([2, 3, 2], seed=0).lowered()
    spec = local_robustness_spec(np.array([0.5, 0.5]), 0.1, 0, 2)
    analyzer = DeepPolyAnalyzer(network)
    root = analyzer.analyze(spec.input_box, spec=spec.output_spec)
    for lower, upper in ((np.nan, 1.0), (-1.0, np.nan)):
        layers = list(root.pre_activation_bounds)
        layers[0] = ScalarBounds(np.array([lower, -1.0, -1.0]),
                                 np.array([upper, 1.0, 1.0]))
        parent = dataclasses.replace(root, hidden_bounds=FlatBounds(layers))
        for phase in (ACTIVE, INACTIVE):
            split = ReluSplit(0, 0, phase)
            child = analyzer.analyze(spec.input_box,
                                     analyzer.root_splits.with_split(split),
                                     spec=spec.output_spec, parent=(parent, split))
            assert not child.infeasible


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_service_fails_the_overflowing_job_and_runs_the_next():
    network, bad_spec = _extreme_problem(-1e308, 1e308)
    _, good_spec = _extreme_problem(-1e300, 1e300)
    service = VerificationService()
    with service:
        bad_id = service.submit(network, bad_spec, budget=Budget(max_nodes=50))
        good_id = service.submit(network, good_spec, budget=Budget(max_nodes=50))
        results = {done.job_id: done for done in service.as_completed()}
    assert set(results) == {bad_id, good_id}
    bad = results[bad_id]
    assert not bad.ok and bad.result is None
    assert bad.error.kind == "ValueError"
    assert bad.error.stage == "setup"
    assert "finite" in bad.error.message
    assert results[good_id].ok
    assert results[good_id].result.status == VerificationStatus.FALSIFIED
