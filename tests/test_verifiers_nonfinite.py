"""Hostile and degenerate inputs at the verifier and service boundary.

A NaN bound fails the ``lower <= upper + 1e-12`` emptiness test, so a
network with one NaN weight or infinite bias used to have every region
read as empty and come back VERIFIED.  Lowering now rejects non-finite
parameters: each verifier raises ``ValueError`` and the service turns the
job into a structured ``InvalidRequest`` rejection.  The point box
(``ε = 0``) is the opposite corner case and must stay exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bab import BaBBaselineVerifier
from repro.baselines.alphabeta_crown import AlphaBetaCrownVerifier
from repro.core.abonn import AbonnVerifier
from repro.core.config import AbonnConfig
from repro.nn import dense_network
from repro.service import VerificationService
from repro.specs.robustness import local_robustness_spec
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
