"""ABONN reproduction: adaptive branch-and-bound tree exploration for NN verification.

The package is organised as:

* :mod:`repro.nn` — neural-network substrate (layers, training, model zoo);
* :mod:`repro.datasets` — synthetic MNIST/CIFAR-10 stand-ins;
* :mod:`repro.specs` — verification specifications and VNN-LIB I/O;
* :mod:`repro.bounds` — approximated verifiers (DeepPoly/CROWN and α-CROWN,
  each bounding a required output specification);
* :mod:`repro.verifiers` — AppVer wrapper, PGD attacks, MILP/LP back-ends;
* :mod:`repro.bab` — branch-and-bound substrate and the BaB-baseline;
* :mod:`repro.core` — the paper's contribution (counterexample potentiality,
  MCTS-style exploration, the ABONN verifier);
* :mod:`repro.baselines` — the αβ-CROWN-like baseline;
* :mod:`repro.service` — the verification service (job scheduling, cache
  pooling, batch/streaming APIs over every verifier);
* :mod:`repro.experiments` — the trained benchmark suite (``suite.py``);
  ``benchmarks/bench_rq1.py`` runs the verifiers on it for Table II.

Quickstart::

    from repro import AbonnVerifier, dense_network, local_robustness_spec

    network = dense_network([4, 16, 16, 3], seed=0)
    spec = local_robustness_spec(reference=[0.5, 0.5, 0.5, 0.5], epsilon=0.05,
                                 label=0, num_classes=3)
    result = AbonnVerifier().verify(network, spec)
    print(result.status, result.counterexample)
"""

from repro.bab import BaBBaselineVerifier
from repro.baselines import AlphaBetaCrownVerifier
from repro.core import AbonnConfig, AbonnVerifier, counterexample_potentiality
from repro.nn import Network, build_trained_model, dense_network
from repro.specs import (
    InputBox,
    LinearOutputSpec,
    Specification,
    load_vnnlib,
    local_robustness_spec,
    save_vnnlib,
)
from repro.utils import Budget
from repro.verifiers import (
    ApproximateVerifier,
    MilpVerifier,
    VerificationResult,
    VerificationStatus,
    pgd_attack,
)

# The service layer sits above every verifier, so it imports last.
from repro.service import ServiceConfig, VerificationService

__version__ = "1.0.0"

__all__ = [
    "AbonnConfig",
    "AbonnVerifier",
    "AlphaBetaCrownVerifier",
    "ApproximateVerifier",
    "BaBBaselineVerifier",
    "Budget",
    "InputBox",
    "LinearOutputSpec",
    "MilpVerifier",
    "Network",
    "ServiceConfig",
    "Specification",
    "VerificationResult",
    "VerificationStatus",
    "VerificationService",
    "build_trained_model",
    "counterexample_potentiality",
    "dense_network",
    "load_vnnlib",
    "local_robustness_spec",
    "pgd_attack",
    "save_vnnlib",
    "__version__",
]
