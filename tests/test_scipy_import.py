"""SciPy's LP stack loads only in a process that solves a leaf LP.

:mod:`repro.verifiers.milp` imports SciPy inside the functions that build
or solve a HiGHS program, so importing the package, bounding, fingerprinting
and running a search whose leaves never reach HiGHS leave
``scipy.optimize`` out of ``sys.modules``.  Each check runs in a fresh
interpreter, because pytest's own process has SciPy loaded by other test
modules.  The child imports this module for its problems, so it must stay
free of SciPy imports itself.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.alphabeta_crown import AlphaBetaCrownVerifier
from repro.core.abonn import AbonnVerifier
from repro.nn import Conv2d, Dense, Flatten, Network, ReLU, dense_network
from repro.specs import local_robustness_spec
from repro.utils import Budget

BUDGET_NODES = 60
TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def conv_problem():
    """A conv network whose BaB verifies without reaching a leaf LP."""
    layers = [Conv2d(1, 2, kernel_size=3, stride=1, padding=1, seed=2), ReLU(),
              Flatten(), Dense(2 * 6 * 6, 8, seed=3), ReLU(), Dense(8, 3, seed=4)]
    network = Network(layers, (1, 6, 6), name="conv-small")
    reference = np.linspace(0.2, 0.8, 36)
    label = int(network.predict(reference.reshape(1, -1))[0])
    return network, local_robustness_spec(reference, 0.015, label, 3)


def lp_problem():
    """A dense network whose ABONN run sends one leaf to HiGHS."""
    network = dense_network([6, 10, 8, 4], seed=1)
    reference = np.full(6, 0.5)
    label = int(network.predict(reference.reshape(1, -1))[0])
    return network, local_robustness_spec(reference, 0.1, label, 4)


def summary(result) -> list:
    """What must not change when SciPy loads later: verdict, search, bound."""
    return [result.status.value, result.nodes_explored, result.tree_size,
            result.bound]


def budget() -> Budget:
    return Budget(max_nodes=BUDGET_NODES)


def _run_child(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; returns the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_BOUNDARY = """
import json, sys
import repro, repro.service, repro.core.abonn, repro.baselines.alphabeta_crown
from repro.baselines.alphabeta_crown import AlphaBetaCrownVerifier
from repro.core.abonn import AbonnVerifier
from repro.service import ServiceConfig, VerificationService
from test_scipy_import import budget, conv_problem, lp_problem, summary

out = {"after_import": "scipy.optimize" in sys.modules}
conv = conv_problem()
out["abonn"] = summary(AbonnVerifier().verify(*conv, budget()))
out["alphabeta"] = summary(AlphaBetaCrownVerifier().verify(*conv, budget()))
with VerificationService(ServiceConfig(pool_size=1)) as service:
    job = service.submit(*conv, budget=budget())
    service.run_until_complete()
    out["service"] = summary(service.result(job).result)
out["before_lp"] = "scipy.optimize" in sys.modules
result = AbonnVerifier().verify(*lp_problem(), budget())
out["lp"] = summary(result)
out["lp_cache"] = result.extras["lp_cache"]
out["after_lp"] = "scipy.optimize" in sys.modules
print(json.dumps(out))
"""

_FORKED_WORKER = """
import json, sys
from repro.service import ServiceConfig, VerificationService
from test_scipy_import import budget, lp_problem, summary

config = ServiceConfig(pool_size=1, transport="process",
                       process_start_method="fork")
with VerificationService(config) as service:
    job = service.submit(*lp_problem(), budget=budget())
    service.run_until_complete()
    done = service.result(job)
    stats = service.stats()
print(json.dumps({"ok": done.ok,
                  "in_worker": (stats["jobs_inline"] == 0
                                and not stats["transport_downgrades"]),
                  "result": summary(done.result),
                  "lp_cache": done.result.extras["lp_cache"],
                  "parent_loaded": "scipy.optimize" in sys.modules}))
"""


def _reached_highs(lp_cache: dict) -> bool:
    """Whether some leaf resolution went past the emptiness certificate."""
    return lp_cache["solves"] > lp_cache["proven_empty"]


def test_only_a_leaf_lp_loads_scipy():
    out = _run_child(_BOUNDARY)
    assert not out["after_import"]
    assert not out["before_lp"]
    conv = conv_problem()
    assert out["abonn"] == summary(AbonnVerifier().verify(*conv, budget()))
    assert out["alphabeta"] == summary(
        AlphaBetaCrownVerifier().verify(*conv, budget()))
    assert out["service"] == out["abonn"]
    assert _reached_highs(out["lp_cache"])
    assert out["after_lp"]
    assert out["lp"] == summary(AbonnVerifier().verify(*lp_problem(), budget()))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the fork start method is unavailable")
def test_forked_worker_loads_scipy_not_its_parent():
    out = _run_child(_FORKED_WORKER)
    assert out["ok"]
    assert out["in_worker"]
    assert _reached_highs(out["lp_cache"])
    assert out["result"] == summary(
        AbonnVerifier().verify(*lp_problem(), budget()))
    assert not out["parent_loaded"]
