"""The shared frontier-driver engine used by every BaB-style verifier.

:mod:`repro.engine.driver` owns the gather → flatten → batched-bound →
attach loop that ABONN, the BaB baseline, and the αβ-CROWN baseline all
execute, and the run, result and expansion path they share; the verifiers
only supply a :class:`~repro.engine.driver.WorkSource` describing where
sub-problems come from and where their children go, plus the ``finish``
function that names their own result keys.  See ``docs/ENGINE.md`` for the
full contract.
"""

from repro.engine.driver import (
    DriverRun,
    DriverVerdict,
    Expansion,
    FrontierDriver,
    LinearWorkSource,
    WorkSource,
)

__all__ = [
    "DriverRun",
    "DriverVerdict",
    "Expansion",
    "FrontierDriver",
    "LinearWorkSource",
    "WorkSource",
]
