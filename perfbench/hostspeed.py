"""Host-speed probe: reports timings in seconds of a reference host.

The hosts this benchmark runs on are shared.  On a 2-vCPU 2.1 GHz Xeon VM,
the same single-threaded code runs in two speed states about 1.5x apart,
each lasting seconds to minutes, and processor time slows exactly as much
as wall time — so no estimator over one run's own samples can tell a slow
run from a slow host.  Every measured interval is therefore
accompanied by a fixed probe loop (small numpy products and clips driven
from an interpreted loop, like the bound kernels) timed in the same stretch
of time, and reported as::

    normalised = raw * REFERENCE_PROBE_S / mean(probe durations)

(the median instead of the mean where the probe competes with busy worker
processes).  Both commits of a comparison run the same probe, so a change to the
library cannot move it; the raw timings are printed alongside.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Probe duration on the reference host (about the mean in the faster
#: speed state of the Xeon VM above); normalised times are seconds there.
REFERENCE_PROBE_S = 4.0e-4

#: Probes taken around an interval that cannot interleave them (set-up, a
#: service burst whose workers need every CPU).
BRACKET_PROBES = 40

_MATRIX = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
_BLOCK = np.linspace(0.0, 1.0, 64 * 16).reshape(64, 16)


def probe() -> float:
    """Seconds one fixed unit of interpreter and small-array work takes.

    Of the candidates recorded next to single verifier runs across both
    speed states, this mix tracked the verifiers' slowdown most closely
    (log-log slope 0.85-1.04 for ABONN dense and conv and αβ-CROWN).
    """
    start = time.perf_counter()
    total = 0.0
    for _ in range(40):
        product = _MATRIX @ _BLOCK
        total += float(np.clip(np.maximum(product, 0.0), -1.0, 1.0).sum())
    return time.perf_counter() - start


def probes(count: int = BRACKET_PROBES) -> List[float]:
    """``count`` consecutive probe durations."""
    return [probe() for _ in range(count)]


#: Probes on each side of a problem whose mean scales its latency.
WINDOW = 5


def factor(samples: List[float]) -> float:
    """Multiplier turning raw seconds into reference-host seconds."""
    return REFERENCE_PROBE_S * len(samples) / sum(samples)


def median_factor(samples: List[float]) -> float:
    """:func:`factor` from the median probe, for probes that share the CPUs
    with busy worker processes and are sometimes preempted."""
    return REFERENCE_PROBE_S / statistics.median(samples)


def local_factors(samples: List[float]) -> List[float]:
    """Per-interval factors when probe ``i`` preceded interval ``i``: each
    uses the probes within :data:`WINDOW` of it, so a change of speed state
    in the middle of a pass is tracked."""
    return [factor(samples[max(0, index - WINDOW + 1):index + WINDOW + 1])
            for index in range(len(samples))]
