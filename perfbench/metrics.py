"""End-to-end metrics and the correctness check behind ``failed``.

Everything here works on :class:`Record`\\ s — one per problem attempted
(a verifier call, or a service job) — so the same arithmetic serves the
closed-loop workloads and the service burst.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.verifiers.result import VerificationResult, VerificationStatus

#: Uniform points drawn from the input box of every VERIFIED problem; any
#: violating point proves the verdict wrong.
VERIFIED_SAMPLES = 256

#: ``(unit, better)`` of every end-to-end metric, in output order.
END_TO_END_UNITS: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "us_per_node": ("us", "lower"),
    "latency_p50_s": ("s", "lower"),
    "latency_p90_s": ("s", "lower"),
    "solved_frac": ("ratio", "higher"),
    "ok_frac": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


@dataclass
class Record:
    """One attempted problem: its verdict (or error) and time to verdict.

    ``latency`` runs from the verifier call (closed loop) or from job
    submission (service) to the result, in raw seconds; ``scale`` turns it
    into reference-host seconds (:mod:`perfbench.hostspeed`).  Service
    records also carry the job id, the submission time on the benchmark
    clock and the job's per-job cache-counter deltas.
    """

    key: str
    latency: float
    result: Optional[VerificationResult]
    error: Optional[str] = None
    scale: float = 1.0
    job_id: Optional[str] = None
    submitted: float = 0.0
    cache_stats: Dict[str, int] = field(default_factory=dict)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` of the sample
    at or below it, so ``1 - q`` of the sample lies strictly beyond it
    when the values are distinct (p90 of 100 values leaves ten beyond)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def failure_reason(record: Record, network, spec,
                   rng: np.random.Generator) -> Optional[str]:
    """Why ``record`` is wrong, or ``None`` when its verdict checks out."""
    if record.error is not None:
        return record.error
    result = record.result
    if result is None:
        return "no result"
    if (result.status is VerificationStatus.FALSIFIED
            and not result.check_counterexample(network, spec)):
        return "counterexample does not violate the specification"
    if result.status is VerificationStatus.VERIFIED:
        points = spec.input_box.sample(rng, VERIFIED_SAMPLES)
        if bool(np.any(spec.is_counterexample_batch(network, points))):
            return "a sampled input violates a VERIFIED specification"
    return None


def check_records(records: Sequence[Record], problems: Dict[str, tuple],
                  seed: int) -> List[Tuple[Record, str]]:
    """Every failed record with its reason.

    ``problems`` maps a record key to its ``(network, spec)``.  Besides the
    per-record checks, every attempt at one problem must reach the verdict
    of the first: node budgets make verdicts deterministic, and the
    service promises each job the verdict of a solo run.
    """
    rng = np.random.default_rng(seed)
    first: Dict[str, VerificationStatus] = {}
    failures = []
    for record in records:
        network, spec = problems[record.key]
        reason = failure_reason(record, network, spec, rng)
        if reason is None:
            status = record.result.status
            expected = first.setdefault(record.key, status)
            if status is not expected:
                reason = f"verdict {status.value} differs from an earlier {expected.value}"
        if reason is not None:
            failures.append((record, reason))
    return failures


def verdict_hash(records: Sequence[Record]) -> str:
    """Digest of each problem's first verdict: shows a changed trajectory."""
    verdicts: Dict[str, str] = {}
    for record in records:
        status = record.result.status.value if record.result is not None else "error"
        verdicts.setdefault(record.key, status)
    text = "\n".join(f"{key}:{verdicts[key]}" for key in sorted(verdicts))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(passes: Sequence[Tuple[Sequence[Record], float]], failed: int,
               setup_s: float, scaled: bool = True) -> Dict[str, float]:
    """The end-to-end metrics of one run (see :data:`END_TO_END_UNITS`).

    ``passes`` holds each pass's records and measured seconds, both already
    in reference-host seconds when ``scaled`` (record latencies are scaled
    here).  Rates are the median over the passes; the latency percentiles
    pool every attempt.
    """
    records = [record for records_, _ in passes for record in records_]
    latencies = [record.latency * (record.scale if scaled else 1.0) for record in records]
    rates = [(len(records_) / seconds,
              seconds * 1e6 / max(sum(record.result.nodes_explored for record in records_
                                      if record.result is not None), 1))
             for records_, seconds in passes]
    solved = sum(1 for record in records
                 if record.result is not None and record.result.solved)
    return {
        "setup_s": setup_s,
        "throughput_per_s": statistics.median(rate for rate, _ in rates),
        "us_per_node": statistics.median(cost for _, cost in rates),
        "latency_p50_s": percentile(latencies, 0.5),
        "latency_p90_s": percentile(latencies, 0.9),
        "solved_frac": solved / len(records),
        "ok_frac": 1.0 - failed / len(records),
        "peak_rss_mb": peak_rss_mb(),
    }
