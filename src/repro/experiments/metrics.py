"""Evaluation metrics: solved counts, average times, speedups, box statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.runner import InstanceRun, SuiteRunResult
from repro.utils.validation import require


def solved_count(runs: Sequence[InstanceRun]) -> int:
    """Number of conclusively solved instances (the paper's "Solved" column)."""
    return sum(1 for run in runs if run.solved)


def average_time(runs: Sequence[InstanceRun],
                 timeout_seconds: Optional[float] = None) -> float:
    """Average wall-clock time per instance (the paper's "Time" column).

    Unsolved instances are charged ``timeout_seconds`` when given (matching
    the paper's fixed per-problem budget), otherwise their measured time.
    """
    if not runs:
        return 0.0
    times = []
    for run in runs:
        if not run.solved and timeout_seconds is not None:
            times.append(float(timeout_seconds))
        else:
            times.append(run.time)
    return float(np.mean(times))


def average_nodes(runs: Sequence[InstanceRun]) -> float:
    """Average number of explored sub-problems per instance."""
    if not runs:
        return 0.0
    return float(np.mean([run.nodes for run in runs]))


@dataclass(frozen=True)
class SpeedupPoint:
    """One point of the Fig. 4 scatter: an instance's time and speedup."""

    instance_id: str
    family: str
    time_seconds: float
    speedup: float
    #: Node-count based speedup (machine independent), reported alongside.
    node_speedup: float


def speedups(treatment: SuiteRunResult, baseline: SuiteRunResult,
             use_nodes_for_unsolved: bool = True) -> List[SpeedupPoint]:
    """Per-instance speedup of ``treatment`` over ``baseline``.

    ``speedup = T_baseline / T_treatment`` (Fig. 4's y-axis).  Instances
    missing from either run are skipped.  Zero times are clamped to a small
    positive value so ratios stay finite.
    """
    points: List[SpeedupPoint] = []
    baseline_by_id = {run.instance.instance_id: run for run in baseline.runs}
    for run in treatment.runs:
        other = baseline_by_id.get(run.instance.instance_id)
        if other is None:
            continue
        time_ratio = _ratio(other.time, run.time)
        node_ratio = _ratio(other.nodes, run.nodes)
        points.append(SpeedupPoint(instance_id=run.instance.instance_id,
                                   family=run.instance.family,
                                   time_seconds=run.time,
                                   speedup=time_ratio,
                                   node_speedup=node_ratio))
    return points


def _ratio(numerator: float, denominator: float, minimum: float = 1e-9) -> float:
    return float(max(numerator, minimum) / max(denominator, minimum))


def average_speedup(points: Sequence[SpeedupPoint], use_nodes: bool = False) -> float:
    """Mean speedup over a set of scatter points (Fig. 5a's cell metric)."""
    if not points:
        return 0.0
    values = [p.node_speedup if use_nodes else p.speedup for p in points]
    return float(np.mean(values))


@dataclass(frozen=True)
class BoxStatistics:
    """Five-number summary used by the Fig. 6 box plots."""

    minimum: float
    first_quartile: float
    median: float
    third_quartile: float
    maximum: float
    count: int

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "BoxStatistics":
        require(len(values) > 0, "cannot summarise an empty sample")
        data = np.asarray(values, dtype=float)
        return cls(minimum=float(data.min()),
                   first_quartile=float(np.percentile(data, 25)),
                   median=float(np.percentile(data, 50)),
                   third_quartile=float(np.percentile(data, 75)),
                   maximum=float(data.max()),
                   count=int(data.size))

    @property
    def interquartile_range(self) -> float:
        return self.third_quartile - self.first_quartile

    def as_dict(self) -> Dict[str, float]:
        return {"min": self.minimum, "q1": self.first_quartile, "median": self.median,
                "q3": self.third_quartile, "max": self.maximum, "count": self.count}


def times_by_group(runs: Sequence[InstanceRun], instance_ids: Sequence[str],
                   timeout_seconds: Optional[float] = None) -> List[float]:
    """Times of the runs whose instance is in ``instance_ids``."""
    wanted = set(instance_ids)
    times = []
    for run in runs:
        if run.instance.instance_id not in wanted:
            continue
        if not run.solved and timeout_seconds is not None:
            times.append(float(timeout_seconds))
        else:
            times.append(run.time)
    return times
