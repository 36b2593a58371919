"""Data builders and text renderers for the paper's figures (Fig. 3-6).

Each ``figN_*`` function returns plain data structures (dictionaries, lists
of dataclasses) that regenerate the series/points shown in the corresponding
figure; ``render_figN`` turns them into a text report printed by the
benchmark harness.  No plotting library is used — the benchmark outputs are
meant to be diffed against EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.metrics import (
    BoxStatistics,
    SpeedupPoint,
    average_speedup,
    average_time,
    solved_count,
    speedups,
    times_by_group,
)
from repro.experiments.runner import (
    SuiteRunResult,
    ground_truth_statuses,
    run_suite,
)
from repro.experiments.suite import BenchmarkSuite, VerificationInstance
from repro.experiments.tables import render_table
from repro.utils.timing import Budget
from repro.verifiers.result import VerificationStatus

# ---------------------------------------------------------------------------
# Fig. 3 — distribution of BaB-baseline tree sizes
# ---------------------------------------------------------------------------

#: The paper's histogram bins over the number of nodes in the BaB tree.
TREE_SIZE_BINS: Tuple[Tuple[int, Optional[int]], ...] = (
    (0, 10), (11, 50), (51, 100), (101, 200), (201, 500), (501, 1000), (1001, None))


def bin_label(bin_range: Tuple[int, Optional[int]]) -> str:
    low, high = bin_range
    return f"{low}-{high}" if high is not None else f"{low}-"


def fig3_tree_size_histogram(baseline_result: SuiteRunResult
                             ) -> Dict[str, Dict[str, int]]:
    """Histogram of BaB tree sizes per model family (Fig. 3)."""
    histogram: Dict[str, Dict[str, int]] = {}
    for run in baseline_result.runs:
        family = run.instance.family
        counts = histogram.setdefault(family,
                                      {bin_label(b): 0 for b in TREE_SIZE_BINS})
        size = run.result.tree_size
        for bin_range in TREE_SIZE_BINS:
            low, high = bin_range
            if size >= low and (high is None or size <= high):
                counts[bin_label(bin_range)] += 1
                break
    return histogram


def render_fig3(histogram: Dict[str, Dict[str, int]]) -> str:
    headers = ["Model"] + [bin_label(b) for b in TREE_SIZE_BINS]
    rows = []
    for family, counts in histogram.items():
        rows.append([family] + [counts[bin_label(b)] for b in TREE_SIZE_BINS])
    return render_table(headers, rows,
                        title="Fig. 3: distribution of BaB-baseline tree sizes")


# ---------------------------------------------------------------------------
# Fig. 4 — per-instance speedup scatter (RQ1)
# ---------------------------------------------------------------------------

def fig4_speedup_scatter(abonn_result: SuiteRunResult, baseline_result: SuiteRunResult
                         ) -> Dict[str, List[SpeedupPoint]]:
    """Per-family scatter points ``(ABONN time, speedup over BaB-baseline)``."""
    points = speedups(abonn_result, baseline_result)
    by_family: Dict[str, List[SpeedupPoint]] = {}
    for point in points:
        by_family.setdefault(point.family, []).append(point)
    return by_family


def render_fig4(scatter: Dict[str, List[SpeedupPoint]]) -> str:
    headers = ["Model", "#points", "mean speedup", "median speedup", "max speedup",
               "share > 1x", "mean node speedup"]
    rows = []
    for family, points in scatter.items():
        values = np.asarray([p.speedup for p in points]) if points else np.asarray([1.0])
        rows.append([
            family,
            len(points),
            round(float(values.mean()), 2),
            round(float(np.median(values)), 2),
            round(float(values.max()), 2),
            round(float(np.mean(values > 1.0)), 2),
            round(average_speedup(points, use_nodes=True), 2),
        ])
    return render_table(headers, rows,
                        title="Fig. 4: ABONN speedup over BaB-baseline per instance "
                              "(scatter summary)")


def scatter_points_csv_rows(scatter: Dict[str, List[SpeedupPoint]]
                            ) -> List[List[object]]:
    """Raw scatter points (one row per instance), for external plotting."""
    rows: List[List[object]] = []
    for family, points in scatter.items():
        for point in points:
            rows.append([family, point.instance_id, round(point.time_seconds, 4),
                         round(point.speedup, 4), round(point.node_speedup, 4)])
    return rows


# ---------------------------------------------------------------------------
# Fig. 5 — hyperparameter grid (RQ2)
# ---------------------------------------------------------------------------

@dataclass
class HyperparameterCell:
    """Result of one (λ, c) configuration over the evaluation instances."""

    lam: float
    exploration: float
    average_speedup: float
    average_time: float
    solved: int


@dataclass
class HyperparameterGrid:
    """The three grids of Fig. 5 (speedup, time, solved) over λ × c."""

    lambdas: Tuple[float, ...]
    explorations: Tuple[float, ...]
    cells: List[HyperparameterCell]

    def cell(self, lam: float, exploration: float) -> HyperparameterCell:
        for cell in self.cells:
            if np.isclose(cell.lam, lam) and np.isclose(cell.exploration, exploration):
                return cell
        raise KeyError(f"no cell for lambda={lam}, c={exploration}")

    def matrix(self, attribute: str) -> np.ndarray:
        values = np.zeros((len(self.lambdas), len(self.explorations)))
        for row, lam in enumerate(self.lambdas):
            for column, c in enumerate(self.explorations):
                values[row, column] = getattr(self.cell(lam, c), attribute)
        return values

    def best_cell(self, attribute: str = "average_speedup",
                  maximise: bool = True) -> HyperparameterCell:
        key = (lambda cell: getattr(cell, attribute))
        return max(self.cells, key=key) if maximise else min(self.cells, key=key)


def fig5_hyperparameter_grid(suite: BenchmarkSuite, baseline_result: SuiteRunResult,
                             make_abonn: "callable", budget: Budget,
                             lambdas: Sequence[float] = (0.0, 0.5, 1.0),
                             explorations: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
                             instances: Optional[Sequence[VerificationInstance]] = None,
                             timeout_seconds: Optional[float] = None
                             ) -> HyperparameterGrid:
    """Run ABONN for every (λ, c) pair and collect the Fig. 5 statistics.

    ``make_abonn(lam, c)`` must return a fresh verifier configured with those
    hyperparameters (kept as a callable so the figure builder does not depend
    on the core package).
    """
    cells: List[HyperparameterCell] = []
    for lam in lambdas:
        for exploration in explorations:
            result = run_suite(lambda lam=lam, c=exploration: make_abonn(lam, c),
                               suite, budget, instances=instances)
            points = speedups(result, baseline_result)
            cells.append(HyperparameterCell(
                lam=float(lam), exploration=float(exploration),
                average_speedup=average_speedup(points),
                average_time=average_time(result.runs, timeout_seconds),
                solved=solved_count(result.runs)))
    return HyperparameterGrid(tuple(float(l) for l in lambdas),
                              tuple(float(c) for c in explorations), cells)


def render_fig5(grid: HyperparameterGrid) -> str:
    sections = []
    titles = {"average_speedup": "Fig. 5a: average speedup (w.r.t. BaB-baseline)",
              "average_time": "Fig. 5b: average time (seconds)",
              "solved": "Fig. 5c: number of solved problems"}
    for attribute, title in titles.items():
        headers = ["lambda \\ c"] + [f"c={c:g}" for c in grid.explorations]
        rows = []
        matrix = grid.matrix(attribute)
        for row_index, lam in enumerate(grid.lambdas):
            rows.append([f"lambda={lam:g}"]
                        + [round(float(v), 3) for v in matrix[row_index]])
        sections.append(render_table(headers, rows, title=title))
    return "\n\n".join(sections)


# ---------------------------------------------------------------------------
# Fig. 6 — violated vs certified breakdown (RQ3)
# ---------------------------------------------------------------------------

@dataclass
class GroupBox:
    """One box of Fig. 6: a verifier's times on one instance group."""

    family: str
    verifier: str
    group: str  # "violated" or "certified"
    statistics: Optional[BoxStatistics]


def fig6_violated_certified(suite: BenchmarkSuite,
                            results: Dict[str, SuiteRunResult],
                            families: Optional[Sequence[str]] = None,
                            timeout_seconds: Optional[float] = None) -> List[GroupBox]:
    """Box statistics of verification time, split by ground-truth status."""
    families = list(families if families is not None else suite.families)
    truth = ground_truth_statuses(results.values())
    violated = [iid for iid, status in truth.items()
                if status == VerificationStatus.FALSIFIED]
    certified = [iid for iid, status in truth.items()
                 if status == VerificationStatus.VERIFIED]
    boxes: List[GroupBox] = []
    for family in families:
        family_ids = {instance.instance_id for instance in suite.by_family(family)}
        for verifier_name, result in results.items():
            for group_name, group_ids in (("violated", violated), ("certified", certified)):
                ids = [iid for iid in group_ids if iid in family_ids]
                times = times_by_group(result.by_family(family), ids, timeout_seconds)
                statistics = BoxStatistics.from_values(times) if times else None
                boxes.append(GroupBox(family=family, verifier=verifier_name,
                                      group=group_name, statistics=statistics))
    return boxes


def render_fig6(boxes: List[GroupBox]) -> str:
    headers = ["Model", "Verifier", "Group", "n", "min", "q1", "median", "q3", "max"]
    rows = []
    for box in boxes:
        if box.statistics is None:
            rows.append([box.family, box.verifier, box.group, 0, "-", "-", "-", "-", "-"])
            continue
        stats = box.statistics
        rows.append([box.family, box.verifier, box.group, stats.count,
                     round(stats.minimum, 3), round(stats.first_quartile, 3),
                     round(stats.median, 3), round(stats.third_quartile, 3),
                     round(stats.maximum, 3)])
    return render_table(headers, rows,
                        title="Fig. 6: verification time, violated vs certified instances")
