"""Tests for the experiment harness: runner, metrics, tables and figures."""

import pytest

from repro.bab import BaBBaselineVerifier
from repro.core import AbonnConfig, AbonnVerifier
from repro.experiments.figures import (
    TREE_SIZE_BINS,
    bin_label,
    fig3_tree_size_histogram,
    fig4_speedup_scatter,
    fig5_hyperparameter_grid,
    fig6_violated_certified,
    render_fig3,
    render_fig4,
    render_fig5,
    render_fig6,
    scatter_points_csv_rows,
)
from repro.experiments.metrics import (
    BoxStatistics,
    average_nodes,
    average_speedup,
    average_time,
    solved_count,
    speedups,
    times_by_group,
)
from repro.experiments.runner import ground_truth_statuses, run_matrix, run_suite
from repro.experiments.suite import SuiteConfig, generate_suite
from repro.experiments.tables import (
    render_table,
    render_table1,
    render_table2,
    rows_to_csv,
    table2,
    table2_headers,
)
from repro.utils import Budget
from repro.verifiers.result import VerificationStatus


@pytest.fixture(scope="module")
def suite():
    config = SuiteConfig(families=("MNIST_L2",), instances_per_family=4, seed=1,
                         search_steps=6)
    return generate_suite(config)


@pytest.fixture(scope="module")
def matrix_results(suite):
    budget = Budget(max_nodes=80)
    return run_matrix({
        "BaB-baseline": lambda: BaBBaselineVerifier(),
        "ABONN": lambda: AbonnVerifier(),
    }, suite, budget)


class TestRunner:
    def test_run_suite_covers_all_instances(self, suite, matrix_results):
        for result in matrix_results.values():
            assert len(result) == len(suite)

    def test_run_for_lookup(self, suite, matrix_results):
        result = matrix_results["ABONN"]
        first = suite.instances[0]
        assert result.run_for(first.instance_id).instance is first
        assert result.run_for("missing") is None

    def test_budget_is_per_instance(self, suite, matrix_results):
        for result in matrix_results.values():
            for run in result.runs:
                assert run.nodes <= 90  # 80-node budget plus small leaf-LP slack

    def test_ground_truth_statuses(self, matrix_results):
        truth = ground_truth_statuses(matrix_results.values())
        assert all(status in (VerificationStatus.VERIFIED, VerificationStatus.FALSIFIED)
                   for status in truth.values())

    def test_progress_callback_invoked(self, suite):
        seen = []
        run_suite(lambda: AbonnVerifier(), suite, Budget(max_nodes=10),
                  instances=suite.instances[:2],
                  progress=lambda instance, result: seen.append(instance.instance_id))
        assert len(seen) == 2


class TestMetrics:
    def test_solved_count_and_average_time(self, matrix_results):
        runs = matrix_results["ABONN"].runs
        assert 0 <= solved_count(runs) <= len(runs)
        assert average_time(runs) >= 0.0
        assert average_nodes(runs) >= 1.0

    def test_average_time_charges_timeouts(self, matrix_results):
        runs = matrix_results["BaB-baseline"].runs
        charged = average_time(runs, timeout_seconds=100.0)
        plain = average_time(runs)
        if any(not run.solved for run in runs):
            assert charged > plain
        else:
            assert charged == pytest.approx(plain)

    def test_speedups_structure(self, matrix_results):
        points = speedups(matrix_results["ABONN"], matrix_results["BaB-baseline"])
        assert len(points) == len(matrix_results["ABONN"].runs)
        for point in points:
            assert point.speedup > 0
            assert point.node_speedup > 0
        assert average_speedup(points) > 0

    def test_empty_speedups(self, matrix_results):
        assert average_speedup([]) == 0.0

    def test_box_statistics(self):
        stats = BoxStatistics.from_values([1.0, 2.0, 3.0, 4.0, 100.0])
        assert stats.minimum == 1.0 and stats.maximum == 100.0
        assert stats.median == pytest.approx(3.0)
        assert stats.interquartile_range >= 0
        assert stats.count == 5

    def test_box_statistics_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxStatistics.from_values([])

    def test_times_by_group(self, matrix_results, suite):
        runs = matrix_results["ABONN"].runs
        ids = [suite.instances[0].instance_id]
        times = times_by_group(runs, ids)
        assert len(times) == 1


class TestTables:
    def test_render_table_generic(self):
        text = render_table(["a", "b"], [[1, 2], [3, 4]], title="T")
        assert "T" in text and "a" in text and "4" in text

    def test_rows_to_csv(self):
        text = rows_to_csv(["x", "y"], [[1, 2]])
        assert "x,y" in text and "1,2" in text

    def test_table1_render(self, suite):
        text = render_table1(suite)
        assert "MNIST_L2" in text and "#Neurons" in text

    def test_table2_rows_and_headers(self, suite, matrix_results):
        headers = table2_headers(matrix_results)
        rows = table2(suite, matrix_results, timeout_seconds=10.0)
        assert headers[0] == "Model"
        assert len(headers) == 1 + 2 * len(matrix_results)
        assert len(rows) == len(suite.families)
        text = render_table2(suite, matrix_results)
        assert "ABONN Solved" in text


class TestFigures:
    def test_fig3_histogram_counts_every_instance(self, suite, matrix_results):
        histogram = fig3_tree_size_histogram(matrix_results["BaB-baseline"])
        total = sum(sum(counts.values()) for counts in histogram.values())
        assert total == len(suite)
        assert "MNIST_L2" in histogram
        text = render_fig3(histogram)
        assert bin_label(TREE_SIZE_BINS[0]) in text

    def test_fig4_scatter(self, matrix_results):
        scatter = fig4_speedup_scatter(matrix_results["ABONN"],
                                       matrix_results["BaB-baseline"])
        assert "MNIST_L2" in scatter
        text = render_fig4(scatter)
        assert "mean speedup" in text
        rows = scatter_points_csv_rows(scatter)
        assert len(rows) == len(matrix_results["ABONN"].runs)

    def test_fig5_grid(self, suite, matrix_results):
        grid = fig5_hyperparameter_grid(
            suite, matrix_results["BaB-baseline"],
            make_abonn=lambda lam, c: AbonnVerifier(AbonnConfig(lam=lam, exploration=c)),
            budget=Budget(max_nodes=30),
            lambdas=(0.0, 0.5), explorations=(0.0, 0.2),
            instances=suite.instances[:2])
        assert len(grid.cells) == 4
        assert grid.matrix("solved").shape == (2, 2)
        best = grid.best_cell("average_speedup")
        assert best in grid.cells
        text = render_fig5(grid)
        assert "Fig. 5a" in text and "Fig. 5c" in text

    def test_fig5_missing_cell_rejected(self, suite, matrix_results):
        grid = fig5_hyperparameter_grid(
            suite, matrix_results["BaB-baseline"],
            make_abonn=lambda lam, c: AbonnVerifier(AbonnConfig(lam=lam, exploration=c)),
            budget=Budget(max_nodes=10),
            lambdas=(0.5,), explorations=(0.2,),
            instances=suite.instances[:1])
        with pytest.raises(KeyError):
            grid.cell(0.9, 0.9)

    def test_fig6_boxes(self, suite, matrix_results):
        boxes = fig6_violated_certified(suite, matrix_results, timeout_seconds=10.0)
        # two verifiers x two groups x one family
        assert len(boxes) == 4
        text = render_fig6(boxes)
        assert "violated" in text and "certified" in text
