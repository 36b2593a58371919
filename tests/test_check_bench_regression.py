"""Tests for ``tools/check_bench_regression.py``, the CI benchmark gate."""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_bench_regression import compare_summaries, main  # noqa: E402


def regressions(current, baseline, tolerance=0.25, compare_times=False):
    return dict(compare_summaries(current, baseline, tolerance, compare_times))


BASELINE = {
    "smoke": True,
    "incremental_identical_runs": True,
    "min_speedup_incremental": 1.6,
    "lp_total_solves": 10,
    "total_job_retries": 0,
    "median_per_child_us": {"MNIST_L2": {"baseline": 120.0,
                                         "incremental": 72.0}},
}


class TestCompareSummaries:
    def test_identical_summaries_pass(self):
        assert regressions(dict(BASELINE), BASELINE) == {}

    def test_missing_gated_key_is_a_regression(self):
        current = dict(BASELINE)
        del current["min_speedup_incremental"]
        found = regressions(current, BASELINE)
        assert set(found) == {"min_speedup_incremental"}
        assert "missing" in found["min_speedup_incremental"]

    def test_missing_time_key_gates_only_with_compare_times(self):
        current = dict(BASELINE)
        del current["median_per_child_us"]
        assert regressions(current, BASELINE) == {}
        assert set(regressions(current, BASELINE, compare_times=True)) == {
            "median_per_child_us"}

    def test_boolean_invariant_flipping_to_false(self):
        current = dict(BASELINE, incremental_identical_runs=False)
        assert set(regressions(current, BASELINE)) == {
            "incremental_identical_runs"}

    def test_zero_gated_counter_above_zero(self):
        current = dict(BASELINE, total_job_retries=1)
        assert set(regressions(current, BASELINE)) == {"total_job_retries"}

    def test_lower_better_key_beyond_tolerance(self):
        assert regressions(dict(BASELINE, lp_total_solves=12), BASELINE) == {}
        assert set(regressions(dict(BASELINE, lp_total_solves=13),
                               BASELINE)) == {"lp_total_solves"}

    def test_per_key_tolerance_override(self):
        # min_speedup_incremental carries a 30% override: 1.6 * 0.7 = 1.12,
        # so 1.15 passes although it is below the default 25% floor of 1.2.
        assert regressions(dict(BASELINE, min_speedup_incremental=1.15),
                           BASELINE) == {}
        assert set(regressions(dict(BASELINE, min_speedup_incremental=1.1),
                               BASELINE)) == {"min_speedup_incremental"}

    def test_solved_counts_are_gated_at_zero_tolerance(self):
        baseline = dict(BASELINE, solved_abonn_k8_n300=25)
        assert regressions(dict(baseline), baseline) == {}
        assert regressions(dict(baseline, solved_abonn_k8_n300=26), baseline) == {}
        found = regressions(dict(baseline, solved_abonn_k8_n300=24), baseline)
        assert set(found) == {"solved_abonn_k8_n300"}
        # 24 is within the default 25% tolerance; only the prefix rule fails it.
        assert "24 < 25" in found["solved_abonn_k8_n300"]

    def test_ungated_key_is_ignored(self):
        baseline = dict(BASELINE, jobs=8, async_speedup_over_cooperative=1.0)
        current = dict(BASELINE, async_speedup_over_cooperative=0.1)
        del current["smoke"]
        assert regressions(current, baseline) == {}


class TestCli:
    def _write(self, tmp_path, name, summary):
        path = tmp_path / name
        path.write_text(json.dumps({"summary": summary}))
        return path

    def test_exit_codes(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "baseline.json", BASELINE)
        same = self._write(tmp_path, "same.json", BASELINE)
        assert main([str(same), str(baseline)]) == 0
        dropped = dict(BASELINE)
        del dropped["incremental_identical_runs"]
        current = self._write(tmp_path, "current.json", dropped)
        assert main([str(current), str(baseline)]) == 1
        assert "incremental_identical_runs" in capsys.readouterr().err
