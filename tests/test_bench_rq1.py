"""Tests for ``benchmarks/bench_rq1.py``: strata, labels, aggregation, gates.

They run the bench's functions on a small dense network, never the trained
suite, so they take well under a second.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.nn.network import dense_network
from repro.specs.robustness import local_robustness_spec
from repro.verifiers.appver import ApproximateVerifier
from repro.verifiers.attack import pgd_attack

_BENCH_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_rq1.py"
_spec = importlib.util.spec_from_file_location("bench_rq1", _BENCH_PATH)
bench_rq1 = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("bench_rq1", bench_rq1)
_spec.loader.exec_module(bench_rq1)


def _reference(row: int) -> np.ndarray:
    return np.random.default_rng(row).uniform(0.2, 0.8, 4)


def _instance(key: str, network_seed: int, row: int, epsilon: float,
              family: str = "MNIST_L2") -> "bench_rq1.Instance":
    network = dense_network([4, 12, 12, 3], seed=network_seed)
    reference = _reference(row)
    label = int(network.predict(reference.reshape(1, -1))[0])
    spec = local_robustness_spec(reference, epsilon, label, 3)
    return bench_rq1.Instance(key, family, network, spec, bench_rq1.spec_digest(spec),
                              bench_rq1.stratum_of(network, spec))


#: One instance per stratum, found by scanning ε on these networks.
STRATUM_CASES = {"root-bound": (0, 0, 0.01), "root-candidate": (1, 0, 0.2),
                 "pgd": (0, 0, 0.01 + 2 * 0.29 / 14), "search": (0, 2, 0.01 + 4 * 0.29 / 14)}


@pytest.fixture(scope="module")
def strata_instances():
    return {stratum: _instance(f"mnist_l2_{index:03d}", *case)
            for index, (stratum, case) in enumerate(STRATUM_CASES.items())}


class TestStrata:
    def test_each_case_lands_in_its_stratum(self, strata_instances):
        assert {name: instance.stratum for name, instance in strata_instances.items()} == {
            name: name for name in bench_rq1.STRATA}

    def test_strata_follow_the_facts(self, strata_instances):
        for instance in strata_instances.values():
            root = ApproximateVerifier(instance.network, instance.spec).evaluate()
            assert root.verified == (instance.stratum == "root-bound")
            assert root.falsified == (instance.stratum == "root-candidate")


class TestSpecDigest:
    def test_equal_specs_share_a_digest(self):
        assert _instance("a", 0, 0, 0.05).digest == _instance("b", 0, 0, 0.05).digest

    def test_the_box_and_the_rows_enter_the_digest(self):
        base = _instance("a", 0, 0, 0.05)
        assert _instance("b", 0, 0, 0.05 + 1e-12).digest != base.digest
        assert _instance("c", 0, 1, 0.05).digest != base.digest


class TestLabels:
    def _write(self, tmp_path, monkeypatch, labels):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"labels": labels}))
        monkeypatch.setattr(bench_rq1, "LABELS_PATH", path)

    def test_matching_labels_load_cleanly(self, tmp_path, monkeypatch, strata_instances):
        instances = list(strata_instances.values())
        self._write(tmp_path, monkeypatch, {
            i.key: {"status": "timeout", "spec_digest": i.digest, "source": "milp"}
            for i in instances})
        labels, errors = bench_rq1.load_labels(instances)
        assert errors == [] and set(labels) == {i.key for i in instances}

    def test_digest_mismatch_missing_label_and_bad_counterexample(
            self, tmp_path, monkeypatch, strata_instances):
        moved, missing, bad, good = strata_instances.values()
        inside = bad.spec.input_box.center.tolist()
        self._write(tmp_path, monkeypatch, {
            moved.key: {"status": "verified", "spec_digest": "0" * 16, "source": "milp"},
            bad.key: {"status": "falsified", "spec_digest": bad.digest,
                      "source": "counterexample", "counterexample": inside},
            good.key: {"status": "timeout", "spec_digest": good.digest, "source": "milp"}})
        _, errors = bench_rq1.load_labels([moved, missing, bad, good])
        assert len(errors) == 3
        assert "spec digest" in errors[0] and "no label" in errors[1]
        assert "does not re-check" in errors[2]

    def test_counterexample_must_lie_in_the_box(self, strata_instances):
        instance = strata_instances["pgd"]
        point = pgd_attack(instance.network, instance.spec,
                           bench_rq1.AlphaBetaCrownVerifier().attack_config).best_input
        assert bench_rq1.is_counterexample(instance, point)
        outside = point + 2.0 * instance.spec.input_box.radius.max() + 1e-3
        assert not bench_rq1.is_counterexample(instance, outside)
        assert not bench_rq1.is_counterexample(instance, point[:-1])


def _verdicts(instances, statuses):
    """``{key: {config: run}}`` for one configuration from ``(status, nodes)``."""
    name = bench_rq1.config_name("abonn", 8, 300)
    return {i.key: {name: {"status": status, "nodes": nodes, "tree_size": nodes}}
            for i, (status, nodes) in zip(instances, statuses)}


class TestAggregate:
    def test_rows_split_solved_counts_and_drop_no_group(self, strata_instances):
        instances = list(strata_instances.values())
        verdicts = _verdicts(instances, [("verified", 1), ("falsified", 5),
                                         ("falsified", 9), ("timeout", 300)])
        rows = bench_rq1.aggregate(instances, verdicts, None, [("abonn", 8, 300)])
        groups = {(row["stratum"], row["family"]): row for row in rows}
        assert len(rows) == (len(bench_rq1.STRATA) + 1) * (len(bench_rq1.FAMILY_ORDER) + 1)
        total = groups[("all", "all")]
        assert (total["instances"], total["solved"], total["verified"],
                total["falsified"]) == (4, 3, 1, 2)
        assert total["nodes_median"] == 5.0
        assert total["nodes_p90"] == pytest.approx(8.2)
        assert groups[("search", "all")]["solved"] == 0
        assert groups[("search", "all")]["nodes_median"] is None
        assert groups[("all", "CIFAR_DEEP")]["instances"] == 0

    def test_time_to_verdict_uses_the_median_repetition(self, strata_instances):
        instances = list(strata_instances.values())[:2]
        verdicts = _verdicts(instances, [("verified", 1), ("falsified", 5)])
        name = bench_rq1.config_name("abonn", 8, 300)
        seconds = {instances[0].key: {name: [0.1, 0.5, 0.2]},
                   instances[1].key: {name: [0.4, 0.4, 0.9]}}
        rows = bench_rq1.aggregate(instances, verdicts, seconds, [("abonn", 8, 300)])
        total = next(r for r in rows if r["stratum"] == r["family"] == "all")
        assert total["seconds_median"] == pytest.approx(0.3)
        assert total["seconds_iqr"] == pytest.approx(0.1)


class TestContradictions:
    def test_only_opposite_conclusive_verdicts_count(self, strata_instances):
        instances = list(strata_instances.values())
        verdicts = _verdicts(instances, [("verified", 1), ("falsified", 5),
                                         ("timeout", 300), ("verified", 7)])
        labels = {instances[0].key: {"status": "falsified"},
                  instances[1].key: {"status": "falsified"},
                  instances[2].key: {"status": "verified"},
                  instances[3].key: {"status": "timeout"}}
        found = bench_rq1.contradictions(instances, verdicts, labels)
        assert found == [{"instance": instances[0].key, "config": "abonn_k8_n300",
                          "verdict": "verified", "label": "falsified"}]


class TestRunBench:
    @pytest.fixture(scope="class")
    def run(self, strata_instances):
        instances = list(strata_instances.values())
        labels = {i.key: {"status": "timeout", "source": "milp"} for i in instances}
        configs = [(name, 8, 300) for name in bench_rq1.VERIFIERS]
        return bench_rq1.run_bench(instances, labels, configs, repeats=2)

    def test_repetitions_agree_and_every_counterexample_rechecks(self, run):
        assert run[1] == []

    def test_summary_gates_one_solved_count_per_config(self, run):
        payload, _ = run
        assert set(payload["summary"]) == {
            "solved_bab_bfs_k8_n300", "solved_abcrown_k8_n300", "solved_abonn_k8_n300",
            "label_contradictions"}
        assert payload["strata"] == {name: 1 for name in bench_rq1.STRATA}
        for instance in payload["node_budget"]["instances"]:
            assert instance["runs"]["abonn_k8_n300"]["status"] in (
                "verified", "falsified", "timeout")
        timing = payload["timing"]["instances"]
        assert all(len(entry["abonn_k8_n300"]["seconds"]) == 2 for entry in timing.values())

    def test_the_node_budget_section_is_reproducible(self, run, strata_instances):
        instances = list(strata_instances.values())
        labels = {i.key: {"status": "timeout", "source": "milp"} for i in instances}
        configs = [(name, 8, 300) for name in bench_rq1.VERIFIERS]
        again, _ = bench_rq1.run_bench(instances, labels, configs, repeats=1)
        assert (json.dumps(again["node_budget"], sort_keys=True)
                == json.dumps(run[0]["node_budget"], sort_keys=True))

    def test_tables_render_every_stratum(self, run):
        table = bench_rq1.render_table2(run[0])
        for stratum in bench_rq1.STRATA:
            assert f"stratum {stratum}" in table
        assert "Fig. 6" in bench_rq1.render_fig6(run[0])


class TestCommittedLabels:
    def test_every_label_names_its_source_and_digest(self):
        payload = json.loads(bench_rq1.LABELS_PATH.read_text())
        assert payload["milp_time_limit_per_row"] == bench_rq1.MILP_SECONDS_PER_ROW
        labels = payload["labels"]
        assert len(labels) == 55
        for key, label in labels.items():
            assert len(label["spec_digest"]) == 16, key
            assert label["status"] in ("verified", "falsified", "timeout"), key
            if label["source"] == "counterexample" or label["status"] == "falsified":
                assert label["status"] == "falsified" and label["counterexample"], key
            else:
                assert label["source"] == "milp", key
