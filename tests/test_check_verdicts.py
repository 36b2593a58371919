"""Tests for ``tools/check_verdicts.py``, the per-instance verdict ledger gate."""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_verdicts  # noqa: E402
from check_verdicts import LEDGER_PATH, classify, compare  # noqa: E402


def entry(verdict="verified", nodes=12, tree=13, digest="00112233aabbccdd"):
    return {"spec_digest": digest, "verdict": verdict, "nodes_explored": nodes,
            "tree_size": tree}


LEDGER = {"abonn-dense": {"a": entry(), "b": entry("timeout", 800, 801),
                          "c": entry("falsified", 3, 4)}}


def observed(**changes):
    """The ledger as one pass would observe it, with ``key=entry`` replaced."""
    run = {key: [dict(value)] for key, value in LEDGER["abonn-dense"].items()}
    for key, value in changes.items():
        run[key] = [value]
    return {"abonn-dense": run}


def failing(differences):
    return {(key, kind) for _, key, kind, fails, _, _ in differences if fails}


class TestClassify:
    @pytest.mark.parametrize("before, after, kind, fails", [
        (entry(), entry(), "identical", False),
        (entry("timeout"), entry("verified"), "solved", False),
        (entry("unknown"), entry("falsified"), "solved", False),
        (entry("timeout"), entry("unknown"), "changed", False),
        (entry("verified"), entry("timeout"), "lost", True),
        (entry("falsified"), entry("unknown"), "lost", True),
        (entry("verified"), entry("falsified"), "flipped", True),
        (entry("falsified"), entry("verified"), "flipped", True),
        (entry("verified"), entry("verified", nodes=14), "moved", True),
        (entry("verified"), entry("verified", tree=15), "moved", True),
        (entry("falsified"), entry("falsified", nodes=30), "moved", False),
        (entry("timeout"), entry("error"), "error", True),
        (None, entry(), "new", True),
        (entry(), None, "missing", True),
    ])
    def test_kinds(self, before, after, kind, fails):
        assert classify(before, after) == (kind, fails)

    def test_a_moved_digest_fails_even_with_the_same_verdict(self):
        assert classify(entry(), entry(digest="ffffffffffffffff")) == ("digest", True)


class TestCompare:
    def test_identical_run_has_no_difference(self):
        assert compare(LEDGER, observed()) == []

    def test_flipped_verdict_fails(self):
        differences = compare(LEDGER, observed(a=entry("falsified")))
        assert failing(differences) == {("a", "flipped")}

    def test_changed_digest_fails(self):
        differences = compare(LEDGER, observed(b=entry("timeout", 800, 801, "0" * 16)))
        assert failing(differences) == {("b", "digest")}

    def test_solved_instance_is_listed_and_passes(self):
        differences = compare(LEDGER, observed(b=entry("verified", 40, 41)))
        assert [(key, kind) for _, key, kind, _, _, _ in differences] == [("b", "solved")]
        assert failing(differences) == set()

    def test_every_attempt_of_an_instance_is_checked(self):
        run = observed()
        run["abonn-dense"]["c"].append(entry("verified", 3, 4))
        assert failing(compare(LEDGER, run)) == {("c", "flipped")}

    def test_missing_workload_fails_every_instance(self):
        assert failing(compare(LEDGER, {})) == {("a", "missing"), ("b", "missing"),
                                                ("c", "missing")}


class TestMain:
    def test_exit_status_follows_failing_differences(self, monkeypatch, capsys):
        ledger = json.loads(LEDGER_PATH.read_text())["workloads"]
        run = {workload: {key: [dict(value)] for key, value in entries.items()}
               for workload, entries in ledger.items()}
        monkeypatch.setattr(check_verdicts, "observe", lambda: run)
        assert check_verdicts.main([]) == 0
        workload = sorted(run)[0]
        key = sorted(run[workload])[0]
        attempt = run[workload][key][0]
        attempt["verdict"] = "falsified" if attempt["verdict"] == "verified" else "verified"
        assert check_verdicts.main([]) == 1
        assert f"FAIL {workload} {key}" in capsys.readouterr().out


def test_committed_ledger_covers_the_four_workloads():
    ledger = json.loads(LEDGER_PATH.read_text())
    assert ledger["seed"] == 0
    assert sorted(ledger["workloads"]) == ["abcrown-suite", "abonn-conv", "abonn-dense",
                                           "service-burst"]
    for entries in ledger["workloads"].values():
        assert entries
        for value in entries.values():
            assert sorted(value) == ["nodes_explored", "spec_digest", "tree_size", "verdict"]
            assert value["verdict"] in ("verified", "falsified", "timeout", "unknown")
