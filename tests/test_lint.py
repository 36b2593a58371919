"""The project-invariant linter: every rule fires, and the tree is clean.

Each rule gets three fixture checks — a known-bad snippet it must flag, a
known-good snippet it must pass, and a suppressed copy of the bad snippet
it must silence (with a justification) — plus framework tests for the
suppression grammar, scoping and the CLI.  The clean-tree tests pin the
acceptance invariant: ``python -m tools.lint --all src tools tests`` exits
zero on this repository.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from lint import REGISTRY, Finding, parse_suppressions, run_lint  # noqa: E402
from lint.core import FRAMEWORK_RULE_IDS  # noqa: E402


def lint_snippet(tmp_path, relpath, source):
    """Write ``source`` at ``tmp_path/relpath`` and lint it from that root."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint([str(path)], root=tmp_path)


def rule_ids(report):
    return {finding.rule for finding in report.findings}


class TestFramework:
    def test_all_seven_rules_registered(self):
        import lint.rules  # lint: disable=unused-import - populates the registry

        assert set(REGISTRY) == {
            "lock-discipline", "rng-discipline", "wallclock-discipline",
            "exception-discipline", "payload-pickle-safety",
            "api-annotations", "unused-import",
        }

    def test_finding_format_is_file_line_rule_message(self):
        finding = Finding("src/x.py", 7, "rng-discipline", "no dice")
        assert finding.format() == "src/x.py:7 rng-discipline no dice"

    def test_parse_error_is_reported_not_raised(self, tmp_path):
        report = lint_snippet(tmp_path, "src/broken.py", "def broken(:\n")
        assert rule_ids(report) == {"parse-error"}

    def test_scoping_keeps_src_rules_out_of_tests(self, tmp_path):
        report = lint_snippet(tmp_path, "tests/test_x.py", """\
            import random
            import time

            def jitter():
                return random.random() * time.time()
            """)
        assert report.ok

    def test_missing_target_fails_the_run(self, tmp_path):
        report = run_lint([str(tmp_path / "nope.py")], root=tmp_path)
        assert not report.ok
        assert report.missing


#: Built by concatenation so the linter never reads this test file's own
#: fixture strings as real (malformed) suppressions of test_lint.py.
MARKER = "# lint: " + "disable="


class TestSuppressions:
    def test_suppression_without_justification_is_a_finding(self):
        sup = parse_suppressions(
            "src/x.py", [f"x = 1  {MARKER}rng-discipline"],
            known_ids={"rng-discipline", "all"} | set(FRAMEWORK_RULE_IDS))
        assert [f.rule for f in sup.findings] == ["suppression"]
        assert not sup.by_line

    def test_unknown_rule_id_is_a_finding_and_not_honoured(self):
        sup = parse_suppressions(
            "src/x.py", [f"x = 1  {MARKER}rgn-discipline - typo"],
            known_ids={"rng-discipline", "all"} | set(FRAMEWORK_RULE_IDS))
        assert [f.rule for f in sup.findings] == ["suppression"]
        assert not sup.by_line

    def test_justified_suppression_silences_only_its_line(self, tmp_path):
        report = lint_snippet(tmp_path, "src/mod.py", """\
            import numpy as np

            def draw():
                np.random.seed(0)  # lint: disable=rng-discipline - fixture
                return np.random.rand()
            """)
        assert [f.line for f in report.findings] == [5]
        assert [f.line for f in report.suppressed] == [4]

    def test_disable_all_silences_every_rule_on_the_line(self, tmp_path):
        report = lint_snippet(tmp_path, "src/mod.py", """\
            import time

            def now():
                return time.time()  # lint: disable=all - fixture
            """)
        assert report.ok
        assert report.suppressed


class TestLockDiscipline:
    BAD = """\
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0

            def bump(self):
                self.count += 1
        """

    def test_flags_unlocked_write_in_lock_owning_class(self, tmp_path):
        report = lint_snippet(tmp_path, "src/box.py", self.BAD)
        assert rule_ids(report) == {"lock-discipline"}
        assert report.findings[0].line == 9

    def test_passes_write_under_the_lock(self, tmp_path):
        report = lint_snippet(tmp_path, "src/box.py", """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1
            """)
        assert report.ok

    def test_passes_class_without_its_own_lock(self, tmp_path):
        report = lint_snippet(tmp_path, "src/box.py", """\
            class Plain:
                def bump(self):
                    self.count = 1
            """)
        assert report.ok

    def test_init_and_subscript_stores_are_exempt(self, tmp_path):
        report = lint_snippet(tmp_path, "src/box.py", """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.jobs = {}
                    self.count = 0

                def enqueue(self, job):
                    self.jobs[job.id] = job
            """)
        assert report.ok

    def test_suppression_silences_it(self, tmp_path):
        suppressed = self.BAD.replace(
            "self.count += 1",
            "self.count += 1  # lint: disable=lock-discipline - fixture")
        report = lint_snippet(tmp_path, "src/box.py", suppressed)
        assert report.ok
        assert report.suppressed


class TestRngDiscipline:
    def test_flags_numpy_module_state_even_aliased(self, tmp_path):
        report = lint_snippet(tmp_path, "src/mod.py", """\
            import numpy as xyz

            def draw():
                return xyz.random.rand(3)
            """)
        assert rule_ids(report) == {"rng-discipline"}

    def test_flags_stdlib_random_import(self, tmp_path):
        report = lint_snippet(tmp_path, "src/mod.py",
                              "import random\n\nDRAW = random.random\n")
        assert rule_ids(report) == {"rng-discipline"}

    def test_passes_seeded_generator_construction(self, tmp_path):
        report = lint_snippet(tmp_path, "src/mod.py", """\
            import numpy as np

            def make_rng(seed):
                return np.random.default_rng(np.random.SeedSequence(seed))
            """)
        assert report.ok


class TestWallclockDiscipline:
    def test_flags_time_time_even_via_from_import(self, tmp_path):
        report = lint_snippet(tmp_path, "src/mod.py", """\
            from time import perf_counter

            def tick():
                return perf_counter()
            """)
        findings = [f for f in report.findings
                    if f.rule == "wallclock-discipline"]
        assert findings  # both the import and the call are flagged

    def test_flags_datetime_now(self, tmp_path):
        report = lint_snippet(tmp_path, "src/mod.py", """\
            from datetime import datetime

            def stamp():
                return datetime.now()
            """)
        assert rule_ids(report) == {"wallclock-discipline"}

    def test_passes_monotonic_and_the_timing_module(self, tmp_path):
        report = lint_snippet(tmp_path, "src/mod.py", """\
            import time

            def deadline(seconds):
                return time.monotonic() + seconds
            """)
        assert report.ok
        exempt = lint_snippet(tmp_path, "src/repro/utils/timing.py", """\
            import time

            def read_clock():
                return time.perf_counter()
            """)
        assert exempt.ok


class TestExceptionDiscipline:
    def test_flags_bare_except(self, tmp_path):
        report = lint_snippet(tmp_path, "src/mod.py", """\
            def swallow(op):
                try:
                    op()
                except:
                    pass
            """)
        assert rule_ids(report) == {"exception-discipline"}

    def test_flags_unmarked_broad_except(self, tmp_path):
        report = lint_snippet(tmp_path, "src/mod.py", """\
            def isolate(op):
                try:
                    op()
                except Exception:
                    pass
            """)
        assert rule_ids(report) == {"exception-discipline"}

    def test_noqa_ble001_with_reason_is_the_sanctioned_marker(self, tmp_path):
        report = lint_snippet(tmp_path, "src/mod.py", """\
            def isolate(op):
                try:
                    op()
                except Exception:  # noqa: BLE001 - worker isolation boundary
                    pass
            """)
        assert report.ok

    def test_narrow_handler_needs_no_marker(self, tmp_path):
        report = lint_snippet(tmp_path, "src/mod.py", """\
            def read(path):
                try:
                    return open(path).read()
                except OSError:
                    return None
            """)
        assert report.ok


class TestPayloadPickleSafety:
    def test_flags_callable_field_on_a_payload_class(self, tmp_path):
        report = lint_snippet(tmp_path, "src/jobs.py", """\
            from dataclasses import dataclass
            from typing import Callable, Optional


            @dataclass(frozen=True)
            class JobRequest:
                callback: Optional[Callable[[], None]] = None
            """)
        assert rule_ids(report) == {"payload-pickle-safety"}

    def test_passes_structural_fields(self, tmp_path):
        report = lint_snippet(tmp_path, "src/jobs.py", """\
            from dataclasses import dataclass, field
            from typing import Dict, Optional

            import numpy as np


            @dataclass(frozen=True)
            class JobRequest:
                priority: int = 0
                deadline_seconds: Optional[float] = None
                witness: Optional[np.ndarray] = None
                metadata: Dict[str, object] = field(default_factory=dict)
            """)
        assert report.ok

    def test_non_payload_classes_are_not_checked(self, tmp_path):
        report = lint_snippet(tmp_path, "src/other.py", """\
            from dataclasses import dataclass
            from typing import Callable


            @dataclass
            class LocalPlan:
                op: Callable[[], None]
            """)
        assert report.ok


class TestApiAnnotations:
    def test_flags_unannotated_public_callable_on_the_surface(self, tmp_path):
        report = lint_snippet(tmp_path, "src/repro/engine/mod.py", """\
            class Driver:
                def run(self, item):
                    return item
            """)
        assert rule_ids(report) == {"api-annotations"}
        assert "item" in report.findings[0].message
        assert "return" in report.findings[0].message

    def test_passes_fully_annotated_callable(self, tmp_path):
        report = lint_snippet(tmp_path, "src/repro/engine/mod.py", """\
            class Driver:
                def run(self, item: object) -> object:
                    return item
            """)
        assert report.ok

    def test_private_callables_and_other_paths_are_exempt(self, tmp_path):
        surface = lint_snippet(tmp_path, "src/repro/engine/mod.py", """\
            class Driver:
                def _step(self, item):
                    return item
            """)
        assert surface.ok
        elsewhere = lint_snippet(tmp_path, "src/repro/bounds/mod.py", """\
            def helper(x):
                return x
            """)
        assert elsewhere.ok


class TestUnusedImport:
    def test_flags_an_unused_import(self, tmp_path):
        report = lint_snippet(tmp_path, "src/mod.py", """\
            import os
            from typing import Iterable, List


            def names() -> List[str]:
                return []
            """)
        assert rule_ids(report) == {"unused-import"}
        assert [f.message for f in report.findings] == [
            "`os` is imported but never used",
            "`Iterable` is imported but never used"]
        assert [f.line for f in report.findings] == [1, 2]

    def test_passes_used_and_exported_imports(self, tmp_path):
        report = lint_snippet(tmp_path, "src/mod.py", """\
            from __future__ import annotations

            import os.path
            from collections import OrderedDict
            from typing import List as Names
            from repro.bounds import BoundReport

            __all__ = ["BoundReport", "names"]


            def names(store: "OrderedDict[str, int]") -> Names:
                return [os.path.basename(name) for name in store]
            """)
        assert report.ok

    def test_init_reexports_are_exempt(self, tmp_path):
        report = lint_snippet(tmp_path, "src/pkg/__init__.py", """\
            from pkg.mod import helper
            """)
        assert report.ok

    def test_suppression_silences_it(self, tmp_path):
        report = lint_snippet(tmp_path, "src/mod.py", f"""\
            import pkg.plugins  {MARKER}unused-import - registers the plugins
            """)
        assert report.ok
        assert [f.rule for f in report.suppressed] == ["unused-import"]


class TestCleanTree:
    def test_repository_is_lint_clean(self):
        report = run_lint([str(REPO_ROOT / "src"), str(REPO_ROOT / "tools"),
                           str(REPO_ROOT / "tests")], root=REPO_ROOT)
        assert report.findings == [], \
            "\n".join(f.format() for f in report.findings)

    def test_every_repository_suppression_is_justified(self):
        # The parser only honours justified suppressions, so a clean run
        # with a nonzero suppressed count certifies both halves at once.
        report = run_lint([str(REPO_ROOT / "src")], root=REPO_ROOT)
        assert report.ok
        assert report.suppressed, "expected the documented suppressions"

    def test_cli_all_gates_exit_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.lint", "--all",
             "src", "tools", "tests"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "docstring gate" in proc.stdout
        assert "markdown-link gate" in proc.stdout

    def test_cli_without_targets_is_a_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.lint"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2

    def test_cli_list_rules(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.lint", "--list-rules"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        for rule_id in ("lock-discipline", "rng-discipline",
                        "wallclock-discipline", "exception-discipline",
                        "payload-pickle-safety", "api-annotations",
                        "unused-import"):
            assert rule_id in proc.stdout
