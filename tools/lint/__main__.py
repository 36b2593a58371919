"""CLI of the project-invariant linter.

``python -m tools.lint <targets>`` runs the AST rules; ``--all`` chains
the repository's two other static gates (docstring and Markdown-link
checks) on their CI-pinned surfaces, so one command reproduces the whole
dependency-free ``lint`` CI job locally.  Exit status: 0 clean, 1 findings
(or a failing chained gate), 2 usage error.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from pathlib import Path
from typing import List, Optional

from .core import REGISTRY, run_lint

#: The docstring-gated surfaces — kept in lockstep with the CI docs job
#: (.github/workflows/ci.yml) so `--all` reproduces it exactly.
DOCSTRING_SURFACES = (
    "src/repro/engine", "src/repro/verifiers", "src/repro/core",
    "src/repro/bab/baseline.py", "src/repro/baselines", "src/repro/service",
    "src/repro/bab/heuristics.py", "src/repro/bounds", "src/repro/nn/layers.py",
    "src/repro/nn/training.py",
)

#: The Markdown trees the link checker gates in CI.
MARKDOWN_TARGETS = ("README.md", "ROADMAP.md", "PAPER.md", "CHANGES.md",
                    "docs")


def _load_tool(stem: str):
    """Import a sibling ``tools/<stem>.py`` single-file checker by path.

    The existing checkers are standalone scripts, not package members;
    loading them by file path keeps them working unchanged in both their
    CLI form and under ``--all``.
    """
    path = Path(__file__).resolve().parents[1] / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(stem, path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: lint targets, optionally chaining the other gates."""
    parser = argparse.ArgumentParser(
        prog="python -m tools.lint",
        description="Rule-based AST linter for this repository's "
                    "project invariants (stdlib only; never imports "
                    "the checked code).")
    parser.add_argument("targets", nargs="*",
                        help="files or directories to lint "
                             "(e.g. src tools tests)")
    parser.add_argument("--all", action="store_true", dest="run_all",
                        help="also run the docstring and Markdown-link "
                             "gates on their CI surfaces")
    parser.add_argument("--list-rules", action="store_true",
                        help="list the registered rules and exit")
    args = parser.parse_args(argv)

    # Populate the registry before --list-rules or linting.
    from . import rules  # lint: disable=unused-import - registers the rules

    if args.list_rules:
        for rule_id in sorted(REGISTRY):
            rule = REGISTRY[rule_id]
            scope = ", ".join(rule.scope) if rule.scope else "<everywhere>"
            print(f"{rule_id}  [{scope}]")
            print(f"    {rule.description}")
        return 0

    if not args.targets:
        parser.print_usage(sys.stderr)
        print("error: no targets given (try: src tools tests)",
              file=sys.stderr)
        return 2

    report = run_lint(args.targets)
    for missing in report.missing:
        print(f"MISSING INPUT: {missing}")
    for finding in report.findings:
        print(finding.format())
    status = 0 if report.ok else 1
    summary = (f"{'ok' if report.ok else 'FAIL'}: {report.files} file(s), "
               f"{len(report.findings)} finding(s), "
               f"{len(report.suppressed)} suppressed")
    print(summary)

    if args.run_all:
        print("-- docstring gate --")
        docstrings = _load_tool("check_docstrings")
        status = max(status, docstrings.main(list(DOCSTRING_SURFACES)))
        print("-- markdown-link gate --")
        links = _load_tool("check_markdown_links")
        status = max(status, links.main(list(MARKDOWN_TARGETS)))

    return status


if __name__ == "__main__":
    sys.exit(main())
