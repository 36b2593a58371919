"""Rule framework of the project-invariant linter (stdlib only, offline).

The linter walks Python files with :mod:`ast` — it never imports the
checked code, so it runs in the dependency-free CI ``lint`` job — and
reports :class:`Finding`\\ s in ``file:line rule-id message`` form.  Rules
are small :class:`Rule` subclasses registered via :func:`register`; each
rule declares the path *scope* it applies to (the lock-discipline rule has
no business in ``tests/``, the wall-clock rule exempts the one module that
is allowed to read the clock), so one ``python -m tools.lint src tools
tests`` invocation runs every rule exactly where its invariant lives.

Suppressions
------------
A finding is silenced by an inline comment on the *flagged line*::

    self._resolved += 1  # lint: disable=lock-discipline - loop-thread confined

The justification after `` - `` is **mandatory**: a suppression without one
is itself a finding (rule id ``suppression``), as is a suppression naming a
rule id that does not exist.  ``disable=all`` silences every rule on the
line — same justification requirement.  The exception-discipline rule
additionally honours the repository's pre-existing isolation-boundary
marker (``# noqa: BLE001 - <reason>``); see the rule's module.

See ``docs/STATIC_ANALYSIS.md`` for the invariant each shipped rule pins
and the policy on adding suppressions.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source line."""

    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        """The canonical ``file:line rule-id message`` report line."""
        return f"{self.path}:{self.line} {self.rule} {self.message}"


@dataclass
class LintContext:
    """Everything a rule may inspect about one file (already parsed)."""

    path: Path
    relpath: str
    source: str
    lines: List[str]
    tree: ast.Module

    def line_text(self, lineno: int) -> str:
        """The 1-indexed source line (empty string when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


class Rule:
    """Base class of all lint rules.

    Subclasses set :attr:`id` (the kebab-case identifier used in reports
    and suppressions), :attr:`description`, the path :attr:`scope` the rule
    applies to (posix-style prefixes relative to the lint root; empty means
    every file) and optional :attr:`exempt` prefixes carved out of the
    scope, then implement :meth:`check`.
    """

    id: str = ""
    description: str = ""
    scope: Tuple[str, ...] = ()
    exempt: Tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        """Whether this rule runs on the file at ``relpath``."""
        if any(relpath.startswith(prefix) for prefix in self.exempt):
            return False
        if not self.scope:
            return True
        return any(relpath.startswith(prefix) for prefix in self.scope)

    def check(self, context: LintContext) -> Iterable[Finding]:
        """Yield every violation of this rule found in ``context``."""
        raise NotImplementedError


#: Registry of rule instances, keyed by rule id (populated by
#: :func:`register` when ``tools.lint.rules`` is imported).
REGISTRY: Dict[str, Rule] = {}

#: Pseudo rule ids the framework itself emits (valid suppression targets
#: only where that makes sense; ``parse-error`` cannot be suppressed).
FRAMEWORK_RULE_IDS = ("parse-error", "suppression")


def register(rule_cls: type) -> type:
    """Class decorator adding one instance of ``rule_cls`` to the registry."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"{rule_cls.__name__} has no rule id")
    if rule.id in REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    REGISTRY[rule.id] = rule
    return rule_cls


#: ``# lint: disable=<ids>`` with everything after the ids captured so the
#: mandatory `` - justification`` tail can be validated separately.
_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\-]+)(.*)$")

#: The mandatory justification tail: `` - <non-empty text>``.
_JUSTIFICATION_RE = re.compile(r"^\s*-\s+\S")


@dataclass
class Suppressions:
    """Per-file inline suppressions plus the findings they generate.

    ``by_line`` maps a 1-indexed line number to the rule ids disabled on
    that line (``{"all"}`` disables every rule).  Malformed suppressions —
    no justification, or an unknown rule id — surface as ``suppression``
    findings so a typo can never silently disable a rule.
    """

    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    findings: List[Finding] = field(default_factory=list)

    def active(self, finding: Finding) -> bool:
        """Whether ``finding`` is silenced by a suppression on its line."""
        ids = self.by_line.get(finding.line)
        if ids is None:
            return False
        return finding.rule in ids or "all" in ids


def parse_suppressions(relpath: str, lines: Sequence[str],
                       known_ids: Optional[Set[str]] = None) -> Suppressions:
    """Collect ``# lint: disable=...`` comments (validating justifications).

    ``known_ids`` defaults to the registry's rule ids plus the framework's
    own; suppressions naming anything else are reported, not honoured.
    """
    if known_ids is None:
        known_ids = set(REGISTRY) | set(FRAMEWORK_RULE_IDS) | {"all"}
    suppressions = Suppressions()
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
        unknown = sorted(ids - known_ids)
        if unknown:
            suppressions.findings.append(Finding(
                relpath, lineno, "suppression",
                f"unknown rule id(s) in suppression: {', '.join(unknown)}"))
            continue
        if not _JUSTIFICATION_RE.match(match.group(2)):
            suppressions.findings.append(Finding(
                relpath, lineno, "suppression",
                "suppression lacks a justification: write "
                "`# lint: disable=<rule-id> - <why this is safe>`"))
            continue
        suppressions.by_line.setdefault(lineno, set()).update(ids)
    return suppressions


def python_files(targets: Iterable[str]) -> List[Path]:
    """Expand files and directories into a sorted list of ``*.py`` paths."""
    files: List[Path] = []
    for target in targets:
        path = Path(target)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def _relpath(path: Path, root: Path) -> str:
    """``path`` relative to ``root`` in posix form (as-given fallback)."""
    try:
        return path.resolve().relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


@dataclass
class LintReport:
    """Outcome of one lint run.

    ``findings`` are the unsuppressed violations (including malformed
    suppressions and parse errors); ``suppressed`` the findings silenced by
    a justified inline suppression; ``missing`` the targets that did not
    exist.  The run is clean iff ``ok``.
    """

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    files: int = 0

    @property
    def ok(self) -> bool:
        """Whether the tree is clean (no findings, no missing inputs)."""
        return not self.findings and not self.missing


def lint_file(path: Path, root: Path,
              rules: Optional[Sequence[Rule]] = None) -> Tuple[List[Finding],
                                                               List[Finding]]:
    """Run every applicable rule on one file.

    Returns ``(findings, suppressed)``.  A file that does not parse yields
    a single unsuppressable ``parse-error`` finding — the other rules need
    a tree to work on.
    """
    relpath = _relpath(path, root)
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return ([Finding(relpath, exc.lineno or 1, "parse-error",
                         f"file does not parse: {exc.msg}")], [])
    if rules is None:
        rules = list(REGISTRY.values())
    suppressions = parse_suppressions(relpath, lines)
    context = LintContext(path=path, relpath=relpath, source=source,
                          lines=lines, tree=tree)
    findings: List[Finding] = list(suppressions.findings)
    suppressed: List[Finding] = []
    for rule in rules:
        if not rule.applies_to(relpath):
            continue
        for finding in rule.check(context):
            if suppressions.active(finding):
                suppressed.append(finding)
            else:
                findings.append(finding)
    return findings, suppressed


def run_lint(targets: Iterable[str], root: Optional[Path] = None,
             rules: Optional[Sequence[Rule]] = None) -> LintReport:
    """Lint ``targets`` (files or directories) against ``rules``.

    ``root`` anchors the relative paths used for rule scoping and report
    lines; it defaults to the current working directory, so running from
    the repository root scopes rules exactly as documented.
    """
    if rules is None:
        # Imported lazily so ``core`` stays importable on its own; the
        # import populates :data:`REGISTRY` via :func:`register`.
        from . import rules  # lint: disable=unused-import - registers the rules
        rules = list(REGISTRY.values())
    root = (Path.cwd() if root is None else Path(root)).resolve()
    report = LintReport()
    for path in python_files(targets):
        if not path.exists():
            report.missing.append(str(path))
            continue
        report.files += 1
        findings, suppressed = lint_file(path, root, rules)
        report.findings.extend(findings)
        report.suppressed.extend(suppressed)
    report.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return report
