"""Project-invariant linter (stdlib only, offline, never imports src).

A small rule framework over :mod:`ast` that machine-checks the invariants
this repository's PR history keeps re-litigating in review: lock
discipline in lock-owning classes, seeded-RNG-only randomness, wall-clock
confinement, marked isolation boundaries, pickle-safe transport payloads
and fully annotated public surfaces.  Run it as::

    python -m tools.lint src tools tests          # the six AST rules
    python -m tools.lint --all src tools tests    # + docstring/link gates

Findings print as ``file:line rule-id message`` and any unsuppressed
finding makes the exit status nonzero.  Inline suppressions
(``# lint: disable=<rule-id> - <justification>``) require a justification;
see ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

from .core import (  # noqa: F401 (public re-exports)
    FRAMEWORK_RULE_IDS,
    Finding,
    LintContext,
    LintReport,
    REGISTRY,
    Rule,
    lint_file,
    parse_suppressions,
    python_files,
    register,
    run_lint,
)
