"""unused-import: every imported name is read in its module.

An import that nothing reads outlives the code it served: it misstates
what a module depends on, keeps a deleted API looking alive, and costs an
import at start-up.  Deleting a back-end, a wrapper or a test helper should
delete its imports with it, and this rule makes the leftovers visible.

A name counts as used when the module reads it anywhere — as a name, as
the root of an attribute chain, or inside a string annotation
(``"OrderedDict[bytes, bool]"``).  The rule exempts what an import can
mean without a read:

* ``__init__.py`` files, whose imports are the package's re-exports;
* names listed in the module's ``__all__``;
* ``from __future__`` imports, which are compiler directives.

An import kept only for its side effect (registering rules, say) carries a
justified ``# lint: disable=unused-import - <why>`` on its line.
"""

from __future__ import annotations

import ast
from typing import Iterable, Set

from ..core import Finding, LintContext, Rule, register


def _annotations(tree: ast.Module) -> Iterable[ast.AST]:
    """Every annotation expression of the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.arg):
            if node.annotation is not None:
                yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree: ast.Module) -> Set[str]:
    """The names the module reads, string annotations included."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names |= _read_names(parsed)
    return names


def _exported_names(tree: ast.Module) -> Set[str]:
    """The string entries of module-level ``__all__`` assignments."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(target, ast.Name) and target.id == "__all__"
                   for target in targets):
                names |= {element.value for element in ast.walk(node.value)
                          if isinstance(element, ast.Constant)
                          and isinstance(element.value, str)}
    return names


@register
class UnusedImportRule(Rule):
    """Every imported name is read in its module."""

    id = "unused-import"
    description = ("every imported name is read in its module "
                   "(`__init__.py` re-exports, `__all__` names and "
                   "`__future__` imports exempt)")

    def check(self, context: LintContext) -> Iterable[Finding]:
        """Flag each imported name the module never reads."""
        if context.path.name == "__init__.py":
            return
        used = _read_names(context.tree) | _exported_names(context.tree)
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name != "*" and bound not in used:
                    yield Finding(context.relpath, node.lineno, self.id,
                                  f"`{bound}` is imported but never used")
