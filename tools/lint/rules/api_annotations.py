"""api-annotations: public surfaces are fully type-annotated.

The engine's :class:`WorkSource` hooks, the service API and the verifier
entry points are contracts that three drivers, two transports and the
bench harness program against.  Docstrings on these surfaces are already
CI-gated (``tools/check_docstrings.py``); this rule closes the other half
of the contract: every *public* callable on the gated surfaces annotates
every parameter and its return type, so a reader (or a type checker) never
has to reverse-engineer what ``item`` or ``payload`` may be from call
sites.

Publicness mirrors the docstring gate exactly: module-level functions and
public methods of public classes, with dunders and ``@overload``/property
``setter``/``deleter`` companions exempt, and ``self``/``cls`` naturally
unannotated.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..astutil import decorator_name, is_dunder, is_public_name
from ..core import Finding, LintContext, Rule, register

#: Decorators whose targets the docstring gate (and therefore this rule)
#: exempts: typing stubs and property companions.
EXEMPT_DECORATORS = {"overload", "setter", "deleter"}


def _missing_annotations(node: ast.AST, is_method: bool) -> List[str]:
    """Parameter names (plus ``"return"``) lacking annotations."""
    args = node.args
    missing: List[str] = []
    decorators = {decorator_name(d) for d in node.decorator_list}
    positional = list(args.posonlyargs) + list(args.args)
    if is_method and "staticmethod" not in decorators and positional:
        positional = positional[1:]  # self / cls
    for arg in positional + list(args.kwonlyargs):
        if arg.annotation is None:
            missing.append(arg.arg)
    for arg in (args.vararg, args.kwarg):
        if arg is not None and arg.annotation is None:
            missing.append(f"*{arg.arg}")
    if node.returns is None:
        missing.append("return")
    return missing


@register
class ApiAnnotationsRule(Rule):
    """Public callables on gated surfaces annotate params and return."""

    id = "api-annotations"
    description = ("public callables on engine/service/verifier surfaces "
                   "must annotate every parameter and the return type")
    scope = ("src/repro/engine/", "src/repro/service/",
             "src/repro/verifiers/", "src/repro/core/abonn.py",
             "src/repro/bab/baseline.py", "src/repro/baselines/",
             "src/repro/bab/heuristics.py", "src/repro/bounds/report.py")

    def check(self, context: LintContext) -> Iterable[Finding]:
        """Check every public callable on the gated surface."""
        module_public = is_public_name(context.path.stem) \
            or context.path.stem == "__init__"

        def visit(body: Iterable[ast.AST], prefix: str,
                  owner_public: bool, in_class: bool) -> Iterable[Finding]:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not owner_public or not is_public_name(node.name) \
                            or is_dunder(node.name):
                        continue
                    if any(decorator_name(d) in EXEMPT_DECORATORS
                           for d in node.decorator_list):
                        continue
                    missing = _missing_annotations(node, in_class)
                    if missing:
                        yield Finding(
                            context.relpath, node.lineno, self.id,
                            f"public callable {prefix}{node.name} is "
                            f"missing annotation(s): "
                            f"{', '.join(missing)}")
                elif isinstance(node, ast.ClassDef):
                    class_public = owner_public \
                        and is_public_name(node.name)
                    yield from visit(node.body, f"{prefix}{node.name}.",
                                     class_public, True)

        yield from visit(context.tree.body, "", module_public, False)
