"""payload-pickle-safety: transport payloads stay composed of picklables.

Jobs, results and cache bundles cross a ``multiprocessing`` pipe.  A
field that sneaks a closure, a lock or an open handle into one of these
dataclasses does not fail at the definition site — it fails *later*, in a
worker process, as an opaque ``PicklingError`` (or worse, pickles by
reference and silently diverges between processes).  The
``UnpicklableJob`` fallback exists precisely because one such field
(``JobRequest.verifier_factory``) is legitimately a callable; everything
else must stay structural.

The rule checks the annotated fields of a named family of payload
dataclasses (:data:`PAYLOAD_CLASSES` — everything that transits the
process-transport pipe or a cache bundle) against an allowlist of
annotation atoms: primitives, plain containers, ``numpy.ndarray``,
``typing`` container forms, and the payload family itself.  Anything else
(``Callable``, ``Any``, ``IO``, a lock type, …) is flagged where the field
is *declared*, not where the pickle eventually explodes.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..astutil import attribute_chain
from ..core import Finding, LintContext, Rule, register

#: The dataclasses that transit the process-transport pipe, a cache-bundle
#: handover included.  A class listed here has its annotated fields checked.
PAYLOAD_CLASSES = {
    # service/jobs.py — the pipe protocol's request/reply payloads.
    "JobRequest", "JobResult", "JobError",
    # verifiers/result.py — the verdict shipped back from workers.
    "VerificationResult",
    # bounds/{report,linear_form}.py — cache-bundle payload entries.
    "BoundReport", "FlatBounds", "ScalarBounds",
    # nn/network.py, specs/properties.py — the problem statement in a job.
    "LoweredNetwork", "InputBox", "LinearOutputSpec", "Specification",
    # utils/timing.py, verifiers/milp.py — budget state and LP row results.
    "Budget", "Stopwatch", "RowOptimum",
}

#: Annotation atoms that are pickle-safe by construction.  ``object`` is
#: the repository's documented "picklable extras" escape hatch
#: (``metadata: Dict[str, object]``): it promises nothing about *shape*
#: but the convention (docs/SERVICE.md) is that only plain data goes in.
ALLOWED_ATOMS = {
    # primitives and plain containers
    "int", "float", "str", "bool", "bytes", "complex",
    "dict", "list", "tuple", "set", "frozenset",
    "None", "NoneType", "object",
    # numpy arrays (ship as values through the pipe)
    "np", "numpy", "ndarray", "dtype",
    # typing container forms
    "typing", "Optional", "Union", "Dict", "List", "Tuple", "Set",
    "FrozenSet", "Mapping", "Sequence", "Iterable", "Hashable", "Literal",
    # the payload family itself, plus the enums/values its fields hold
    "VerificationStatus", "Network",
} | PAYLOAD_CLASSES


def _violations(annotation: ast.AST) -> List[str]:
    """Every annotation atom in ``annotation`` outside the allowlist."""
    bad: List[str] = []
    stack: List[ast.AST] = [annotation]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Constant):
            if node.value is None or node.value is Ellipsis:
                continue
            if isinstance(node.value, str):
                # A string annotation: parse and keep walking.
                try:
                    stack.append(ast.parse(node.value, mode="eval").body)
                except SyntaxError:
                    bad.append(repr(node.value))
                continue
            bad.append(repr(node.value))
        elif isinstance(node, (ast.Name, ast.Attribute)):
            chain = attribute_chain(node)
            if chain is None:
                bad.append(ast.dump(node))
            else:
                bad.extend(part for part in chain
                           if part not in ALLOWED_ATOMS)
        elif isinstance(node, ast.Subscript):
            stack.append(node.value)
            stack.append(node.slice)
        elif isinstance(node, (ast.Tuple, ast.List)):
            # Tuples in subscripts; lists as Callable argument groups.
            stack.extend(node.elts)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, ast.Index):  # pragma: no cover (py<3.9 AST)
            stack.append(node.value)  # type: ignore[attr-defined]
        else:
            bad.append(type(node).__name__)
    return bad


@register
class PayloadPickleSafetyRule(Rule):
    """Payload dataclass fields use only allowlisted picklable types."""

    id = "payload-pickle-safety"
    description = ("fields of process-transport/cache-bundle payload "
                   "dataclasses must use allowlisted picklable types")
    scope = ("src/",)

    def check(self, context: LintContext) -> Iterable[Finding]:
        """Check annotated fields of every payload class in the file."""
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ClassDef) \
                    or node.name not in PAYLOAD_CLASSES:
                continue
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign) \
                        or not isinstance(stmt.target, ast.Name):
                    continue
                bad = sorted(set(_violations(stmt.annotation)))
                if bad:
                    yield Finding(
                        context.relpath, stmt.lineno, self.id,
                        f"{node.name}.{stmt.target.id} annotation uses "
                        f"non-allowlisted type(s) {', '.join(bad)}; payload "
                        f"dataclasses cross the worker pipe and must stay "
                        f"picklable by construction")
