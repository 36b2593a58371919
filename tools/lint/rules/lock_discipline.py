"""lock-discipline: instance state of lock-owning classes stays locked.

A class that creates its own ``threading.Lock``/``RLock``/``Condition``
(``self._lock``, ``self.lock``, ``self.wake``, …) shares its instances
across threads, and its correctness argument leans on a simple
convention: it mutates its instance attributes only inside a
``with self.<lock>`` block.  A counter race in exactly this shape
(``LpCache`` stats mutated outside the cache lock) once shipped, so the
convention is machine-checked: in any class that assigns a lock to an
instance attribute, every write to ``self.*`` outside a ``with`` on one of
the class's own locks is flagged.  No class under ``src/`` owns a lock
today; the rule holds the next one to the convention.

Construction is exempt (``__init__``/``__post_init__`` run before the
instance is shared).  The rule is intra-class by design: writes to *other*
objects' attributes (``job.not_before = …``) follow the owning object's
discipline, not the writer's.  Genuinely single-threaded writes (a
cooperative-only code path, a private helper whose caller holds the lock)
are suppressed inline with a justification saying exactly why no lock is
needed — see docs/STATIC_ANALYSIS.md#lock-discipline.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from ..astutil import assignment_targets, attribute_chain, \
    self_attribute_target
from ..core import Finding, LintContext, Rule, register

#: ``threading`` factories whose product makes an attribute a lock.
LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore",
                  "BoundedSemaphore"}

#: Methods that run before the instance can be shared across threads.
CONSTRUCTION_METHODS = {"__init__", "__post_init__", "__new__"}


def _lock_attributes(class_node: ast.ClassDef) -> Set[str]:
    """Names of instance attributes assigned a lock/condition anywhere."""
    locks: Set[str] = set()
    for node in ast.walk(class_node):
        if not isinstance(node, ast.Assign) or not isinstance(node.value,
                                                              ast.Call):
            continue
        chain = attribute_chain(node.value.func)
        if chain is None or chain[-1] not in LOCK_FACTORIES:
            continue
        for target in node.targets:
            written = self_attribute_target(target)
            if written is not None and "." not in written:
                locks.add(written)
    return locks


class _MethodChecker(ast.NodeVisitor):
    """Flags ``self.*`` writes outside ``with self.<lock>`` in one method."""

    def __init__(self, relpath: str, qualname: str,
                 lock_attrs: Set[str]) -> None:
        self.relpath = relpath
        self.qualname = qualname
        self.lock_attrs = lock_attrs
        self.guard_depth = 0
        self.findings: List[Finding] = []

    def _is_own_lock(self, expr: ast.AST) -> bool:
        chain = attribute_chain(expr)
        return (chain is not None and len(chain) == 2
                and chain[0] == "self" and chain[1] in self.lock_attrs)

    def visit_With(self, node: ast.With) -> None:
        guarded = any(self._is_own_lock(item.context_expr)
                      for item in node.items)
        if guarded:
            self.guard_depth += 1
        self.generic_visit(node)
        if guarded:
            self.guard_depth -= 1

    def _check_statement(self, node: ast.AST) -> None:
        if self.guard_depth:
            return
        for target in assignment_targets(node):
            written = self_attribute_target(target)
            if written is None:
                continue
            locks = ", ".join(f"self.{name}"
                              for name in sorted(self.lock_attrs))
            self.findings.append(Finding(
                self.relpath, target.lineno, "lock-discipline",
                f"{self.qualname} writes self.{written} outside a "
                f"`with` on this class's lock(s) ({locks})"))

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_statement(node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_statement(node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_statement(node)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # A class nested inside a method has its own (separate) discipline.
        return


@register
class LockDisciplineRule(Rule):
    """Writes to lock-owning classes' state must hold the class's lock."""

    id = "lock-discipline"
    description = ("in classes that create their own threading locks, "
                   "self.* writes must sit inside `with self.<lock>`")
    scope = ("src/",)

    def check(self, context: LintContext) -> Iterable[Finding]:
        """Check every lock-owning class in the file."""
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            lock_attrs = _lock_attributes(node)
            if not lock_attrs:
                continue
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                    continue
                if method.name in CONSTRUCTION_METHODS:
                    continue
                checker = _MethodChecker(context.relpath,
                                         f"{node.name}.{method.name}",
                                         lock_attrs)
                checker.visit(method)
                yield from checker.findings
