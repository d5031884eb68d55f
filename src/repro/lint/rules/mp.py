"""Multiprocessing-safety rule RPL006 pool-picklability.

Pool entry points cross a process boundary by pickling.  Lambdas,
nested functions and bound methods fail at runtime (or, worse, only
under the spawn start method CI does not exercise).  Open handles on
worker payloads are the whole-program rule RPL103's
(:mod:`repro.lint.program.rules`).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.config import LintConfig
from repro.lint.engine import Finding, ModuleUnit, Rule, register

#: pool / executor methods whose first argument is shipped to a worker
_SUBMIT_METHODS = frozenset(
    {
        "submit",
        "map",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
        "map_async",
        "apply",
        "apply_async",
    }
)


def _pool_like(recv: ast.AST) -> bool:
    """Heuristic: the receiver is a pool/executor object."""
    name = ""
    if isinstance(recv, ast.Name):
        name = recv.id
    elif isinstance(recv, ast.Attribute):
        name = recv.attr
    lowered = name.lower()
    return "pool" in lowered or "executor" in lowered


@register
class PoolPicklabilityRule(Rule):
    """Pool entry points must be module-level (picklable) functions."""

    id = "RPL006"
    name = "pool-picklability"
    summary = "unpicklable callable submitted to a Pool/Executor"
    rationale = (
        "multiprocessing ships the entry point to the worker by pickling "
        "its qualified name: lambdas, functions defined inside another "
        "function, and bound methods either fail immediately under the "
        "spawn start method or silently depend on fork sharing the "
        "parent's memory.  Every callable passed to Pool.map/imap*/"
        "apply* or Executor.submit must be a module-level function."
    )

    def check(self, unit: ModuleUnit, config: LintConfig) -> Iterator[Finding]:
        assert unit.tree is not None
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in _SUBMIT_METHODS:
                continue
            if not _pool_like(node.func.value):
                continue
            if not node.args:
                continue
            target = node.args[0]
            message = self._target_violation(target, unit)
            if message is not None:
                yield self.finding(unit, target, message)

    @staticmethod
    def _target_violation(
        target: ast.AST, unit: ModuleUnit
    ) -> Optional[str]:
        if isinstance(target, ast.Lambda):
            return (
                "lambda submitted to a pool; lambdas cannot be pickled — "
                "define a module-level function"
            )
        if isinstance(target, ast.Name):
            if target.id in unit.nested_functions:
                return (
                    f"nested function {target.id!r} submitted to a pool; "
                    "functions defined inside another function cannot be "
                    "pickled — move it to module level"
                )
            if target.id in unit.lambda_names:
                return (
                    f"{target.id!r} is bound to a lambda; lambdas cannot "
                    "be pickled — define a module-level function"
                )
            return None
        if isinstance(target, ast.Attribute):
            root: ast.AST = target
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name):
                if root.id in unit.module_aliases:
                    return None  # module.function: picklable
                if root.id == "self":
                    return (
                        "bound method submitted to a pool; the pickled "
                        "method drags its whole instance across the "
                        "process boundary — use a module-level function "
                        "taking the needed fields"
                    )
            return (
                "attribute callable submitted to a pool; bound methods "
                "pickle their instance (or fail) — use a module-level "
                "function"
            )
        return None
