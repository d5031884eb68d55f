"""Atomic-write discipline: RPL005.

Run directories and artifact caches are recovered after SIGKILL by
reading whatever is on disk; a torn half-written JSON file poisons
every later load.  The repository's invariant (docs/resilience.md) is
that every write under those paths goes through the one sanctioned
helper — serialize to a same-directory temp file, then ``os.replace``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import LintConfig, match_path, site_allowed
from repro.lint.engine import Finding, ModuleUnit, Rule, register
from repro.lint.rules._helpers import call_mode_literal, walk_with_qualname

#: Path methods that write the target in place
_DIRECT_WRITERS = frozenset({"write_text", "write_bytes"})


@register
class AtomicWriteRule(Rule):
    """Artifact-path modules must write through the atomic helper."""

    id = "RPL005"
    name = "atomic-write"
    summary = "direct (non-atomic) file write under a run-dir/artifact path"
    rationale = (
        "Crash recovery (RunLedger.recover, cache reload) trusts that "
        "any file present on disk is complete: every state transition "
        "and artifact write must go through the temp-file + os.replace "
        "helper (repro.atomic.write_text_atomic) so a SIGKILL at "
        "any instant leaves either the previous or the next consistent "
        "state, never a torn file.  open(path, 'w'/'a'/'x') and "
        "Path.write_text/write_bytes are therefore banned in the scoped "
        "modules (config: atomic_paths) outside the sanctioned writer "
        "implementations (config: atomic_writers)."
    )

    def check(self, unit: ModuleUnit, config: LintConfig) -> Iterator[Finding]:
        if not any(
            match_path(unit.display_path, p) for p in config.atomic_paths
        ):
            return
        assert unit.tree is not None
        for node, qualname in walk_with_qualname(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            message = self._violation(node, unit)
            if message is None:
                continue
            if site_allowed(
                unit.display_path, qualname, config.atomic_writers
            ):
                continue
            yield self.finding(unit, node, message)

    @staticmethod
    def _violation(node: ast.Call, unit: ModuleUnit) -> "str | None":
        # builtin open(path, "w") / path.open("w")
        is_open = isinstance(node.func, ast.Name) and node.func.id == "open"
        is_method_open = (
            isinstance(node.func, ast.Attribute) and node.func.attr == "open"
        )
        if is_open or is_method_open:
            mode = call_mode_literal(node)
            if mode is None:
                return None  # dynamic mode: out of scope
            if any(flag in mode for flag in ("w", "a", "x", "+")):
                return (
                    f"direct open(..., {mode!r}) in an artifact path; "
                    "write through the atomic helper "
                    "(temp file + os.replace, see camodel.io._write_json_atomic)"
                )
            return None
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _DIRECT_WRITERS
        ):
            return (
                f"Path.{node.func.attr}() writes the target in place; "
                "write through the atomic helper (temp file + os.replace)"
            )
        return None
