"""Obs-discipline rules: RPL001 no-print, RPL002 obs-name-catalog."""

from __future__ import annotations

import ast
import difflib
from typing import Iterator

from repro.lint.catalog import EVENT_NAMES, METRIC_NAMES, NAMESPACES
from repro.lint.config import LintConfig, match_path
from repro.lint.engine import Finding, ModuleUnit, Rule, register
from repro.lint.rules._helpers import emitter_call


@register
class NoPrintRule(Rule):
    """Library code must log through ``repro.obs``, not ``print``."""

    id = "RPL001"
    name = "no-print"
    summary = "bare print() in library code (use repro.obs.events)"
    rationale = (
        "Library modules report through repro.obs (events / metrics / "
        "spans) so output is structured, level-filtered, and capturable. "
        "Only the sanctioned console sinks may print: the CLI's own "
        "stdout output and the experiment runner's artifact printing "
        "(config: print_allowed).  Mirrors ruff T201 (same sinks in "
        ".ruff.toml); the pytest gate is test_src_tree_is_lint_clean."
    )

    def check(self, unit: ModuleUnit, config: LintConfig) -> Iterator[Finding]:
        if any(match_path(unit.display_path, p) for p in config.print_allowed):
            return
        assert unit.tree is not None
        for node in ast.walk(unit.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    unit, node, "bare print() in library code (use repro.obs.events)"
                )


@register
class ObsNameCatalogRule(Rule):
    """Metric/event name literals must be registered in the catalog."""

    id = "RPL002"
    name = "obs-name-catalog"
    summary = "unregistered metric/event name passed to an obs emitter"
    rationale = (
        "Counter and event names are the join keys of the whole "
        "observability story: GenerationStats.from_metrics reads "
        "camodel.* counters by exact name, the resilience ledger merges "
        "resilience.* counters by exact name, and a typo today surfaces "
        "only at runtime via stats.unknown_keys — or not at all, as a "
        "counter nobody ever reads.  Every name passed to "
        "Metrics.inc/observe/set_gauge or EventLog.emit/debug/info/"
        "warning/error must appear in repro.lint.catalog (module-level "
        "string constants are resolved; dynamic names are skipped)."
    )

    def check(self, unit: ModuleUnit, config: LintConfig) -> Iterator[Finding]:
        assert unit.tree is not None
        registered = METRIC_NAMES | EVENT_NAMES | set(config.extra_names)
        for node in ast.walk(unit.tree):
            matched = emitter_call(node, unit)
            if matched is None:
                continue
            kind, name_arg = matched
            name = unit.resolve_str_arg(name_arg)
            if name is None:  # dynamic name: out of scope
                continue
            if name in registered:
                continue
            namespace = name.split(".", 1)[0] if "." in name else name
            hint = ""
            close = difflib.get_close_matches(name, sorted(registered), n=1)
            if close:
                hint = f" (did you mean {close[0]!r}?)"
            if "." in name and namespace not in NAMESPACES:
                message = (
                    f"{kind} name {name!r} uses unknown namespace "
                    f"{namespace!r}; registered namespaces: "
                    f"{', '.join(sorted(NAMESPACES))}{hint}"
                )
            else:
                message = (
                    f"{kind} name {name!r} is not registered in "
                    f"repro.lint.catalog{hint}"
                )
            yield self.finding(unit, name_arg, message, extra={"name": name})
