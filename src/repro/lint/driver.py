"""The lint driver: ``python -m repro lint`` and :func:`run_lint`.

Orchestrates file discovery, one parse per module (optionally in a
process pool, ``--jobs N``), the module-local rules and fact extraction
over that one parse, project-graph construction, the dataflow fixpoint,
the whole-program rules, and the analysis cache.  The fixpoint runs
only when a selected rule needs it (``Rule.program``).

Cache design (``.reprolint-cache/`` by default, content-addressed):

* ``facts-<key>.json`` — one entry per module, keyed on the module's
  content hash (+ analyzer version + config + rule ids).  Holds the
  extracted facts *and* the module-local findings, so a warm run parses
  nothing.
* ``program-<key>.json`` — one entry per module, keyed on the module's
  *import-closure* hash.  Editing any module changes the closure hash
  of every transitive importer, so stale interprocedural findings drop
  out along reverse-dependency edges with no invalidation walk.
* ``global-<key>.json`` — the RPL106 catalog-liveness findings, keyed
  on the hash of every module (liveness is a whole-program property).

When every program entry hits, the dataflow fixpoint is skipped
entirely.  An entry is decoded when it is looked up: a corrupt,
truncated or wrong-shape entry is a miss and is rewritten — the cache
can always be deleted.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.atomic import write_text_atomic
from repro.lint.config import LintConfig, match_path
from repro.lint.engine import (
    PARSE_ERROR_ID,
    ModuleUnit,
    Rule,
    all_rules,
    check_unit,
    is_suppressed,
    iter_python_files,
)
from repro.lint.findings import (
    Finding,
    finding_from_cache_dict,
    finding_to_cache_dict,
    number_occurrences,
)
from repro.lint.program import facts as facts_mod
from repro.lint.program.dataflow import analyze_project
from repro.lint.program.facts import MODULE_BODY
from repro.lint.program.graph import Project, module_name_for

DEFAULT_CACHE_DIR = ".reprolint-cache"

# lint.program observability (registered in repro.lint.catalog; the
# RPL106 rule itself keeps these alive)
M_MODULES = "lint.program.modules"
M_CACHE_HITS = "lint.program.cache_hits"
M_CACHE_MISSES = "lint.program.cache_misses"
M_FINDINGS = "lint.program.findings"

#: the rule whose findings depend on every module (global cache level)
_GLOBAL_RULE = "RPL106"


@dataclass
class LintStats:
    """What one lint run did (rendered by ``--timings``)."""

    modules: int = 0
    parsed: int = 0
    facts_hits: int = 0
    program_hits: int = 0
    findings: int = 0
    seconds: float = 0.0
    jobs: int = 1

    def render(self) -> str:
        return (
            f"reprolint: modules={self.modules} "
            f"parsed={self.parsed} "
            f"facts_cache={self.facts_hits}/{self.modules} "
            f"program_cache={self.program_hits}/{self.modules} "
            f"jobs={self.jobs} seconds={self.seconds:.3f}"
        )


def _config_key(config: LintConfig, rule_ids: Sequence[str]) -> str:
    blob = repr(config) + "|" + ",".join(sorted(rule_ids)) + (
        f"|v{facts_mod.ANALYZER_VERSION}"
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _cache_read(path: Optional[Path]) -> Optional[Dict[str, Any]]:
    if path is None:
        return None
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def _cache_write(path: Path, payload: Dict[str, Any]) -> None:
    try:
        write_text_atomic(path, json.dumps(payload))
    except OSError:
        pass  # a cache that cannot be written is just a slow cache


def _decode_findings(entry: Optional[Dict[str, Any]]) -> Optional[List[Finding]]:
    """An entry's findings, or None when the entry is absent or malformed."""
    if entry is None:
        return None
    try:
        return [finding_from_cache_dict(item) for item in entry["findings"]]
    except (KeyError, TypeError, ValueError):
        return None


def _package_prefix(root: Path) -> str:
    """Dotted package path *of the scan root itself*.

    Linting ``src/repro/service`` directly must still produce module
    names like ``repro.service.worker`` (what project imports say), so
    walk up from the root while ``__init__.py`` keeps appearing.
    """
    prefix_parts: List[str] = []
    try:
        cur = root.resolve()
        if cur.is_file():
            cur = cur.parent
        while (cur / "__init__.py").is_file():
            prefix_parts.append(cur.name)
            cur = cur.parent
    except OSError:
        return ""
    return ".".join(reversed(prefix_parts))


def _discover(
    paths: Sequence[Path], config: LintConfig
) -> List[Tuple[Path, str, str]]:
    """``(path, display, module name)`` for every file to lint."""
    files: List[Tuple[Path, str, str]] = []
    for root in paths:
        root_str = str(root)
        prefix = _package_prefix(Path(root))
        for path, display in iter_python_files([Path(root)]):
            if any(match_path(display, pat) for pat in config.exclude):
                continue
            name = module_name_for(display, root_str)
            if prefix:
                name = f"{prefix}.{name}" if name != MODULE_BODY else prefix
            files.append((path, display, name))
    return files


def _extract_one(
    item: Tuple[str, str, str, LintConfig]
) -> Tuple[str, Dict[str, Any], List[Dict[str, Any]]]:
    """Worker: parse one file -> (display, facts, module-local finding dicts).

    Module-level so ``--jobs`` can ship it to a process pool.  The one
    parse feeds both the module-local rules and fact extraction.
    Findings are computed with *every* module-local rule; selection is
    a cheap post-filter, which keeps cache entries selection-independent.
    """
    fs_path, display, module_name, config = item
    text = Path(fs_path).read_text()
    unit = ModuleUnit(display, text, module_name)
    local_rules = [r for r in all_rules() if not r.program]
    findings = check_unit(unit, local_rules, config)
    return (
        display,
        facts_mod.extract_module_facts(unit),
        [finding_to_cache_dict(f) for f in findings],
    )


def _cached_facts(
    path: Optional[Path], module_name: str
) -> Optional[Tuple[Dict[str, Any], List[Finding]]]:
    entry = _cache_read(path)
    findings = _decode_findings(entry)
    if entry is None or findings is None:
        return None
    facts = entry.get("facts")
    if (
        entry.get("version") != facts_mod.ANALYZER_VERSION
        or not isinstance(facts, dict)
        or not facts_mod.FACT_KEYS <= facts.keys()
        or facts["module"] != module_name
    ):
        return None
    return facts, findings


def run_lint(
    paths: Sequence[Path],
    rules: Optional[Sequence[Rule]] = None,
    config: Optional[LintConfig] = None,
    *,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> Tuple[List[Finding], LintStats]:
    """Run *rules* (default: every registered rule) over *paths*.

    Returns ``(findings, stats)`` with findings ordered by
    ``(path, line, col, rule)`` and occurrence-numbered.  *cache_dir*
    enables the analysis cache (None: no cache); ``jobs > 1`` parses
    in a process pool with output identical to a serial run.
    """
    t0 = time.perf_counter()
    config = config if config is not None else LintConfig()
    chosen = list(rules) if rules is not None else all_rules()
    selected = {r.id for r in chosen} | {PARSE_ERROR_ID}
    stats = LintStats(jobs=jobs or 1)
    files = _discover(paths, config)
    stats.modules = len(files)
    cache_root = Path(cache_dir) if cache_dir else None
    cfg_key = _config_key(config, [r.id for r in all_rules()])

    def entry_path(kind: str, key: str) -> Optional[Path]:
        if cache_root is None:
            return None
        return cache_root / f"{kind}-{cfg_key}-{key}.json"

    # -- per module: facts + module-local findings ---------------------
    modules: Dict[str, Dict[str, Any]] = {}
    findings: List[Finding] = []
    misses: List[Tuple[str, str, str, LintConfig]] = []
    for path, display, module_name in files:
        digest = facts_mod.content_hash(path.read_bytes())
        hit = _cached_facts(entry_path("facts", digest), module_name)
        if hit is None:
            misses.append((str(path), display, module_name, config))
            continue
        stats.facts_hits += 1
        facts, cached = hit
        facts["_fs_path"] = str(path)
        modules[display] = facts
        findings.extend(cached)

    stats.parsed = len(misses)
    if jobs and jobs > 1 and len(misses) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            extracted = list(pool.map(_extract_one, misses, chunksize=4))
    else:
        extracted = [_extract_one(item) for item in misses]
    fs_by_display = {display: fs for fs, display, _, _ in misses}
    for display, facts, finding_dicts in extracted:
        facts["_fs_path"] = fs_by_display[display]
        modules[display] = facts
        findings.extend(finding_from_cache_dict(item) for item in finding_dicts)
        path = entry_path("facts", facts["content_hash"])
        if path is not None:
            _cache_write(
                path,
                {
                    "version": facts_mod.ANALYZER_VERSION,
                    "facts": {
                        k: v for k, v in facts.items() if k != "_fs_path"
                    },
                    "findings": finding_dicts,
                },
            )

    if any(r.program for r in chosen):
        findings.extend(_program_findings(modules, config, entry_path, stats))

    merged = [f for f in findings if f.rule_id in selected]
    merged.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    merged = number_occurrences(merged)
    stats.findings = len(merged)
    stats.seconds = time.perf_counter() - t0
    _emit_metrics(stats)
    return merged, stats


def _program_findings(
    modules: Dict[str, Dict[str, Any]],
    config: LintConfig,
    entry_path: Callable[[str, str], Optional[Path]],
    stats: LintStats,
) -> List[Finding]:
    """Whole-program findings: closure/global cache, else the fixpoint."""
    project = Project(modules)
    closure_keys = {
        display: project.closure_hash(display) for display in sorted(modules)
    }
    global_path = entry_path("global", project.global_hash())
    global_findings = _decode_findings(_cache_read(global_path))
    per_module: Dict[str, List[Finding]] = {}
    for display in sorted(modules):
        entry = _cache_read(entry_path("program", closure_keys[display]))
        if entry is None or entry.get("display") != display:
            continue
        cached = _decode_findings(entry)
        if cached is not None:
            stats.program_hits += 1
            per_module[display] = cached
    pending = [d for d in sorted(modules) if d not in per_module]

    if pending or global_findings is None:
        analysis = analyze_project(project, config)
        fresh: Dict[str, List[Finding]] = {d: [] for d in modules}
        global_findings = []
        for rule in all_rules():
            if not rule.program:
                continue
            for finding in rule.check_program(analysis):
                facts = modules.get(finding.path)
                if facts is not None and is_suppressed(
                    facts["suppressed"],
                    facts["file_suppressed"],
                    finding.rule_id,
                    finding.line,
                ):
                    continue
                if rule.id == _GLOBAL_RULE:
                    global_findings.append(finding)
                elif finding.path in fresh:
                    fresh[finding.path].append(finding)
        for display in pending:
            per_module[display] = fresh[display]
            path = entry_path("program", closure_keys[display])
            if path is not None:
                _cache_write(
                    path,
                    {
                        "display": display,
                        "findings": [
                            finding_to_cache_dict(f) for f in fresh[display]
                        ],
                    },
                )
        if global_path is not None:
            _cache_write(
                global_path,
                {"findings": [finding_to_cache_dict(f) for f in global_findings]},
            )
    out = [f for display in sorted(modules) for f in per_module[display]]
    return out + global_findings


def _emit_metrics(stats: LintStats) -> None:
    from repro import obs

    metrics = obs.metrics()
    metrics.inc(M_MODULES, stats.modules)
    metrics.inc(M_CACHE_HITS, stats.facts_hits + stats.program_hits)
    metrics.inc(
        M_CACHE_MISSES,
        (stats.modules - stats.facts_hits)
        + (stats.modules - stats.program_hits),
    )
    metrics.inc(M_FINDINGS, float(stats.findings))
