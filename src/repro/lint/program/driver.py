"""Driver for ``python -m repro lint --program``.

Orchestrates: file discovery, per-module fact extraction (optionally
in a process pool, ``--jobs N``), project-graph construction, the
dataflow fixpoint, the RPL101..RPL106 rules, and the two-level
analysis cache.

Cache design (``.reprolint-cache/`` by default, content-addressed):

* ``facts-<key>.json`` — one entry per module, keyed on the module's
  content hash (+ analyzer version + config + per-file rule selection).
  Holds the extracted facts *and* the module's per-file findings, so a
  warm run parses nothing.
* ``program-<key>.json`` — one entry per module, keyed on the module's
  *import-closure* hash.  Editing any module changes the closure hash
  of every transitive importer, so stale interprocedural findings drop
  out along reverse-dependency edges with no invalidation walk.
* ``global-<key>.json`` — the RPL106 catalog-liveness findings, keyed
  on the hash of every module (liveness is a whole-program property).

When every program entry hits, the dataflow fixpoint is skipped
entirely.  A corrupt or truncated entry is treated as a miss and
rewritten — the cache can always be deleted.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.atomic import write_text_atomic
from repro.lint.config import LintConfig, match_path
from repro.lint.engine import all_rules, check_unit, iter_python_files
from repro.lint.engine import ModuleUnit
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
from repro.lint.program.rules import program_rules

DEFAULT_CACHE_DIR = ".reprolint-cache"

# lint.program observability (registered in repro.lint.catalog; the
# RPL106 rule itself keeps these alive)
M_MODULES = "lint.program.modules"
M_CACHE_HITS = "lint.program.cache_hits"
M_CACHE_MISSES = "lint.program.cache_misses"
M_FINDINGS = "lint.program.findings"


@dataclass
class ProgramStats:
    """What one ``--program`` run did (rendered by ``--timings``)."""

    modules: int = 0
    parsed: int = 0
    facts_hits: int = 0
    program_hits: int = 0
    seconds: float = 0.0
    cache_dir: Optional[str] = None
    jobs: int = 1
    extra: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        return (
            f"reprolint-program: modules={self.modules} "
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


def _cache_read(path: Path) -> Optional[Dict[str, Any]]:
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict):
        return None
    return data


def _cache_write(path: Path, payload: Dict[str, Any]) -> None:
    try:
        write_text_atomic(path, json.dumps(payload))
    except OSError:
        pass  # a cache that cannot be written is just a slow cache


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


def _extract_one(
    item: Tuple[str, str, str, LintConfig]
) -> Tuple[str, Dict[str, Any], List[Dict[str, Any]]]:
    """Worker: parse one file -> (display, facts, per-file finding dicts).

    Module-level so ``--jobs`` can ship it to a process pool.  Per-file
    findings are computed with *all* registered rules; selection is a
    cheap post-filter, which keeps cache entries selection-independent.
    """
    fs_path, display, module_name, config = item
    text = Path(fs_path).read_text()
    facts = facts_mod.extract_module_facts(text, display, module_name)
    unit = ModuleUnit(Path(fs_path), display, text)
    findings = check_unit(unit, all_rules(), config)
    return display, facts, [finding_to_cache_dict(f) for f in findings]


def _is_suppressed(facts: Dict[str, Any], rule_id: str, line: int) -> bool:
    file_ids = set(facts.get("file_suppressed", ()))
    if "all" in file_ids or rule_id in file_ids:
        return True
    ids = facts.get("suppressed", {}).get(str(line)) or ()
    return "all" in ids or rule_id in ids


def run_program_lint(
    paths: Sequence[Path],
    rules: Optional[Sequence[Any]] = None,
    config: Optional[LintConfig] = None,
    *,
    program_rule_ids: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
    use_cache: bool = True,
) -> Tuple[List[Finding], ProgramStats]:
    """Run the per-file rules *and* the whole-program pack over *paths*.

    Returns ``(findings, stats)`` with findings ordered by
    ``(path, line, col, rule)`` and occurrence-numbered.  *rules*
    filters the per-file pack; *program_rule_ids* filters RPL101+.
    """
    t0 = time.perf_counter()
    config = config if config is not None else LintConfig()
    perfile_rules = list(rules) if rules is not None else all_rules()
    perfile_ids = {r.id for r in perfile_rules}
    prog_rules = [
        r
        for r in program_rules()
        if program_rule_ids is None or r.id in set(program_rule_ids)
    ]
    stats = ProgramStats(jobs=jobs or 1)

    # -- discovery ----------------------------------------------------
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
    stats.modules = len(files)

    cache_root = Path(cache_dir) if (use_cache and cache_dir) else None
    stats.cache_dir = str(cache_root) if cache_root else None
    cfg_key = _config_key(config, sorted({r.id for r in program_rules()}))

    # -- per-module facts + per-file findings -------------------------
    modules: Dict[str, Dict[str, Any]] = {}
    perfile_findings: List[Finding] = []
    misses: List[Tuple[str, str, str, LintConfig]] = []
    hashes: Dict[str, str] = {}
    for path, display, module_name in files:
        digest = facts_mod.content_hash(path.read_bytes())
        hashes[display] = digest
        entry = None
        if cache_root is not None:
            entry = _cache_read(cache_root / f"facts-{cfg_key}-{digest}.json")
            if entry is not None and (
                entry.get("version") != facts_mod.ANALYZER_VERSION
                or "facts" not in entry
                or "findings" not in entry
                or entry["facts"].get("module") != module_name
            ):
                entry = None
        if entry is not None:
            stats.facts_hits += 1
            facts = entry["facts"]
            facts["_fs_path"] = str(path)
            modules[display] = facts
            for item in entry["findings"]:
                finding = finding_from_cache_dict(item)
                if finding.rule_id in perfile_ids or finding.rule_id == "RPL000":
                    perfile_findings.append(finding)
        else:
            misses.append((str(path), display, module_name, config))

    stats.parsed = len(misses)
    if misses:
        if jobs and jobs > 1 and len(misses) > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=jobs) as pool:
                extracted = list(
                    pool.map(_extract_one, misses, chunksize=4)
                )
        else:
            # the file SET iterated here is sorted upstream and the hash
            # inside is per-file content, not order-sensitive
            extracted = [_extract_one(item) for item in misses]  # reprolint: disable=RPL101
        fs_by_display = {display: fs for fs, display, _, _ in misses}
        for display, facts, finding_dicts in extracted:
            facts["_fs_path"] = fs_by_display[display]
            modules[display] = facts
            for item in finding_dicts:
                finding = finding_from_cache_dict(item)
                if finding.rule_id in perfile_ids or finding.rule_id == "RPL000":
                    perfile_findings.append(finding)
            if cache_root is not None:
                digest = facts["content_hash"]
                payload = {
                    "version": facts_mod.ANALYZER_VERSION,
                    "facts": {
                        k: v for k, v in facts.items() if k != "_fs_path"
                    },
                    "findings": finding_dicts,
                }
                _cache_write(
                    cache_root / f"facts-{cfg_key}-{digest}.json", payload
                )

    project = Project(modules)

    # -- program findings: per-module closure cache -------------------
    program_findings: List[Finding] = []
    prog_ids = [r.id for r in prog_rules]
    pending: List[str] = []
    closure_keys: Dict[str, str] = {}
    global_key = f"{cfg_key}-{project.global_hash()}"
    for display in sorted(modules):
        # closure_hash iterates tuple(sorted(...)) — order-stable by design
        closure_keys[display] = f"{cfg_key}-{project.closure_hash(display)}"  # reprolint: disable=RPL101
    global_entry = (
        _cache_read(cache_root / f"global-{global_key}.json")
        if cache_root is not None
        else None
    )
    cached_program: Dict[str, List[Finding]] = {}
    for display in sorted(modules):
        entry = None
        if cache_root is not None:
            entry = _cache_read(
                cache_root / f"program-{closure_keys[display]}.json"
            )
            if entry is not None and entry.get("display") != display:
                entry = None
        if entry is not None:
            stats.program_hits += 1
            cached_program[display] = [
                finding_from_cache_dict(item) for item in entry["findings"]
            ]
        else:
            pending.append(display)

    if pending or global_entry is None:
        analysis = analyze_project(project, config)
        fresh: Dict[str, List[Finding]] = {d: [] for d in modules}
        global_findings: List[Finding] = []
        for rule in program_rules():
            for finding in rule.check(analysis):
                facts = modules.get(finding.path)
                if facts is not None and _is_suppressed(
                    facts, finding.rule_id, finding.line
                ):
                    continue
                if rule.id == "RPL106":
                    global_findings.append(finding)
                elif finding.path in fresh:
                    fresh[finding.path].append(finding)
        if cache_root is not None:
            for display in pending:
                _cache_write(
                    cache_root / f"program-{closure_keys[display]}.json",
                    {
                        "display": display,
                        "findings": [
                            finding_to_cache_dict(f)
                            for f in fresh[display]
                        ],
                    },
                )
            _cache_write(
                cache_root / f"global-{global_key}.json",
                {
                    "findings": [
                        finding_to_cache_dict(f) for f in global_findings
                    ]
                },
            )
        for display in sorted(modules):
            source = (
                cached_program[display]
                if display in cached_program
                else fresh[display]
            )
            program_findings.extend(source)
        program_findings.extend(global_findings)
    else:
        for display in sorted(modules):
            program_findings.extend(cached_program[display])
        program_findings.extend(
            finding_from_cache_dict(item)
            for item in global_entry.get("findings", ())
        )

    selected_prog = set(prog_ids)
    program_findings = [
        f for f in program_findings if f.rule_id in selected_prog
    ]

    merged = perfile_findings + program_findings
    merged.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    merged = number_occurrences(merged)
    stats.seconds = time.perf_counter() - t0
    stats.extra["findings"] = len(merged)
    _emit_metrics(stats)
    return merged, stats


def _emit_metrics(stats: ProgramStats) -> None:
    try:
        from repro import obs
    except ImportError:  # pragma: no cover - obs is part of this package
        return
    metrics = obs.metrics()
    metrics.inc(M_MODULES, stats.modules)
    metrics.inc(M_CACHE_HITS, stats.facts_hits + stats.program_hits)
    metrics.inc(
        M_CACHE_MISSES,
        (stats.modules - stats.facts_hits)
        + (stats.modules - stats.program_hits),
    )
    metrics.inc(M_FINDINGS, float(stats.extra.get("findings", 0)))
