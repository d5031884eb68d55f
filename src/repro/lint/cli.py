"""The ``python -m repro lint`` subcommand.

Exit codes: 0 clean, 1 findings, 2 usage error (unknown rule/format,
unreadable baseline).  Reports go straight to stdout (this module *is*
a sanctioned console sink — it renders the report the way the text/
JSON/SARIF reporter produced it, with no obs indirection);
``--timings`` writes its one stats line to stderr so the stdout
JSON/SARIF contract is unchanged.

Every run is whole-program: the module-local rules and the
whole-program rules (RPL101..RPL106, see :mod:`repro.lint.program`)
share one registry, one report, one SARIF and one baseline.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.config import LintConfig
from repro.lint.driver import DEFAULT_CACHE_DIR, run_lint
from repro.lint.engine import all_rules, get_rule, select_rules
from repro.lint.reporters import render

USAGE_ERROR = 2


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RPLnnn",
        help="run only these rule ids (repeatable, comma-separated ok)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="RPLnnn",
        help="skip these rule ids (repeatable, comma-separated ok)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE.json",
        help="suppress findings whose fingerprint is in this baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE.json",
        help="record current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (id, name, summary) and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="RPLnnn",
        help="print one rule's full rationale and exit",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help="parse/check files with N worker processes",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=f"analysis cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the analysis cache for this run",
    )
    parser.add_argument(
        "--timings",
        action="store_true",
        help="print a one-line timing/cache-stats summary to stderr",
    )


def _split_ids(values: Optional[List[str]]) -> Optional[List[str]]:
    if not values:
        return None
    out: List[str] = []
    for value in values:
        out.extend(part.strip() for part in value.split(",") if part.strip())
    return out


def run(args: argparse.Namespace) -> int:
    out = sys.stdout
    if args.list_rules:
        for rule in all_rules():
            out.write(f"{rule.id}  {rule.name:<24} {rule.summary}\n")
        return 0
    if args.explain:
        rule = get_rule(args.explain)
        if rule is None:
            sys.stderr.write(f"error: unknown rule {args.explain!r}\n")
            return USAGE_ERROR
        out.write(f"{rule.id} ({rule.name}): {rule.summary}\n\n")
        out.write(rule.rationale + "\n")
        return 0
    try:
        rules = select_rules(_split_ids(args.select), _split_ids(args.ignore))
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        sys.stderr.write(f"error: no such path: {', '.join(missing)}\n")
        return USAGE_ERROR
    findings, stats = run_lint(
        [Path(p) for p in args.paths],
        rules,
        LintConfig(),
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir or DEFAULT_CACHE_DIR,
    )
    if args.timings:
        sys.stderr.write(stats.render() + "\n")
    if args.write_baseline:
        path = write_baseline(args.write_baseline, findings)
        out.write(
            f"wrote baseline with {len(findings)} fingerprint(s) to {path}\n"
        )
        return 0
    baselined = 0
    if args.baseline:
        try:
            fingerprints = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            sys.stderr.write(f"error: cannot read baseline: {exc}\n")
            return USAGE_ERROR
        findings, baselined = apply_baseline(findings, fingerprints)
    report = render(findings, rules, args.fmt)
    if report:
        out.write(report + "\n")
    if args.fmt == "text" and baselined:
        out.write(f"({baselined} baselined finding(s) suppressed)\n")
    return 1 if findings else 0
