"""Regression gate for ``BENCH_e2e.json`` (stdlib only).

Compares a fresh ``run.py`` result against the committed baseline
``benchmarks/e2e/baseline.json``:

* every end-to-end metric of every baseline workload, in the direction
  and within the bound ``BENCHMARK.json`` fixes for it;
* the deterministic layer counts, exactly (they depend on the code, not
  on the machine);
* the fresh run's own correctness checks (``correct``, ``failed`` = 0).

A missing baseline, workload or metric fails the gate; it never skips.

Usage::

    python3 benchmarks/e2e/check_e2e.py BENCH_e2e.json
    python3 benchmarks/e2e/check_e2e.py BENCH_e2e.json --baseline other.json

Exit codes: 0 ok, 1 regression or missing data, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parents[1] / "BENCHMARK.json"
BASELINE_PATH = HERE / "baseline.json"

#: layer counts that must match the baseline exactly
EXACT_COUNTS = (
    "simulation.solves",
    "simulation.cache_hits",
    "simulation.batched_phases",
    "defects.count",
    "camodel.simulations",
    "camatrix.rows",
    "learning.fits",
    "learning.fit_rows",
    "learning.predict_rows",
    "flow.routes_ml",
    "flow.routes_sim",
    "service.attempts",
)


def check(fresh: Dict[str, Any], baseline: Dict[str, Any], spec: Dict[str, Any]) -> List[str]:
    """Every regression of *fresh* against *baseline*, as messages."""
    failures = []
    if fresh.get("smoke") != baseline.get("smoke"):
        failures.append("fresh and baseline runs differ in --smoke")
    for name, base in sorted(baseline["workloads"].items()):
        got = fresh["workloads"].get(name)
        if got is None:
            failures.append(f"{name}: workload missing from the fresh run")
            continue
        if not got["correct"] or got["failed"]:
            failures.append(f"{name}: correctness checks failed ({got['failed']} cells failed)")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            value = got["metrics"].get(key)
            if value is None:
                failures.append(f"{name}: {key} missing from the fresh run")
                continue
            reference = base["metrics"][key]
            if metric["better"] == "lower":
                limit = reference * (1.0 + bound)
                regressed = value > limit
            else:
                limit = reference * (1.0 - bound)
                regressed = value < limit
            verdict = "REGRESSED" if regressed else "ok"
            print(f"{name}: {key} = {value:.6g} (baseline {reference:.6g}, limit {limit:.6g}) {verdict}")
            if regressed:
                failures.append(
                    f"{name}: {key} regressed to {value:.6g} "
                    f"(baseline {reference:.6g}, bound {bound:.0%})"
                )
        for key in EXACT_COUNTS:
            if key in base["metrics"] and got["metrics"].get(key) != base["metrics"][key]:
                failures.append(
                    f"{name}: {key} = {got['metrics'].get(key)} but the baseline "
                    f"counted {base['metrics'][key]} (counts must match exactly)"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", type=Path, help="BENCH_e2e.json written by run.py")
    parser.add_argument(
        "--baseline", type=Path, default=BASELINE_PATH,
        help=f"committed baseline (default {BASELINE_PATH})",
    )
    args = parser.parse_args(argv)
    if not args.fresh.exists():
        print(f"error: {args.fresh} does not exist", file=sys.stderr)
        return 2
    if not args.baseline.exists():
        print(f"no e2e baseline at {args.baseline}; the gate fails", file=sys.stderr)
        return 1
    failures = check(
        json.loads(args.fresh.read_text()),
        json.loads(args.baseline.read_text()),
        json.loads(SPEC_PATH.read_text()),
    )
    if failures:
        print(f"\n{len(failures)} e2e regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\ne2e benchmark ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
