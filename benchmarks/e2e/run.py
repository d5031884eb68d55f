"""End-to-end benchmark of the paper's Fig. 7 flow, with a per-layer trace.

One workload in this process (what ``BENCHMARK.json``'s command runs)::

    python3 benchmarks/e2e/run.py --workload hybrid --seed 3 --seconds 10 --trace 0

sets the workload up five times (the median is ``setup_s``), repeats
its timed iteration until ``--seconds`` have passed, checks every
output, and prints each metric by name with its unit.  The last line is
one JSON object with the end-to-end metrics (``--trace 0``) or, after
three more iterations under the span recorder, the per-layer metrics of
the one with median wall (``--trace 1``).  The exit code is 1 when any
check fails.

Every workload, each in its own fresh subprocess, one after another::

    python3 benchmarks/e2e/run.py --seed 0

prints both metric sets per workload and writes ``BENCH_e2e.json`` and
``BENCH_e2e_trace.jsonl`` to the working directory.  ``--smoke`` keeps
the first 4 cells of each workload and one iteration.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(1, str(ROOT / "src"))

from recorder import Recorder, layer_self_seconds, resolved_seconds  # noqa: E402
from workloads import SCRATCH, WORKLOADS, Outcome, Setup, Workload, remove_scratch  # noqa: E402

SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = HERE / "expected.json"
#: set-ups per run; their median is ``setup_s``
SETUPS = 5
#: traced iterations per ``--trace 1`` run; the median-wall one is reported
TRACED = 3


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC_PATH.read_text())


def peak_rss_mb() -> float:
    """High-water RSS of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _durations(spans: List[Dict[str, Any]], name: str, cells=None) -> float:
    return sum(
        span["end"] - span["start"]
        for span in spans
        if span["name"] == name and (cells is None or span["attrs"].get("cell") in cells)
    )


def layer_metrics(
    untraced: float,
    baselines: List[float],
    traced: Outcome,
    recorder: Recorder,
    build_s: float,
) -> Dict[str, float]:
    """Per-layer metrics of the traced iteration (shares of its wall)."""
    spans = recorder.spans
    wall = traced.seconds
    self_s = layer_self_seconds(spans)

    def share(layer: str) -> float:
        return self_s.get(layer, 0.0) / wall

    def rows(name: str) -> int:
        return sum(s["attrs"]["rows"] for s in spans if s["name"] == name)

    stats = [m.stats for m in traced.simulated if m.stats is not None]
    solves = sum(s.solves for s in stats)
    hits = sum(s.cache_hits for s in stats)
    fits = [s for s in spans if s["name"] == "RandomForestClassifier.fit"]
    stacks = [s for s in spans if s["name"] == "stack_group"]
    refits = len(stacks) - len({s["attrs"]["group"] for s in stacks})

    report = traced.report
    decisions = report.decisions if report is not None else []
    ml_cells = {d.cell_name for d in decisions if d.route == "ml"}
    sim_cells = {d.cell_name for d in decisions if d.route == "simulate"}
    cost_ratio = 0.0
    if ml_cells and sim_cells:
        ml_lane = (
            _durations(spans, "rename_transistors", ml_cells)
            + _durations(spans, "build_matrix", ml_cells)
            + _durations(spans, "RandomForestClassifier.predict")
        ) / len(ml_cells)
        sim_lane = (
            _durations(spans, "rename_transistors", sim_cells)
            + _durations(spans, "generate_ca_model", sim_cells)
        ) / len(sim_cells)
        cost_ratio = ml_lane / sim_lane
    accuracies = [d.accuracy for d in decisions if d.route == "ml" and d.accuracy is not None]

    telemetry = traced.telemetry
    attempt_s = sum(float(a["seconds"]) for a in telemetry.attempts) if telemetry else 0.0
    counters = telemetry.worker_counters() if telemetry else {}
    return {
        "simulation.time_frac": share("simulation"),
        "simulation.solves": solves,
        "simulation.cache_hits": hits,
        "simulation.batched_phases": sum(s.batched_phases for s in stats),
        "simulation.hit_ratio": hits / (solves + hits) if solves + hits else 0.0,
        "defects.time_frac": share("defects"),
        "defects.count": sum(len(m.defects) for m in traced.simulated),
        "camodel.time_frac": share("camodel"),
        "camodel.simulations": sum(m.simulation_count for m in traced.simulated),
        "camatrix.rename_frac": share("camatrix.rename"),
        "camatrix.build_frac": share("camatrix.build"),
        "camatrix.feedback_frac": share("camatrix.feedback"),
        "camatrix.rows": rows("build_matrix") + rows("training_matrix"),
        "learning.fit_frac": share("learning.fit"),
        "learning.fits": len(fits),
        "learning.fit_rows": rows("RandomForestClassifier.fit"),
        "learning.refit_frac": refits / len(fits) if fits else 0.0,
        "learning.stack_frac": share("learning.stack"),
        "learning.predict_frac": share("learning.predict"),
        "learning.predict_rows": rows("RandomForestClassifier.predict"),
        "flow.time_frac": share("flow"),
        "flow.match_frac": share("flow.match"),
        "flow.routes_ml": len(ml_cells),
        "flow.routes_sim": len(sim_cells),
        "flow.ml_sim_cost_ratio": cost_ratio,
        "flow.speedup_vs_conventional": (
            statistics.median(baselines) / untraced if baselines else 0.0
        ),
        "flow.modeled_reduction": report.ledger.total_reduction if report else 0.0,
        "flow.ml_accuracy": statistics.mean(accuracies) if accuracies else 0.0,
        "service.submit_frac": share("service.submit"),
        "service.attempt_frac": attempt_s / wall,
        "service.overhead_frac": (
            (self_s.get("service.serve", 0.0) - attempt_s) / wall if telemetry else 0.0
        ),
        "service.attempts": len(telemetry.attempts) if telemetry else 0,
        "service.failed_attempts": len(telemetry.failed_attempts()) if telemetry else 0,
        "lease.claims": int(counters.get("lease.claims", 0)),
        "lease.releases": int(counters.get("lease.releases", 0)),
        "library.build_s": build_s,
        "trace.wall_s": wall,
        "trace.coverage": resolved_seconds(spans) / wall,
    }


def expected_digest(key: str) -> str:
    expected = json.loads(EXPECTED_PATH.read_text())
    return expected.get(key, "")


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool
) -> Dict[str, Any]:
    """Set up, time, optionally trace and check one workload."""
    # Each set-up and iteration starts from a collected heap, so a cyclic
    # GC pass owed by the previous one never lands inside its timing.
    setup_times: List[float] = []
    build_times: List[float] = []
    setup: Setup
    for _ in range(1 if smoke else SETUPS):
        gc.collect()
        started = time.perf_counter()
        setup = workload.setup(seed, smoke)
        setup_times.append(time.perf_counter() - started)
        build_times.append(setup.build_s)

    # Only the timings and checks of untraced iterations are kept: holding
    # their models would make peak RSS grow with the iteration count.
    seconds_list: List[float] = []
    baselines: List[float] = []
    digests = set()
    problems: List[str] = []
    failed = 0

    def check(outcome: Outcome) -> None:
        nonlocal failed
        digests.add(outcome.digest)
        failed += outcome.failed
        problems.extend(outcome.problems)

    started = time.perf_counter()
    while not seconds_list or (not smoke and time.perf_counter() - started < seconds):
        gc.collect()
        outcome = workload.run(setup, None)
        check(outcome)
        seconds_list.append(outcome.seconds)
        if outcome.baseline_seconds is not None:
            baselines.append(outcome.baseline_seconds)
    del outcome
    rss = peak_rss_mb()

    recorder = None
    iterations = len(seconds_list)
    if trace:
        # The per-layer metrics come from the traced iteration of median
        # wall, so one slow stretch of the host does not skew them.
        runs = []
        for index in range(1 if smoke else TRACED):
            recorder = Recorder(run_id=f"{workload.name}-seed{seed}-{index}")
            gc.collect()
            outcome = workload.run(setup, recorder)
            check(outcome)
            runs.append((outcome.seconds, index, outcome, recorder))
        runs.sort(key=lambda run: run[:2])
        _, _, traced, recorder = runs[len(runs) // 2]
        iterations += len(runs)
        # The host's speed drifts over minutes, so the recorder's overhead
        # is measured against the untraced iterations run just before.
        partners = seconds_list[-len(runs):]

    n_cells = len(setup.cells)
    attempted = n_cells * iterations
    digest = min(digests)
    key = workload.name + ("/smoke" if smoke else "")
    want = expected_digest(key)
    mismatch = []
    if len(digests) != 1:
        mismatch.append(f"iterations disagree: {len(digests)} distinct digests")
    elif want != digest:
        mismatch.append(f"digest {digest} != expected.json[{key!r}] {want or '(missing)'}")
    if mismatch:
        failed = attempted
    problems.extend(mismatch)

    untraced = statistics.median(seconds_list)
    metrics: Dict[str, float] = {
        "setup_s": statistics.median(setup_times),
        "cells_per_min": 60.0 * n_cells / untraced,
        "peak_rss_mb": rss,
    }
    if recorder is not None:
        metrics.update(
            layer_metrics(
                untraced, baselines, traced, recorder, statistics.median(build_times)
            )
        )
        metrics["obs.trace_overhead_frac"] = traced.seconds / statistics.median(partners) - 1.0
    return {
        "workload": workload.name,
        "seed": seed,
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": digest,
        "cells": n_cells,
        "iterations": {"seconds": seconds_list, "baseline_seconds": baselines},
        "metrics": metrics,
        "spans": recorder.spans if recorder is not None else [],
    }


def _units(spec: Dict[str, Any]) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def print_metrics(name: str, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    for metric in units:
        if metric in metrics:
            print(f"{name:22s} {metric:30s} {metrics[metric]:>14.6g} {units[metric]}")


def run_one(args: argparse.Namespace) -> int:
    spec = load_spec()
    record = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.smoke
    )
    print_metrics(args.workload, record["metrics"], _units(spec))
    for problem in record["problems"]:
        print(f"{args.workload}: CHECK FAILED: {problem}")
    if args.record:
        Path(args.record).write_text(json.dumps(record))
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
            for m in section
        },
    }
    print(json.dumps(result))
    return 0 if record["correct"] else 1


def _git_commit() -> Any:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh subprocess, one after another."""
    import numpy

    spec = load_spec()
    units = _units(spec)
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="records-", dir=SCRATCH))
    records: Dict[str, Dict[str, Any]] = {}
    status = 0
    try:
        for name in WORKLOADS:
            path = scratch / f"{name}.json"
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", "1", "--record", str(path),
            ] + (["--smoke"] if args.smoke else [])
            print(f"== {name}", flush=True)
            code = subprocess.run(command).returncode
            if not path.exists():
                print(f"{name}: no record (exit code {code})")
                status = 1
                continue
            records[name] = json.loads(path.read_text())
            status = status or code
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        remove_scratch()

    print("\n== summary (seed %d, %.0f s per workload)" % (args.seed, args.seconds))
    for name, record in records.items():
        print_metrics(name, record["metrics"], units)
        fail_frac = record["failed"] / record["attempted"]
        print(f"{name:22s} {'fail_frac':30s} {fail_frac:>14.6g} ratio")
    out = {
        "benchmark": "e2e",
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "units": units,
        "workloads": {
            name: {k: v for k, v in record.items() if k != "spans"}
            for name, record in records.items()
        },
    }
    Path("BENCH_e2e.json").write_text(json.dumps(out, indent=2) + "\n")
    with open("BENCH_e2e_trace.jsonl", "w") as handle:
        for name, record in records.items():
            for span in record["spans"]:
                handle.write(json.dumps(dict(span, workload=name)) + "\n")
    print("wrote BENCH_e2e.json and BENCH_e2e_trace.jsonl")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run only this workload")
    parser.add_argument("--seed", type=int, default=0, help="input order seed (0 = library order)")
    parser.add_argument(
        "--seconds", type=float, default=load_spec()["run_seconds"],
        help="time spent repeating the timed iteration (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced iteration and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="first 4 cells per workload, one set-up and one iteration")
    parser.add_argument("--record", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
