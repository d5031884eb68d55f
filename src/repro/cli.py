"""Command-line interface.

Subcommands mirror the flows of the paper::

    python -m repro generate  CELL.sp -o model.json     # Fig. 1
    python -m repro batch     CELLS.sp --run-dir RUN    # resumable runs
    python -m repro inspect   RUN summary               # run telemetry
    python -m repro watch     RUN                       # live progress
    python -m repro rename    CELL.sp                   # Section III
    python -m repro predict   CELL.sp -t models.json    # Fig. 2
    python -m repro hybrid    CELLS.sp -t models.json   # Fig. 7
    python -m repro catalog                             # list functions
    python -m repro build soi28 NAND2 -d 2              # emit a cell
    python -m repro table II                            # paper tables

Cells are read from SPICE subcircuit files; ``-t/--training`` takes a CA
model library JSON produced by ``generate`` (or by the experiment cache).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro import obs
from repro.camatrix import rename_transistors, training_matrix
from repro.camodel import CAModel, generate_library, load_models, save_model, save_models
from repro.flow import HybridFlow
from repro.library import build_cell, function_names, get_technology
from repro.spice import parse_library, write_cell


def _load_cells(path: str):
    text = Path(path).read_text()
    return parse_library(text)


def _load_training_samples(paths: List[str]):
    from repro.learning.datasets import CellSample

    samples = []
    for path in paths:
        for model in load_models(path):
            # rebuild the cell from the registered technology if possible
            cell = None
            for tech_name in ("soi28", "c40", "c28"):
                tech = get_technology(tech_name)
                if model.cell_name.startswith(tech.cell_prefix + "_"):
                    cell = _cell_from_name(tech, model.cell_name)
                    break
            if cell is None:
                print(
                    f"warning: cannot rebuild cell {model.cell_name}; skipped",
                    file=sys.stderr,
                )
                continue
            matrix = training_matrix(cell, model)
            samples.append(CellSample(cell=cell, model=model, matrix=matrix))
    return samples


def _cell_from_name(tech, cell_name: str):
    """Rebuild a builder cell from its canonical name."""
    remainder = cell_name[len(tech.cell_prefix) + 1 :]
    flavor_name = "STD"
    if "_" in remainder:
        remainder, flavor_name = remainder.split("_", 1)
    function, _, drive_text = remainder.rpartition("X")
    flavor = next((f for f in tech.flavors if f.name == flavor_name), None)
    if flavor is None or not drive_text.isdigit():
        return None
    try:
        return build_cell(tech, function, int(drive_text), flavor)
    except KeyError:
        return None


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_generate(args) -> int:
    cells = _load_cells(args.netlist)
    by_name = generate_library(
        cells,
        policy=args.policy,
        packed=not args.scalar,
    )
    models = [by_name[cell.name] for cell in cells]
    for cell, model in zip(cells, models):
        print(f"{cell.name}: {model.summary()}")
        if args.stats and model.stats is not None:
            stats = model.stats
            print(
                f"  generation: solves={stats.solves} "
                f"batched={stats.batched_phases} "
                f"cache_hits={stats.cache_hits} "
                f"(hit rate {stats.cache_hit_rate:.1%}), "
                f"golden {stats.golden_seconds:.3f}s + "
                f"defects {stats.defect_seconds:.3f}s "
                f"= {stats.total_seconds:.3f}s"
            )
    if args.stats:
        registry = obs.metrics()
        if "camodel.seconds.per_cell" in registry.histograms:
            print(
                "per-cell seconds: "
                f"p50={registry.percentile('camodel.seconds.per_cell', 0.50):.3f} "
                f"p95={registry.percentile('camodel.seconds.per_cell', 0.95):.3f} "
                f"p99={registry.percentile('camodel.seconds.per_cell', 0.99):.3f}"
            )
    if args.output:
        _write_models(models, args.output)
    return 0


def _write_models(models: List[CAModel], output: str) -> None:
    """One model as a model file, several as a model library."""
    if len(models) == 1:
        save_model(models[0], output)
    else:
        save_models(models, output)
    print(f"wrote {output}")


def _report_run(names: List[str], result, output: Optional[str]) -> int:
    """Per-cell lines and totals of a run-dir session; its exit code."""
    resumed = set(result.resumed)
    for name in names:
        if name in result.models:
            tag = " (resumed)" if name in resumed else ""
            print(f"{name}: {result.models[name].summary()}{tag}")
        else:
            errors = result.quarantined.get(name, [])
            kind = errors[-1].get("kind", "?") if errors else "?"
            print(f"{name}: QUARANTINED ({kind}, {len(errors)} attempts)")
    counts = result.report["counts"]
    print(
        f"done {counts['done']}/{len(names)} "
        f"(resumed {len(result.resumed)}, quarantined {counts['quarantined']})"
    )
    if output:
        print(f"wrote {output}")
    if result.quarantined:
        print(f"failure report: {result.run_dir / 'failures.json'}")
        return 3
    return 0


def cmd_batch(args) -> int:
    """Checkpointed library characterization with resume and quarantine."""
    from repro.resilience import FaultPlan, RunDirError
    from repro.service import serve, submit_library

    cells = _load_cells(args.netlist)
    fault_plan = FaultPlan.load(args.faults) if args.faults else None
    try:
        job = submit_library(
            cells,
            run_dir=args.run_dir,
            policy=args.policy,
            resume=args.resume,
            retries=args.retries,
            cell_timeout=args.cell_timeout,
            fault_plan=fault_plan,
            packed=not args.scalar,
        )
        result = serve(
            args.run_dir,
            workers=args.processes or 1,
            resume=args.resume,
            output=args.output,
        )
    except RunDirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _report_run(job.manifest.names(), result, args.output)


def cmd_serve(args) -> int:
    """Coordinate a leased multi-worker characterization of a run dir."""
    from repro.resilience import FaultPlan, RunDirError
    from repro.service import Job, serve, submit_library

    try:
        if args.netlist:
            cells = _load_cells(args.netlist)
            fault_plan = FaultPlan.load(args.faults) if args.faults else None
            job = submit_library(
                cells,
                run_dir=args.run_dir,
                policy=args.policy,
                resume=args.resume,
                retries=args.retries,
                lease_ttl=args.lease_ttl,
                fault_plan=fault_plan,
                packed=not args.scalar,
            )
        else:
            job = Job.attach(args.run_dir)
        result = serve(
            args.run_dir,
            workers=args.workers,
            resume=args.resume,
            output=args.output,
        )
    except RunDirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _report_run(job.manifest.names(), result, args.output)


def cmd_worker(args) -> int:
    """Run one stateless leased worker against a submitted run directory."""
    from repro.resilience import RunDirError
    from repro.service import worker_loop

    try:
        completed = worker_loop(
            args.run_dir, owner=args.owner, max_cells=args.max_cells
        )
    except RunDirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"worker exit: committed {completed} cell(s)")
    return 0


def cmd_inspect(args) -> int:
    """Render one analysis report over a run directory's telemetry."""
    from repro.obs import inspect as obs_inspect
    from repro.obs.store import RunTelemetry
    from repro.resilience import RunDirError

    try:
        tel = RunTelemetry.load(args.run_dir)
    except RunDirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    obs.metrics().inc(obs_inspect.M_REPORTS)
    if args.report == "summary":
        print(obs_inspect.report_summary(tel))
    elif args.report == "stragglers":
        print(obs_inspect.report_stragglers(tel, top=args.top))
    elif args.report == "cache":
        print(obs_inspect.report_cache(tel))
    elif args.report == "failures":
        print(obs_inspect.report_failures(tel))
    elif args.report == "workers":
        print(obs_inspect.report_workers(tel))
    else:  # trace
        out = args.chrome or str(Path(args.run_dir) / "trace.json")
        tel.write_chrome(out)
        print(f"wrote {out} ({len(tel.merged_spans())} spans)")
    return 0


def cmd_watch(args) -> int:
    """Live progress tail of a run directory's ledger + shard store."""
    import time as _time

    from repro.obs import inspect as obs_inspect
    from repro.resilience import RunDirError

    window = obs_inspect.WatchWindow()
    refreshes = 0
    while True:
        try:
            snapshot = obs_inspect.watch_snapshot(args.run_dir)
        except RunDirError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        done = snapshot["counts"].get("done", 0)
        rate = window.update(snapshot["time"], done)
        obs.metrics().inc(obs_inspect.M_WATCH_REFRESHES)
        print(obs_inspect.render_watch(snapshot, rate), flush=True)
        refreshes += 1
        if args.iterations is not None and refreshes >= args.iterations:
            return 0
        if obs_inspect.watch_complete(snapshot):
            return 0
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return 0


def cmd_rename(args) -> int:
    for cell in _load_cells(args.netlist):
        renamed = rename_transistors(cell)
        print(f"cell {cell.name}  group={cell.group_key}")
        print(f"  signature: {renamed.signature}")
        for branch in renamed.branches:
            print(
                f"  branch {branch.index} level={branch.level} "
                f"exit={branch.exit_net}  {branch.equation.named(renamed.mapping)}"
            )
        for old, new in sorted(renamed.mapping.items(), key=lambda kv: kv[1]):
            print(f"  {old:>8} -> {new:<4} activity={renamed.activity[new]}")
    return 0


def cmd_predict(args) -> int:
    samples = _load_training_samples(args.training)
    if not samples:
        print("no usable training models", file=sys.stderr)
        return 1
    report = HybridFlow(samples).run(_load_cells(args.netlist), policy=args.policy)
    for decision in report.decisions:
        print(
            f"{decision.cell_name}: match={decision.match} route={decision.route} "
            f"({decision.seconds:.2f}s)"
        )
    if args.output:
        _write_models(
            [d.model for d in report.decisions if d.model is not None],
            args.output,
        )
    return 0


def cmd_hybrid(args) -> int:
    samples = _load_training_samples(args.training)
    if not samples:
        print("no usable training models", file=sys.stderr)
        return 1
    flow = HybridFlow(samples)
    report = flow.run(_load_cells(args.netlist), policy=args.policy)
    for decision in report.decisions:
        print(f"  {decision.cell_name}: {decision.match} -> {decision.route}")
    for key, value in report.summary().items():
        print(f"{key}: {value}")
    return 0


def cmd_catalog(_args) -> int:
    from repro.library import CATALOG

    for name in function_names():
        fdef = CATALOG[name]
        print(f"{name:<8} inputs={fdef.n_inputs}  {fdef.formula}")
    return 0


def cmd_build(args) -> int:
    tech = get_technology(args.technology)
    cell = build_cell(tech, args.function, args.drive)
    sys.stdout.write(write_cell(cell, tech.dialect))
    return 0


def cmd_lint(args) -> int:
    from repro.lint import cli as lint_cli

    return lint_cli.run(args)


def cmd_table(args) -> int:
    from repro import experiments

    regenerators = {
        "I": experiments.table1_training_rows,
        "II": experiments.table2_activity,
        "III": experiments.table3_defect_columns,
        "fig4": experiments.fig4_partial_matrix,
        "fig5": experiments.fig5_branch_equations,
        "fig6": experiments.fig6_equivalence_demo,
    }
    try:
        print(regenerators[args.which]())
    except KeyError:
        print(f"unknown table {args.which!r}; choose from {sorted(regenerators)}")
        return 1
    return 0


def _obs_parent() -> argparse.ArgumentParser:
    """Shared observability flags, attached to every subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument(
        "--trace",
        metavar="FILE.json",
        help=(
            "record spans for the whole run and write them on exit "
            "(Chrome-trace JSON; use a .jsonl name for raw span lines)"
        ),
    )
    group.add_argument(
        "--log-json",
        metavar="FILE.jsonl",
        help="append structured obs events to a JSONL file",
    )
    group.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more event output on stderr (-v info, -vv debug)",
    )
    group.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="only error events on stderr",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="learning-based CA model generation"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    obs_parent = _obs_parent()

    p = sub.add_parser(
        "generate",
        help="conventional CA generation (Fig. 1)",
        parents=[obs_parent],
    )
    p.add_argument("netlist")
    p.add_argument("-o", "--output")
    p.add_argument("--policy", default="auto")
    p.add_argument(
        "--stats",
        action="store_true",
        help="print per-cell generation cost accounting (solves, caches, timings)",
    )
    p.add_argument(
        "--scalar",
        action="store_true",
        help="force the scalar reference solver (disable the vectorized "
        "packed kernel; results are byte-identical either way)",
    )
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "batch",
        help="resumable, fault-tolerant library characterization",
        parents=[obs_parent],
    )
    p.add_argument("netlist")
    p.add_argument(
        "--run-dir",
        required=True,
        help="directory for the run ledger and per-cell model checkpoints",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue a previous run of this directory (reuses completed "
        "cells; exits 3 if quarantined cells remain)",
    )
    p.add_argument("-o", "--output", help="write the assembled library JSON")
    p.add_argument("--policy", default="auto")
    p.add_argument(
        "--processes",
        type=int,
        default=None,
        help="local worker processes characterizing cells concurrently "
        "(default 1)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=1,
        help="failed attempts allowed per cell before quarantine (default 1)",
    )
    p.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        help="wall-clock seconds per cell attempt before the worker is killed",
    )
    p.add_argument(
        "--faults",
        metavar="PLAN.json",
        help="inject a deterministic FaultPlan (chaos testing; see "
        "docs/resilience.md)",
    )
    p.add_argument(
        "--scalar",
        action="store_true",
        help="force the scalar reference solver",
    )
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser(
        "serve",
        help="coordinator + leased workers over a shared run directory",
        parents=[obs_parent],
    )
    p.add_argument(
        "run_dir",
        help="run directory shared by the coordinator and every worker",
    )
    p.add_argument(
        "--netlist",
        default=None,
        help="SPICE library to submit into RUN_DIR first (omit to serve "
        "an already-submitted job.json)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="local worker processes to spawn (0: coordinate external "
        "`repro worker RUN_DIR` processes only; default 2)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue a previous run (requeues quarantined cells with a "
        "fresh retry budget; exits 3 if quarantined cells remain)",
    )
    p.add_argument("-o", "--output", help="write the assembled library JSON")
    p.add_argument("--policy", default="auto")
    p.add_argument(
        "--retries",
        type=int,
        default=1,
        help="failed attempts allowed per cell before quarantine (default 1)",
    )
    p.add_argument(
        "--lease-ttl",
        type=float,
        default=15.0,
        help="seconds a cell lease survives without a heartbeat before "
        "the coordinator re-leases it (default 15)",
    )
    p.add_argument(
        "--faults",
        metavar="PLAN.json",
        help="inject a deterministic FaultPlan (chaos testing; `hang` "
        "mode needs a cell timeout, see `batch --cell-timeout` and "
        "docs/resilience.md)",
    )
    p.add_argument(
        "--scalar", action="store_true", help="force the scalar solver"
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "worker",
        help="one stateless leased worker (join a served run directory)",
        parents=[obs_parent],
    )
    p.add_argument(
        "run_dir",
        help="run directory holding a submitted job.json (possibly on a "
        "shared filesystem; see docs/resilience.md for the multi-machine "
        "recipe)",
    )
    p.add_argument(
        "--owner",
        default=None,
        help="lease owner id (default: pid-derived, unique per process)",
    )
    p.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="exit after committing N cells (default: run until the job "
        "completes)",
    )
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "inspect",
        help="analyze a run directory's telemetry store",
        parents=[obs_parent],
    )
    p.add_argument("run_dir", help="run directory of a batch run")
    p.add_argument(
        "report",
        nargs="?",
        default="summary",
        choices=["summary", "stragglers", "cache", "failures", "workers", "trace"],
        help="subreport to render (default: summary)",
    )
    p.add_argument(
        "--top",
        type=int,
        default=5,
        help="rows in the stragglers report (default 5)",
    )
    p.add_argument(
        "--chrome",
        metavar="OUT.json",
        default=None,
        help="output path for the trace report's merged Chrome trace "
        "(default RUN_DIR/trace.json)",
    )
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser(
        "watch",
        help="live progress of a (possibly running) run directory",
        parents=[obs_parent],
    )
    p.add_argument("run_dir", help="run directory of a batch run")
    p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes (default 2)",
    )
    p.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="stop after N refreshes (default: until the run completes)",
    )
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser(
        "rename", help="canonical transistor renaming", parents=[obs_parent]
    )
    p.add_argument("netlist")
    p.set_defaults(func=cmd_rename)

    p = sub.add_parser(
        "predict", help="ML CA prediction for one netlist", parents=[obs_parent]
    )
    p.add_argument("netlist")
    p.add_argument("-t", "--training", action="append", required=True)
    p.add_argument("-o", "--output")
    p.add_argument("--policy", default="auto")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser(
        "hybrid", help="hybrid generation flow (Fig. 7)", parents=[obs_parent]
    )
    p.add_argument("netlist")
    p.add_argument("-t", "--training", action="append", required=True)
    p.add_argument("--policy", default="auto")
    p.set_defaults(func=cmd_hybrid)

    p = sub.add_parser(
        "catalog", help="list cell functions", parents=[obs_parent]
    )
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser(
        "build", help="emit one synthetic cell as SPICE", parents=[obs_parent]
    )
    p.add_argument("technology")
    p.add_argument("function")
    p.add_argument("-d", "--drive", type=int, default=1)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser(
        "table", help="print a paper table / figure", parents=[obs_parent]
    )
    p.add_argument("which")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser(
        "lint",
        help="project-invariant static analysis (see docs/static-analysis.md)",
        parents=[obs_parent],
    )
    from repro.lint import cli as lint_cli

    lint_cli.add_arguments(p)
    p.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    verbosity = -1 if args.quiet else args.verbose
    with obs.session(
        trace_path=args.trace,
        log_json=args.log_json,
        verbosity=verbosity,
        root=f"cli.{args.command}",
    ):
        status = args.func(args)
    if args.trace:
        print(f"wrote {args.trace}")
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
