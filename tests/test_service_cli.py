"""End-to-end service integration through the real CLI.

One ``python -m repro serve RUN_DIR --netlist ... --workers 0``
coordinator subprocess owns the ledger while four external
``python -m repro worker RUN_DIR`` subprocesses — the multi-machine
deployment shape, minus the shared filesystem being remote — lease and
characterize the cells.  The assembled library must be byte-identical
to the in-process reference, every cell must have been committed by
exactly one worker, and the merged per-worker telemetry shards must
reconcile cleanly.
"""

import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.library import SOI28, build_cell
from repro.obs.store import RunTelemetry
from repro.resilience import RunDirError
from repro.service import Job, serve, submit_library
from repro.spice import parse_library, write_library

ROOT = Path(__file__).resolve().parents[1]

FUNCTIONS = ("NAND2", "NOR2", "AND2", "OR2", "AOI21", "OAI21")

N_WORKERS = 4


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


@pytest.fixture(scope="module")
def netlist_file(tmp_path_factory):
    built = [build_cell(SOI28, function, 1) for function in FUNCTIONS]
    path = tmp_path_factory.mktemp("netlist") / "catalog.sp"
    path.write_text(write_library(built, SOI28.dialect))
    return path


@pytest.fixture(scope="module")
def baseline_bytes(tmp_path_factory, netlist_file, reference_library):
    """In-process reference bytes; a clean in-process serve must match."""
    cells = parse_library(netlist_file.read_text())
    reference = reference_library(cells)
    run_dir = tmp_path_factory.mktemp("clean")
    output = run_dir / "library.json"
    submit_library(cells, run_dir=run_dir)
    result = serve(run_dir, workers=2, output=output)
    assert result.complete
    assert output.read_bytes() == reference
    return reference


@pytest.fixture(scope="module")
def distributed_run(tmp_path_factory, netlist_file):
    """Coordinator + four external worker subprocesses, run to completion."""
    base = tmp_path_factory.mktemp("service")
    run_dir = base / "run"
    output = base / "library.json"
    coordinator = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            str(run_dir),
            "--netlist",
            str(netlist_file),
            "--workers",
            "0",
            "--lease-ttl",
            "5",
            "-o",
            str(output),
        ],
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    workers = []
    # Each worker's stderr goes to a file (a pipe nobody drains could
    # block a chatty worker), read back when a worker exits non-zero.
    stderr_paths = [base / f"worker{i}.err" for i in range(N_WORKERS)]
    stderr_files = []
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if (run_dir / "job.json").exists():
                break
            if coordinator.poll() is not None:
                out, _ = coordinator.communicate()
                pytest.fail(f"coordinator exited before submitting: {out}")
            time.sleep(0.01)
        else:
            pytest.fail("job.json never appeared within 120s")
        stderr_files = [path.open("w") for path in stderr_paths]
        workers = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "worker",
                    str(run_dir),
                    "--owner",
                    f"ext{i}",
                ],
                env=_env(),
                stdout=subprocess.DEVNULL,
                stderr=stderr_file,
            )
            for i, stderr_file in enumerate(stderr_files)
        ]
        out, _ = coordinator.communicate(timeout=560)
    finally:
        for worker in workers:
            if worker.poll() is None:
                try:
                    worker.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    worker.kill()
                    worker.wait()
        for stderr_file in stderr_files:
            stderr_file.close()
        if coordinator.poll() is None:
            coordinator.kill()
            coordinator.wait()
    assert coordinator.returncode == 0, out
    for i, (worker, stderr_path) in enumerate(zip(workers, stderr_paths)):
        assert worker.returncode == 0, (
            f"worker ext{i} exited {worker.returncode}; stderr:\n"
            + stderr_path.read_text()
        )
    return {"run_dir": run_dir, "output": output, "stdout": out}


def test_external_workers_match_sequential_bytes(
    distributed_run, baseline_bytes
):
    output = distributed_run["output"]
    assert output.read_bytes() == baseline_bytes
    # the coordinator printed one summary line per cell plus the totals
    assert f"done {len(FUNCTIONS)}/{len(FUNCTIONS)}" in distributed_run["stdout"]


def test_every_cell_committed_by_exactly_one_worker(distributed_run):
    tel = RunTelemetry.load(distributed_run["run_dir"])
    owners = {shard["owner"] for shard in tel.workers}
    # all four external workers checked in and wrote their shard
    assert owners == {f"ext{i}" for i in range(N_WORKERS)}
    committed = Counter()
    for shard in tel.workers:
        committed.update(shard["cells"])
    names = {
        model["cell"]
        for model in json.loads(
            distributed_run["output"].read_text()
        )["models"]
    }
    assert set(committed) == names
    assert all(count == 1 for count in committed.values())
    # worker shards carry the fleet's lease traffic: every commit claims
    assert tel.worker_counters().get("lease.claims", 0) >= len(names)
    assert tel.worker_counters().get("service.cells", 0) == len(names)


def test_merged_worker_shards_reconcile(distributed_run):
    tel = RunTelemetry.load(distributed_run["run_dir"])
    assert tel.reconcile() == []
    # each done cell has exactly one winning attempt shard, written by
    # the worker that committed it (pid != 0: not coordinator-recovered)
    winning = tel.winning_attempts()
    assert set(winning) == set(tel.counters_by_cell())
    assert all(int(shard["pid"]) != 0 for shard in winning.values())


def test_inspect_workers_report(distributed_run, capsys):
    rc = main(["inspect", str(distributed_run["run_dir"]), "workers"])
    assert rc == 0
    out = capsys.readouterr().out
    for i in range(N_WORKERS):
        assert f"ext{i}" in out
    assert "lease" in out.lower()


def test_pre_merge_manifest_is_refused_at_attach(tmp_path, capsys):
    """A ``job.json`` from before the ``batched``/``packed`` merge (layout
    1, with a ``batched`` kwarg) is refused when a worker attaches,
    instead of failing every attempt with a ``TypeError``."""
    run_dir = tmp_path / "run"
    job = submit_library([build_cell(SOI28, "NAND2", 1)], run_dir=run_dir)
    data = json.loads(job.manifest_path.read_text())
    data["format"] = 1
    data["kwargs"]["batched"] = True
    job.manifest_path.write_text(json.dumps(data))
    assert main(["worker", str(run_dir), "--max-cells", "1"]) == 1
    assert "unsupported job manifest format 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fmt, removed",
    [
        # layout 2: the defect-level worker count in kwargs and fingerprint
        (2, {"kwargs": "parallelism", "options": "parallelism"}),
        # layout 3: the on-disk phase-cache directory in kwargs
        (3, {"kwargs": "phase_cache"}),
    ],
    ids=["format-2", "format-3"],
)
def test_old_manifest_format_is_refused_at_attach(tmp_path, fmt, removed):
    """A ``job.json`` of an older layout still carries a removed option;
    attaching refuses it instead of passing that option to a worker."""
    run_dir = tmp_path / "run"
    job = submit_library([build_cell(SOI28, "NAND2", 1)], run_dir=run_dir)
    data = json.loads(job.manifest_path.read_text())
    data["format"] = fmt
    for section, key in removed.items():
        data[section][key] = None
    job.manifest_path.write_text(json.dumps(data))
    with pytest.raises(
        RunDirError, match=f"unsupported job manifest format {fmt}"
    ):
        Job.attach(run_dir)


@pytest.mark.parametrize("command", ["generate", "batch", "serve"])
def test_defect_worker_flag_is_gone(tmp_path, capsys, command):
    """``-j`` and ``--phase-cache`` are no longer options: argparse
    exits 2."""
    head = {
        "generate": ["generate", "cells.sp"],
        "batch": ["batch", "cells.sp", "--run-dir", str(tmp_path)],
        "serve": ["serve", str(tmp_path)],
    }[command]
    for flag in (["-j", "2"], ["--phase-cache", str(tmp_path / "phases")]):
        with pytest.raises(SystemExit) as exit_info:
            main(head + flag)
        assert exit_info.value.code == 2
        assert (
            f"unrecognized arguments: {' '.join(flag)}"
            in capsys.readouterr().err
        )
