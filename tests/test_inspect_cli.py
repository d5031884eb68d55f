"""CLI tests for ``python -m repro inspect`` and ``python -m repro watch``.

Runs a real (small) batch through the CLI entry point, then drives every
inspect subreport and the watch loop in-process, asserting on the
rendered output — the contract a user scripts against.
"""

import json

import pytest

from repro.cli import main
from repro.library import SOI28, build_cell
from repro.obs.store import load_chrome_spans
from repro.spice import write_cell


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One completed batch run shared by every test in this module."""
    root = tmp_path_factory.mktemp("inspect_cli")
    netlist = root / "cells.sp"
    netlist.write_text(
        "".join(
            write_cell(build_cell(SOI28, function, 1))
            for function in ("INV", "NAND2")
        )
    )
    run = root / "run"
    status = main(
        ["batch", str(netlist), "--run-dir", str(run), "--processes", "2"]
    )
    assert status == 0
    return run


def test_inspect_summary_reconciles(run_dir, capsys):
    assert main(["inspect", str(run_dir), "summary"]) == 0
    out = capsys.readouterr().out
    assert "S28_INVX1" in out and "S28_NAND2X1" in out
    assert "TOTAL" in out
    assert "== ledger metrics_total() (exact)" in out
    assert "shards agree" in out


def test_inspect_default_report_is_summary(run_dir, capsys):
    assert main(["inspect", str(run_dir)]) == 0
    assert "reconciliation" in capsys.readouterr().out


def test_inspect_stragglers_lists_dominant_spans(run_dir, capsys):
    assert main(["inspect", str(run_dir), "stragglers", "--top", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("slowest 1 cell(s)")
    assert "camodel.generate" in out


def test_inspect_cache_report(run_dir, capsys):
    assert main(["inspect", str(run_dir), "cache"]) == 0
    out = capsys.readouterr().out
    assert "solver memoization" in out
    assert "packed kernel" in out


def test_inspect_failures_clean_run(run_dir, capsys):
    assert main(["inspect", str(run_dir), "failures"]) == 0
    out = capsys.readouterr().out
    assert "done=2" in out
    assert "no failed attempts recorded" in out


def test_inspect_trace_writes_chrome_json(run_dir, capsys, tmp_path):
    out_path = tmp_path / "merged.json"
    assert main(
        ["inspect", str(run_dir), "trace", "--chrome", str(out_path)]
    ) == 0
    assert f"wrote {out_path}" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    assert "traceEvents" in payload
    assert load_chrome_spans(out_path)  # reproSpans sidecar present


def test_inspect_trace_default_path(run_dir, capsys):
    assert main(["inspect", str(run_dir), "trace"]) == 0
    assert (run_dir / "trace.json").exists()
    capsys.readouterr()


def test_inspect_missing_run_dir_fails_cleanly(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "nope"), "summary"]) == 1
    assert "has no ledger" in capsys.readouterr().err


def test_watch_renders_progress_and_stops_when_complete(run_dir, capsys):
    assert main(["watch", str(run_dir), "--interval", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "2/2 done" in out
    assert "complete" in out


def test_watch_iterations_bound(run_dir, capsys):
    assert main(
        ["watch", str(run_dir), "--interval", "0.01", "--iterations", "1"]
    ) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1


def test_watch_missing_run_dir_fails_cleanly(tmp_path, capsys):
    assert main(["watch", str(tmp_path / "nope")]) == 1
    assert "has no ledger" in capsys.readouterr().err
