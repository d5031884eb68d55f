"""Crash-recovery integration: SIGKILL a real ``batch`` CLI subprocess
mid-run, resume, and diff the result against the in-process reference.

This is the one suite that exercises *real* unscripted kills — the
coordinator dies at an arbitrary instant (as soon as at least one
checkpoint artifact exists), its local workers must leave on their own,
and the resumed session must converge to the exact bytes the in-process
path produces.  The service half kills and hangs external workers.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.library import SOI28, build_cell
from repro.obs.store import RunTelemetry
from repro.resilience.faults import FaultPlan, FaultRule
from repro.resilience.ledger import RunLedger
from repro.service import serve, submit_library
from repro.spice import parse_library, write_library

ROOT = Path(__file__).resolve().parents[1]

FUNCTIONS = ("NAND2", "NOR2", "AND2", "OR2", "AOI21")


@pytest.fixture(scope="module")
def netlist_file(tmp_path_factory):
    built = [build_cell(SOI28, function, 1) for function in FUNCTIONS]
    path = tmp_path_factory.mktemp("netlist") / "library.sp"
    path.write_text(write_library(built, SOI28.dialect))
    return path


@pytest.fixture(scope="module")
def cells(netlist_file):
    # Parse from the netlist so the in-process baseline and the CLI
    # subprocess characterize byte-identical cell representations.
    return parse_library(netlist_file.read_text())


@pytest.fixture(scope="module")
def baseline_bytes(tmp_path_factory, cells, reference_library):
    """In-process reference bytes; a clean service run must match them."""
    reference = reference_library(cells)
    run_dir = tmp_path_factory.mktemp("clean")
    output = run_dir / "library.json"
    submit_library(cells, run_dir=run_dir)
    result = serve(run_dir, workers=2, output=output)
    assert result.complete
    assert output.read_bytes() == reference
    return reference


def _spawn_batch(netlist_file, run_dir, output):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "batch",
            str(netlist_file),
            "--run-dir",
            str(run_dir),
            "-o",
            str(output),
            "--processes",
            "1",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


class TestSigkillRecovery:
    def test_killed_batch_resumes_byte_identical(
        self, tmp_path, cells, netlist_file, baseline_bytes
    ):
        run_dir = tmp_path / "run"
        output = tmp_path / "library.json"
        process = _spawn_batch(netlist_file, run_dir, output)
        try:
            # Kill as soon as the first checkpoint lands — an arbitrary
            # mid-run instant from the orchestrator's point of view.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    pytest.fail(
                        "batch subprocess finished before it could be killed;"
                        " enlarge the cell set"
                    )
                if list((run_dir / "models").glob("*.json")):
                    break
                time.sleep(0.01)
            else:
                pytest.fail("no checkpoint artifact appeared within 120s")
            os.kill(process.pid, signal.SIGKILL)
        finally:
            process.wait()
        assert process.returncode == -signal.SIGKILL
        assert not output.exists()  # the killed run never assembled a library
        # The orphaned local worker notices its dead coordinator and
        # leaves, writing its exit shard like any finished worker.
        _wait_for_worker_exit_shards(run_dir)

        # Resume through the CLI and diff against the clean baseline.
        rc = main(
            [
                "batch",
                str(netlist_file),
                "--run-dir",
                str(run_dir),
                "--resume",
                "-o",
                str(output),
            ]
        )
        assert rc == 0
        assert output.read_bytes() == baseline_bytes

        # Per-model JSON diff against the clean run, cell by cell.
        clean = {
            model["cell"]: model
            for model in json.loads(baseline_bytes)["models"]
        }
        resumed = {
            model["cell"]: model
            for model in json.loads(output.read_text())["models"]
        }
        assert resumed == clean

    def test_resumed_session_reuses_prior_checkpoints(
        self, tmp_path, cells, netlist_file, baseline_bytes
    ):
        run_dir = tmp_path / "run"
        output = tmp_path / "library.json"
        process = _spawn_batch(netlist_file, run_dir, output)
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    pytest.fail("batch subprocess finished too quickly")
                done = [
                    record
                    for record in _ledger_cells(run_dir).values()
                    if record.get("state") == "done"
                ]
                if done:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("no cell reached done within 120s")
            os.kill(process.pid, signal.SIGKILL)
        finally:
            process.wait()

        submit_library(cells, run_dir=run_dir, resume=True)
        result = serve(run_dir, workers=2, resume=True, output=output)
        assert result.complete
        assert result.resumed, "resume should reuse completed checkpoints"
        assert output.read_bytes() == baseline_bytes
        ledger = RunLedger.load(run_dir)
        for name in result.resumed:
            # reused cells were not regenerated by the resumed session
            assert ledger.cells[name]["state"] == "done"


def _wait_for_worker_exit_shards(run_dir, timeout=60.0):
    """Block until every worker that wrote an attempt shard has exited.

    Local workers write their attempt shards before their exit shard
    (``obs/worker-w<pid>.json``), so once each attempt shard's pid has
    an exit shard, no worker of the killed session is left running.
    """
    obs_dir = Path(run_dir) / "obs"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        exited = {path.name for path in obs_dir.glob("worker-*.json")}
        pids = {
            int(json.loads(path.read_text())["pid"])
            for path in obs_dir.glob("*.a[0-9][0-9][0-9].json")
        }
        if exited and all(f"worker-w{pid}.json" in exited for pid in pids):
            return
        time.sleep(0.05)
    pytest.fail(f"local workers still running {timeout}s after the kill")


def _ledger_cells(run_dir):
    path = Path(run_dir) / "ledger.json"
    if not path.exists():
        return {}
    try:
        return json.loads(path.read_text()).get("cells", {})
    except (ValueError, json.JSONDecodeError):
        return {}


# ----------------------------------------------------------------------
# Service chaos: kill or hang external workers, diff against the reference
# ----------------------------------------------------------------------


def _spawn_worker(run_dir, owner):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            str(run_dir),
            "--owner",
            owner,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _attempt_outcomes(run_dir, name):
    """(attempt, outcome) pairs of every telemetry shard of *name*."""
    tel = RunTelemetry.load(run_dir)
    return [
        (int(shard["attempt"]), str(shard["outcome"]))
        for shard in tel.attempts_for(name)
    ]


class TestServiceWorkerSigkill:
    def test_sigkilled_worker_cell_releases_once_byte_identical(
        self, tmp_path, cells, baseline_bytes
    ):
        """SIGKILL a live worker subprocess mid-lease.

        The orphaned lease must expire, the coordinator must re-lease
        the cell exactly once, and the final library bytes must match the
        in-process reference.
        """
        run_dir = tmp_path / "run"
        output = tmp_path / "library.json"
        job = submit_library(cells, run_dir, lease_ttl=1.0, retries=1)
        artifacts = {
            name: run_dir / "models" / f"{name}-{key}.json"
            for name, key in job.manifest.keyed()
        }
        worker = _spawn_worker(run_dir, owner="victim")
        victim = None
        try:
            deadline = time.monotonic() + 120
            lease_dir = run_dir / "leases"
            while time.monotonic() < deadline:
                if worker.poll() is not None:
                    pytest.fail("worker finished before it could be killed")
                live = [
                    path.stem
                    for path in sorted(lease_dir.glob("*.json"))
                    if path.stem in artifacts
                    and not artifacts[path.stem].exists()
                ] if lease_dir.is_dir() else []
                if live:
                    victim = live[0]
                    break
                time.sleep(0.002)
            else:
                pytest.fail("worker never claimed a lease within 120s")
            os.kill(worker.pid, signal.SIGKILL)
        finally:
            worker.wait()
        assert worker.returncode == -signal.SIGKILL
        # The kill left an orphan: the claim file still blocks the cell,
        # its holder is dead, and only lease expiry can free it.
        assert (run_dir / "leases" / f"{victim}.json").exists()
        assert not artifacts[victim].exists()

        result = serve(run_dir, workers=2, output=output)
        assert result.complete
        assert not result.quarantined
        assert output.read_bytes() == baseline_bytes

        # Re-leased exactly once: the lifetime record of the victim cell
        # is one expired-lease crash followed by one clean attempt.
        record = RunLedger.load(run_dir).cells[victim]
        errors = record.get("errors", [])
        assert len(errors) == 1
        assert errors[0]["kind"] == "crash"
        assert "lease expired" in errors[0]["error"]
        assert int(record["attempts"]) == 2
        assert _attempt_outcomes(run_dir, victim) == [
            (0, "crash"),
            (1, "ok"),
        ]
        # every other cell was characterized on the first attempt
        for name, cell_record in RunLedger.load(run_dir).cells.items():
            if name != victim:
                assert int(cell_record["attempts"]) == 1
                assert not cell_record.get("errors")

    def test_crash_fault_killed_worker_is_respawned_and_converges(
        self, tmp_path, cells, baseline_bytes
    ):
        """A crash fault exits the whole worker process mid-lease.

        The coordinator must reap the dead worker's lease at once,
        respawn a local worker, retry the cell within budget, and still
        produce the reference bytes — with the dead attempt visible in
        the reconciled telemetry.
        """
        run_dir = tmp_path / "run"
        output = tmp_path / "library.json"
        plan = FaultPlan(
            rules=[FaultRule(cell="S28_NAND2X1", mode="crash", attempts=(0,))]
        )
        submit_library(
            cells, run_dir, lease_ttl=1.0, retries=1, fault_plan=plan
        )
        result = serve(run_dir, workers=2, output=output)
        assert result.complete
        assert not result.quarantined
        assert output.read_bytes() == baseline_bytes

        record = RunLedger.load(run_dir).cells["S28_NAND2X1"]
        errors = record.get("errors", [])
        assert len(errors) == 1
        assert errors[0]["kind"] == "crash"
        assert int(record["attempts"]) == 2
        assert _attempt_outcomes(run_dir, "S28_NAND2X1") == [
            (0, "crash"),
            (1, "ok"),
        ]
        tel = RunTelemetry.load(run_dir)
        assert tel.reconcile() == []
        # the lease expiry is on the record (merged worker/session events)
        expired = [
            event
            for event in tel.merged_events()
            if event.get("event") == "lease.expired"
        ]
        assert len(expired) == 1
        assert expired[0]["cell"] == "S28_NAND2X1"

        # publish the service chaos artifacts for the CI `distributed`
        # job's upload (same idiom as CHAOS_failure_report.json)
        (ROOT / "SERVICE_failure_report.json").write_text(
            (run_dir / "failures.json").read_text()
        )
        (ROOT / "SERVICE_run_telemetry.json").write_text(
            json.dumps(
                {
                    "attempts": tel.attempts,
                    "workers": tel.workers,
                    "worker_counters": tel.worker_counters(),
                    "counters_by_cell": tel.counters_by_cell(),
                    "lease_expiries": expired,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )


class TestExternalWorkerTimeout:
    def test_hung_external_worker_is_timed_out_once(
        self, tmp_path, cells, baseline_bytes
    ):
        """An external worker hangs past ``cell_timeout`` on attempt 0.

        The coordinator cannot stop a process it did not spawn, so it
        reaps the lease, charges the attempt as a ``timeout`` exactly
        once (the hung worker's heartbeat may re-create the lease), and
        its local worker completes the cell as attempt 1.
        """
        run_dir = tmp_path / "run"
        output = tmp_path / "library.json"
        victim = cells[0].name
        plan = FaultPlan(rules=[FaultRule(cell=victim, mode="hang", attempts=(0,))])
        submit_library(
            cells, run_dir, retries=1, cell_timeout=1.0, fault_plan=plan
        )
        hung = _spawn_worker(run_dir, owner="hung")
        try:
            lease = run_dir / "leases" / f"{victim}.json"
            deadline = time.monotonic() + 120
            while not lease.exists():
                if hung.poll() is not None or time.monotonic() > deadline:
                    pytest.fail("external worker never claimed the victim")
                time.sleep(0.01)
            result = serve(run_dir, workers=1, output=output)
            assert hung.poll() is None  # still hung: nobody stopped it
        finally:
            hung.kill()
            hung.wait()
        assert result.complete
        assert output.read_bytes() == baseline_bytes

        record = RunLedger.load(run_dir).cells[victim]
        errors = record.get("errors", [])
        assert len(errors) == 1
        assert errors[0]["kind"] == "timeout"
        assert "cell-timeout" in errors[0]["error"]
        assert int(record["attempts"]) == 2
        assert _attempt_outcomes(run_dir, victim) == [
            (0, "timeout"),
            (1, "ok"),
        ]
        # the retry ran in the coordinator's local worker, not the hung one
        retry = RunTelemetry.load(run_dir).winning_attempts()[victim]
        assert int(retry["pid"]) not in (0, hung.pid)
