"""Chaos suite for the resilient run layer.

Every :class:`~repro.resilience.faults.FaultPlan` mode is injected into a
real :func:`~repro.service.submit_library` + :func:`~repro.service.serve`
run; the suite asserts the run survives, quarantines exactly the faulted
cells with structured error records, and a subsequent ``resume``
converges to a library byte-identical to the in-process
:func:`~repro.camodel.generate_library` reference.

The quarantine scenario's failure report is copied to
``CHAOS_failure_report.json`` at the repo root (the same machine-readable
artifact idiom as ``BENCH_generation.json``) so CI can upload it, and its
merged run telemetry (attempt shards + span/counter rollup from the
``obs/`` store) to ``CHAOS_run_telemetry.json``.
"""

import json
from pathlib import Path

import pytest

from repro.camodel import LibraryGenerationError, generate_library
from repro.flow import HybridFlow
from repro.library import SOI28, build_cell
from repro.resilience import FaultPlan, FaultRule, InjectedFault, faults
from repro.resilience.ledger import (
    DONE,
    FAILED,
    PENDING,
    QUARANTINED,
    RunLedger,
    quarantined_cells,
)
from repro.service import serve, submit_library
from repro.service import worker as worker_module

ROOT = Path(__file__).resolve().parents[1]

CELLS = ("NAND2", "NOR2", "AND2")
VICTIM = "S28_NOR2X1"


@pytest.fixture(scope="module")
def library_cells():
    return [build_cell(SOI28, function, 1) for function in CELLS]


@pytest.fixture(scope="module")
def baseline(tmp_path_factory, library_cells, reference_library):
    """In-process reference bytes; a clean service run must match them."""
    reference = reference_library(library_cells)
    run_dir = tmp_path_factory.mktemp("baseline")
    result = _run(run_dir, cells=library_cells)
    assert result.complete and len(result.models) == len(CELLS)
    assert (run_dir / "library.json").read_bytes() == reference
    return reference


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    faults.deactivate()


def _run(run_dir, cells, workers=2, resume=False, **kwargs):
    submit_library(cells, run_dir=run_dir, resume=resume, **kwargs)
    return serve(
        run_dir,
        workers=workers,
        resume=resume,
        output=Path(run_dir) / "library.json",
    )


class TestCrash:
    def test_crash_is_retried_and_run_survives(
        self, tmp_path, library_cells, baseline
    ):
        plan = FaultPlan([FaultRule(cell=VICTIM, mode="crash", attempts=(0,))])
        result = _run(
            tmp_path / "run", cells=library_cells, retries=1, fault_plan=plan
        )
        assert result.complete
        assert (tmp_path / "run" / "library.json").read_bytes() == baseline
        record = RunLedger.load(tmp_path / "run").cells[VICTIM]
        assert record["attempts"] == 2
        assert record["errors"][0]["kind"] == "crash"
        assert "injected crash" in record["errors"][0]["error"]

    def test_exhausted_retries_quarantine_only_the_faulted_cell(
        self, tmp_path, library_cells, baseline
    ):
        plan = FaultPlan([FaultRule(cell=VICTIM, mode="crash")])
        result = _run(
            tmp_path / "run", cells=library_cells, retries=1, fault_plan=plan
        )
        assert set(result.quarantined) == {VICTIM}
        assert set(result.models) == {
            c.name for c in library_cells if c.name != VICTIM
        }
        report = json.loads((tmp_path / "run" / "failures.json").read_text())
        assert [q["cell"] for q in report["quarantined"]] == [VICTIM]
        assert report["counts"][QUARANTINED] == 1
        assert all(e["kind"] == "crash" for e in report["quarantined"][0]["errors"])
        # publish the machine-readable report for the CI artifact upload
        (ROOT / "CHAOS_failure_report.json").write_text(
            json.dumps(report, indent=2) + "\n"
        )

        resumed = _run(
            tmp_path / "run", cells=library_cells, resume=True, retries=1
        )
        assert resumed.complete
        assert sorted(resumed.resumed) == sorted(
            c.name for c in library_cells if c.name != VICTIM
        )
        assert (tmp_path / "run" / "library.json").read_bytes() == baseline

        # publish the merged run telemetry of the chaos run for the CI
        # artifact upload (same idiom as CHAOS_failure_report.json above)
        from repro.obs.store import RunTelemetry

        tel = RunTelemetry.load(tmp_path / "run")
        assert tel.reconcile() == []
        (ROOT / "CHAOS_run_telemetry.json").write_text(
            json.dumps(
                {
                    "attempts": tel.attempts,
                    "sessions": len(tel.sessions),
                    "spans": len(tel.merged_spans()),
                    "counters_by_cell": tel.counters_by_cell(),
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )


class TestHangTimeout:
    def test_hang_times_out_quarantines_and_resumes_identically(
        self, tmp_path, library_cells, baseline
    ):
        plan = FaultPlan([FaultRule(cell=VICTIM, mode="hang")])
        result = _run(
            tmp_path / "run",
            cells=library_cells,
            retries=0,
            cell_timeout=1.0,
            fault_plan=plan,
        )
        assert set(result.quarantined) == {VICTIM}
        assert result.quarantined[VICTIM][-1]["kind"] == "timeout"
        assert "cell-timeout" in result.quarantined[VICTIM][-1]["error"]

        resumed = _run(
            tmp_path / "run", cells=library_cells, resume=True, cell_timeout=5.0
        )
        assert resumed.complete
        assert (tmp_path / "run" / "library.json").read_bytes() == baseline

    def test_hang_retry_recovers_within_one_run(
        self, tmp_path, library_cells, baseline
    ):
        plan = FaultPlan([FaultRule(cell=VICTIM, mode="hang", attempts=(0,))])
        result = _run(
            tmp_path / "run",
            cells=library_cells,
            retries=1,
            cell_timeout=1.0,
            fault_plan=plan,
        )
        assert result.complete
        assert (tmp_path / "run" / "library.json").read_bytes() == baseline


class TestMidWriteKill:
    def test_kill_during_artifact_write_leaves_no_torn_checkpoint(
        self, tmp_path, library_cells, baseline
    ):
        plan = FaultPlan(
            [FaultRule(cell=VICTIM, mode="midwrite-kill", attempts=(0,))]
        )
        result = _run(
            tmp_path / "run", cells=library_cells, retries=1, fault_plan=plan
        )
        assert result.complete
        assert (tmp_path / "run" / "library.json").read_bytes() == baseline
        record = RunLedger.load(tmp_path / "run").cells[VICTIM]
        assert record["errors"][0]["kind"] == "crash"
        # the interrupted write's temp file must not survive the run
        models_dir = tmp_path / "run" / "models"
        assert not list(models_dir.glob(".*.tmp*"))

    def test_quarantined_midwrite_then_resume_byte_identical(
        self, tmp_path, library_cells, baseline
    ):
        plan = FaultPlan([FaultRule(cell=VICTIM, mode="midwrite-kill")])
        result = _run(
            tmp_path / "run", cells=library_cells, retries=0, fault_plan=plan
        )
        assert set(result.quarantined) == {VICTIM}
        resumed = _run(tmp_path / "run", cells=library_cells, resume=True)
        assert resumed.complete
        assert (tmp_path / "run" / "library.json").read_bytes() == baseline


class TestCorruptCheckpoint:
    def test_corrupt_artifact_is_detected_and_regenerated(
        self, tmp_path, library_cells, baseline
    ):
        plan = FaultPlan(
            [FaultRule(cell=VICTIM, mode="corrupt-artifact", attempts=(0,))]
        )
        result = _run(
            tmp_path / "run", cells=library_cells, retries=1, fault_plan=plan
        )
        assert result.complete
        assert (tmp_path / "run" / "library.json").read_bytes() == baseline
        record = RunLedger.load(tmp_path / "run").cells[VICTIM]
        assert record["errors"][0]["kind"] == "corrupt-artifact"

    def test_corrupt_checkpoint_on_disk_is_not_trusted_on_resume(
        self, tmp_path, library_cells, baseline
    ):
        """Corrupting a done cell's checkpoint between sessions forces a
        clean regeneration instead of a poisoned library."""
        run_dir = tmp_path / "run"
        _run(run_dir, cells=library_cells)
        ledger = RunLedger.load(run_dir)
        artifact = ledger.artifact_path(VICTIM)
        artifact.write_text('{"format": 1, "cell": "' + VICTIM)
        # mark the cell non-done so recover() revalidates the artifact
        # (simulates a session killed right around the done transition)
        ledger.cells[VICTIM]["state"] = "running"
        ledger.save()
        resumed = _run(run_dir, cells=library_cells, resume=True)
        assert resumed.complete
        assert (run_dir / "library.json").read_bytes() == baseline

    def test_flipped_detection_byte_fails_validation(self, tmp_path, nand2_model):
        """A parseable artifact with one detection byte flipped to '2'
        must fail resume validation, with the rejection surfaced."""
        from repro import obs
        from repro.camodel import model_to_dict

        name = nand2_model.cell_name
        ledger = RunLedger.open(tmp_path / "run", {"policy": "auto"}, [(name, "k")])
        data = model_to_dict(nand2_model)
        row = data["detection"][0]
        col = row.index("0")
        data["detection"][0] = row[:col] + "2" + row[col + 1 :]
        artifact = ledger.artifact_path(name)
        artifact.parent.mkdir(parents=True, exist_ok=True)
        artifact.write_text(json.dumps(data))
        sink = obs.ListSink()
        with obs.scoped(events=obs.EventLog(sink)):
            assert not ledger.validate_artifact(name)
        (event,) = sink.named("resilience.artifact_invalid")
        assert event.fields["cell"] == name
        assert "detection row 0" in event.fields["error"]


class TestRaiseInSolver:
    def test_exception_carries_traceback_and_retry_recovers(
        self, tmp_path, library_cells, baseline
    ):
        plan = FaultPlan([FaultRule(cell=VICTIM, mode="raise", attempts=(0,))])
        result = _run(
            tmp_path / "run", cells=library_cells, retries=1, fault_plan=plan
        )
        assert result.complete
        assert (tmp_path / "run" / "library.json").read_bytes() == baseline
        record = RunLedger.load(tmp_path / "run").cells[VICTIM]
        error = record["errors"][0]
        assert error["kind"] == "exception"
        assert "InjectedFault" in error["error"]
        assert "generate_ca_model" in error["traceback"]

    def test_exhausted_cell_is_never_saved_claimable(
        self, tmp_path, library_cells, monkeypatch
    ):
        """Once the failure that exhausts the retry budget is recorded, no
        ledger save may show the cell claimable: pending or failed with
        no error record and no lease, which a worker's claim scan would
        take for an attempt the budget does not allow.  Every save of the
        coordinator is recorded; the error record and the lease are read
        just before the write, while the disk still holds the previous
        state and no worker can claim in between."""
        run_dir = tmp_path / "run"
        lease_path = run_dir / "leases" / f"{VICTIM}.json"
        saves = []
        original_save = RunLedger.save

        def recording_save(ledger):
            record = ledger.cells.get(VICTIM)
            if record is not None:
                blocked = (
                    ledger.error_path(VICTIM).exists() or lease_path.exists()
                )
                saves.append(
                    (record["state"], len(record.get("errors", [])), blocked)
                )
            original_save(ledger)

        monkeypatch.setattr(RunLedger, "save", recording_save)
        retries = 1
        plan = FaultPlan([FaultRule(cell=VICTIM, mode="raise")])
        result = _run(run_dir, cells=library_cells, retries=retries, fault_plan=plan)
        assert VICTIM in result.quarantined
        exhausted = [s for s in saves if s[1] > retries]
        assert exhausted, "the quarantining failure was never saved"
        claimable = [
            s for s in exhausted
            if s[0] in (PENDING, FAILED) and not s[2]
        ]
        assert claimable == []
        assert exhausted[0][0] == QUARANTINED
        record = RunLedger.load(run_dir).cells[VICTIM]
        assert record["state"] == QUARANTINED
        assert record["attempts"] == retries + 1

    def test_worker_gives_back_a_cell_settled_mid_scan(
        self, tmp_path, library_cells, monkeypatch
    ):
        """The coordinator consumes the failure that exhausts the budget
        between a worker's ledger load and its error-record check.  The
        scan's snapshot still shows the cell pending, the error record is
        gone and no lease is held, so the worker claims it; under the
        lease it re-reads the ledger, finds the cell quarantined and
        gives the lease back without running an attempt."""
        run_dir = tmp_path / "run"
        victim = [cell for cell in library_cells if cell.name == VICTIM]
        submit_library(victim, run_dir=run_dir, retries=0)
        ledger = RunLedger.load(run_dir)
        # Attempt 0 failed cleanly; its error record awaits the coordinator.
        ledger.error_path(VICTIM).write_text(
            json.dumps({"kind": "exception", "error": "InjectedFault: raise"})
        )
        load = RunLedger.load
        consumed = []

        def load_then_consume(cls, path):
            snapshot = load(path)
            if not consumed:  # the worker's first scan
                consumed.append(True)
                serve(run_dir, workers=0)  # consumes, then returns
            return snapshot

        ran = []
        monkeypatch.setattr(RunLedger, "load", classmethod(load_then_consume))
        monkeypatch.setattr(
            worker_module, "run_attempt",
            lambda *args: ran.append(args[4].attempt) or True,
        )
        assert worker_module.worker_loop(run_dir, owner="w-test", poll=0.01) == 0
        assert consumed and ran == []
        record = load(run_dir).cells[VICTIM]
        assert record["state"] == QUARANTINED
        assert record["attempts"] == 1
        assert not (run_dir / "leases" / f"{VICTIM}.json").exists()


class TestOptionsSafety:
    def test_resume_with_different_options_is_refused(
        self, tmp_path, library_cells
    ):
        from repro.resilience import RunDirError

        _run(tmp_path / "run", cells=library_cells)
        with pytest.raises(RunDirError, match="different"):
            submit_library(
                library_cells,
                run_dir=tmp_path / "run",
                resume=True,
                policy="static",
            )

    def test_fresh_dir_reuse_without_resume_is_refused(
        self, tmp_path, library_cells
    ):
        from repro.resilience import RunDirError

        _run(tmp_path / "run", cells=library_cells)
        with pytest.raises(RunDirError, match="resume"):
            submit_library(library_cells, run_dir=tmp_path / "run")


class TestObsIntegration:
    def test_retry_and_quarantine_metrics_and_events(
        self, tmp_path, library_cells
    ):
        from repro import obs

        sink = obs.ListSink()
        with obs.scoped(metrics=obs.Metrics(), events=obs.EventLog(sink)):
            plan = FaultPlan([FaultRule(cell=VICTIM, mode="raise")])
            _run(
                tmp_path / "run",
                cells=library_cells,
                retries=1,
                fault_plan=plan,
            )
            counters = obs.metrics().counters
        assert counters["resilience.retries"] == 1
        assert counters["resilience.quarantined"] == 1
        assert counters["resilience.exceptions"] == 2
        assert counters["resilience.cells_done"] == len(CELLS) - 1
        names = [event.name for event in sink.events]
        assert "resilience.retry" in names
        assert "resilience.quarantine" in names

    def test_worker_metrics_merge_exactly_once(self, tmp_path, library_cells):
        from repro import obs
        from repro.camodel.stats import M_SOLVES

        with obs.scoped(metrics=obs.Metrics()):
            result = _run(tmp_path / "run", cells=library_cells)
            merged = obs.metrics().counters.get(M_SOLVES, 0)
        # the registry's solves equal the per-cell ledger totals (merged
        # at the done transition, once per cell)
        assert merged == result.metrics[M_SOLVES]
        assert merged == sum(
            model.stats.solves for model in result.models.values()
        )

        # a resumed session reuses every cell and merges nothing again
        with obs.scoped(metrics=obs.Metrics()):
            resumed = _run(tmp_path / "run", cells=library_cells, resume=True)
            assert obs.metrics().counters.get(M_SOLVES, 0) == 0
        assert resumed.metrics[M_SOLVES] == result.metrics[M_SOLVES]


class TestHybridQuarantineRouting:
    def test_quarantined_cells_take_the_simulation_lane(
        self, tmp_path, library_cells
    ):
        from repro.camatrix import training_matrix
        from repro.learning.datasets import CellSample

        plan = FaultPlan([FaultRule(cell=VICTIM, mode="raise")])
        result = _run(
            tmp_path / "run", cells=library_cells, retries=0, fault_plan=plan
        )
        quarantine = quarantined_cells(tmp_path / "run")
        assert quarantine == [VICTIM]

        # train on the partial library: the NOR2 flavors would normally
        # route 'ml' via an identical structural match
        samples = [
            CellSample(
                cell=cell,
                model=result.models[cell.name],
                matrix=training_matrix(cell, result.models[cell.name]),
            )
            for cell in library_cells
            if cell.name in result.models
        ]
        victim_cell = next(c for c in library_cells if c.name == VICTIM)
        flow = HybridFlow(samples, params=SOI28.electrical)
        ml_decision = flow.generate(victim_cell)
        assert ml_decision.route == "simulate"  # nothing similar trained

        # seed the index with an identical cell: ML would now match...
        flow2 = HybridFlow(
            samples
            + [
                CellSample(
                    cell=victim_cell,
                    model=ml_decision.model,
                    matrix=training_matrix(victim_cell, ml_decision.model),
                )
            ],
            params=SOI28.electrical,
        )
        assert flow2.generate(victim_cell).route == "ml"
        # ...but the quarantine verdict forces the simulation lane
        report = flow2.run(
            [victim_cell], policy="auto", quarantined=quarantine
        )
        decision = report.decisions[-1]
        assert decision.route == "simulate"
        assert decision.model is not None


class TestGenerateLibraryFailureCollection:
    """The pre-ledger satellite fix: completed siblings survive a failure."""

    def test_inline_path_attaches_completed_models(self, library_cells):
        faults.activate(
            FaultPlan([FaultRule(cell=VICTIM, mode="raise")]),
            cell="",
            attempt=0,
        )
        try:
            with pytest.raises(LibraryGenerationError) as excinfo:
                generate_library(library_cells, params=SOI28.electrical)
        finally:
            faults.deactivate()
        error = excinfo.value
        assert sorted(error.completed) == sorted(
            c.name for c in library_cells if c.name != VICTIM
        )
        assert str(VICTIM) in str(error)

    def test_direct_raise_in_solver(self, nand2):
        from repro.camodel import generate_ca_model

        faults.activate(
            FaultPlan([FaultRule(cell=nand2.name, mode="raise")]),
            cell=nand2.name,
            attempt=0,
        )
        try:
            with pytest.raises(InjectedFault):
                generate_ca_model(nand2, params=SOI28.electrical)
        finally:
            faults.deactivate()


class TestLedgerStates:
    def test_done_states_and_canonical_artifacts(self, tmp_path, library_cells):
        result = _run(tmp_path / "run", cells=library_cells)
        ledger = RunLedger.load(tmp_path / "run")
        assert set(ledger.names_in(DONE)) == set(result.models)
        for name in result.models:
            data = json.loads(ledger.artifact_path(name).read_text())
            assert data["generation_seconds"] == 0.0
            assert data["stats"]["total_seconds"] == 0.0
            # the real wall time lives in the ledger instead
            assert ledger.cells[name]["seconds"] > 0.0
