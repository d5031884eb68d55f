"""Integration tests for the durable run-telemetry store.

Exercises :mod:`repro.obs.store` against real
:func:`~repro.service.submit_library` + :func:`~repro.service.serve`
runs: shard layout and
naming, the cross-process merged Chrome trace (export → load → re-export
must be byte-identical), failed workers' telemetry, and the
no-duplicate-shards / exact-reconciliation guarantees across a
killed-and-resumed run.
"""

import json
from pathlib import Path

import pytest

from repro import obs
from repro.library import SOI28, build_cell
from repro.obs.store import (
    ObsStore,
    RunTelemetry,
    attempt_shard_name,
    load_chrome_spans,
    write_attempt_shard,
    write_chrome_spans,
)
from repro.resilience import FaultPlan, FaultRule, faults
from repro.service import serve, submit_library

CELLS = ("NAND2", "NOR2", "AND2")
VICTIM = "S28_NOR2X1"


@pytest.fixture(scope="module")
def library_cells():
    return [build_cell(SOI28, function, 1) for function in CELLS]


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    faults.deactivate()


def _run(run_dir, cells, workers=2, resume=False, **kwargs):
    submit_library(cells, run_dir=run_dir, resume=resume, **kwargs)
    return serve(run_dir, workers=workers, resume=resume)


class TestShardLayout:
    def test_run_writes_one_shard_per_attempt_plus_session(
        self, tmp_path, library_cells
    ):
        result = _run(tmp_path, library_cells)
        assert result.complete
        tel = RunTelemetry.load(tmp_path)
        assert len(tel.attempts) == len(CELLS)
        assert {a["outcome"] for a in tel.attempts} == {"ok"}
        assert len(tel.sessions) == 1
        # shard names embed the ledger's content key and attempt index
        for name, record in tel.ledger.cells.items():
            expected = attempt_shard_name(name, str(record["key"]), 0)
            assert (tmp_path / "obs" / expected).exists()

    def test_shard_counters_match_ledger_exactly(
        self, tmp_path, library_cells
    ):
        _run(tmp_path, library_cells)
        tel = RunTelemetry.load(tmp_path)
        assert tel.reconcile() == []
        summed = {}
        for counters in tel.counters_by_cell().values():
            for key, value in counters.items():
                summed[key] = summed.get(key, 0.0) + value
        assert summed == tel.ledger.metrics_total()

    def test_corrupt_shard_is_skipped_with_event(
        self, tmp_path, library_cells
    ):
        _run(tmp_path, library_cells)
        good = RunTelemetry.load(tmp_path)
        victim = sorted((tmp_path / "obs").glob("*.a000.json"))[0]
        victim.write_text('{"format": 1, "kind": "attem')
        sink = obs.ListSink()
        with obs.scoped(events=obs.EventLog(sink)):
            tel = RunTelemetry.load(tmp_path)
        assert len(tel.attempts) == len(good.attempts) - 1
        corrupt = sink.named("obs.shard_corrupt")
        assert len(corrupt) == 1
        assert corrupt[0].fields["path"] == str(victim)


class TestMergedChromeTrace:
    def test_pooled_packed_roundtrip_byte_identical(
        self, tmp_path, library_cells
    ):
        run_dir = tmp_path / "run"
        result = _run(run_dir, library_cells, packed=True)
        assert result.complete
        tel = RunTelemetry.load(run_dir)
        first = tel.write_chrome(tmp_path / "first.json")
        spans = load_chrome_spans(first)
        assert spans == tel.merged_spans()
        second = write_chrome_spans(
            tmp_path / "second.json", spans, main_pid=tel.main_pid()
        )
        assert first.read_bytes() == second.read_bytes()

    def test_trace_spans_cover_every_process(self, tmp_path, library_cells):
        _run(tmp_path, library_cells)
        tel = RunTelemetry.load(tmp_path)
        spans = tel.merged_spans()
        pids = {span["pid"] for span in spans}
        worker_pids = {int(a["pid"]) for a in tel.attempts}
        assert tel.main_pid() in pids
        assert worker_pids <= pids
        assert len(pids) >= 2  # parent + at least one worker
        # parent session contributes the run-level span
        names = {span["name"] for span in spans}
        assert "service.serve" in names
        assert "camodel.generate" in names
        # the viewer payload labels the parent track "main"
        payload = tel.chrome()
        labels = {
            e["pid"]: e["args"]["name"]
            for e in payload["traceEvents"]
            if e.get("ph") == "M"
        }
        assert labels[tel.main_pid()] == "main"

    def test_merged_spans_form_one_tree_per_worker(
        self, tmp_path, library_cells
    ):
        _run(tmp_path, library_cells)
        tel = RunTelemetry.load(tmp_path)
        spans = tel.merged_spans()
        ids = {span["span_id"] for span in spans}
        # every referenced parent either exists in the merge or is a
        # worker root (absorbed re-parenting happens in the live parent
        # tracer; shards keep the worker-local view)
        for span in spans:
            parent = span["parent_id"]
            assert parent is None or parent in ids


class TestFailureTelemetry:
    def test_failed_worker_spans_are_persisted(self, tmp_path, library_cells):
        plan = FaultPlan([FaultRule(cell=VICTIM, mode="raise")])
        result = _run(
            tmp_path, library_cells, fault_plan=plan, retries=1
        )
        assert VICTIM in result.quarantined
        tel = RunTelemetry.load(tmp_path)
        failed = [a for a in tel.failed_attempts() if a["cell"] == VICTIM]
        assert [int(a["attempt"]) for a in failed] == [0, 1]
        for shard in failed:
            assert shard["outcome"] == "exception"
            assert "InjectedFault" in shard["error"]
            # the dying attempt's partial trace is part of the record
            assert any(
                s["name"] == "camodel.generate" for s in shard["spans"]
            )
        # failed spans are part of the merged whole-run trace
        merged_ids = {s["span_id"] for s in tel.merged_spans()}
        assert {s["span_id"] for s in failed[0]["spans"]} <= merged_ids

    def test_crashed_worker_gets_parent_side_shard(
        self, tmp_path, library_cells
    ):
        plan = FaultPlan([FaultRule(cell=VICTIM, mode="crash", attempts=(0,))])
        result = _run(tmp_path, library_cells, fault_plan=plan, retries=1)
        assert result.complete  # retry succeeded
        tel = RunTelemetry.load(tmp_path)
        by_attempt = {
            int(a["attempt"]): a for a in tel.attempts_for(VICTIM)
        }
        assert set(by_attempt) == {0, 1}
        assert by_attempt[0]["outcome"] == "crash"
        assert by_attempt[1]["outcome"] == "ok"
        # the winning attempt is the retry, not the crash
        assert int(tel.winning_attempts()[VICTIM]["attempt"]) == 1


class TestResume:
    def test_killed_then_resumed_run_has_no_duplicate_shards(
        self, tmp_path, library_cells
    ):
        plan = FaultPlan([FaultRule(cell=VICTIM, mode="midwrite-kill")])
        first = _run(tmp_path, library_cells, fault_plan=plan, retries=1)
        assert VICTIM in first.quarantined
        second = _run(tmp_path, library_cells, resume=True, retries=1)
        assert second.complete
        tel = RunTelemetry.load(tmp_path)
        # lifetime attempt indexing across sessions: no name collides
        keys = [(a["cell"], a["attempt"]) for a in tel.attempts]
        assert len(keys) == len(set(keys))
        # victim: 2 failed attempts from session one, 1 ok from session two
        victim = tel.attempts_for(VICTIM)
        assert [int(a["attempt"]) for a in victim] == [0, 1, 2]
        assert [a["outcome"] for a in victim] == ["crash", "crash", "ok"]
        assert len(tel.sessions) == 2
        assert tel.reconcile() == []
        # resumed cells kept their session-one shard; nothing re-ran them
        for name in tel.ledger.cells:
            if name != VICTIM:
                assert len(tel.attempts_for(name)) == 1

    def test_resumed_counters_still_reconcile_exactly(
        self, tmp_path, library_cells
    ):
        plan = FaultPlan([FaultRule(cell=VICTIM, mode="crash")])
        _run(tmp_path, library_cells, fault_plan=plan, retries=0)
        _run(tmp_path, library_cells, resume=True, retries=0)
        tel = RunTelemetry.load(tmp_path)
        summed = {}
        for counters in tel.counters_by_cell().values():
            for key, value in counters.items():
                summed[key] = summed.get(key, 0.0) + value
        assert summed == tel.ledger.metrics_total()
        assert tel.reconcile() == []


class TestStorePrimitives:
    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = ObsStore(tmp_path)
        write_attempt_shard(
            store.attempt_shard_path("CELL", "abcd", 0),
            cell="CELL",
            key="abcd",
            attempt=0,
            outcome="ok",
            pid=123,
            started=0.0,
            seconds=1.0,
            counters={"camodel.sim.solves": 2.0},
            spans=[],
            events=[],
        )
        assert store.has_attempt("CELL", "abcd", 0)
        assert list(store.obs_dir.glob(".*tmp*")) == []
        data = json.loads(store.attempt_shard_path("CELL", "abcd", 0).read_text())
        assert data["kind"] == "attempt" and data["outcome"] == "ok"

    def test_session_paths_number_onward(self, tmp_path):
        store = ObsStore(tmp_path)
        assert store.next_session_path().name == "session-000.json"
        store.write_session(
            pid=1, started=0.0, seconds=0.5, root_span_id=None,
            counters={}, spans=[], events=[],
        )
        assert store.next_session_path().name == "session-001.json"

    def test_shard_writes_count_into_metrics(self, tmp_path):
        store = ObsStore(tmp_path)
        with obs.scoped(metrics=obs.Metrics()) as state:
            write_attempt_shard(
                store.attempt_shard_path("C", "k", 0),
                cell="C", key="k", attempt=0, outcome="ok", pid=1,
                started=0.0, seconds=0.0, counters={}, spans=[], events=[],
            )
            assert state.metrics.get("obs.shards_written") == 1
