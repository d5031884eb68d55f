"""Cross-cell throughput engine, plan store, and pool-path fixes.

Covers the three correctness fixes that rode along with the packed
engine (failed pool workers must not drop their spans/metrics; duplicate
cell names are rejected by one shared helper; run-dir-only facade kwargs
are rejected loudly instead of silently ignored) plus the engine-level
behaviours the differential suite does not touch: per-cell failure
containment, progress reporting, metric registration, on-disk phase
cache corruption tolerance, and quarantine-then-resume with a warm
store.
"""

import json

import pytest

from repro import obs
from repro.camodel import (
    LibraryGenerationError,
    ensure_unique_cell_names,
    generate_ca_model,
    generate_library,
    run_throughput,
)
from repro.camodel.stats import M_GOLDEN_SECONDS
from repro.defects.model import Defect
from repro.library import SOI28, build_cell
from repro.resilience import FaultPlan, FaultRule, faults
from repro.resilience.runner import canonical_model_dict, run_library

PARAMS = SOI28.electrical

FUNCTIONS = ("INV", "NAND2", "NOR2")


@pytest.fixture(scope="module")
def library_cells():
    return [build_cell(SOI28, function, 1) for function in FUNCTIONS]


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    faults.deactivate()


class TestEnsureUniqueCellNames:
    def test_unique_names_pass(self):
        ensure_unique_cell_names(["A", "B", "C"])

    def test_duplicates_named_once_and_sorted(self):
        with pytest.raises(ValueError) as err:
            ensure_unique_cell_names(["B", "A", "B", "C", "A", "B"])
        assert "duplicate cell names in library: A, B" in str(err.value)

    def test_large_library_names_duplicates_exactly(self):
        # The old per-path guard was `names.count(n)` inside a
        # comprehension — O(n^2); a 20k-name library must be instant
        # and still name every duplicate exactly once, sorted.
        names = [f"CELL{i}" for i in range(20_000)] + ["CELL9", "CELL7"]
        with pytest.raises(ValueError, match="CELL7, CELL9"):
            ensure_unique_cell_names(names)
        ensure_unique_cell_names(names[:20_000])

    def test_shared_by_throughput_engine(self, library_cells):
        with pytest.raises(ValueError, match="duplicate"):
            run_throughput([library_cells[0], library_cells[0]])

    def test_shared_by_resilient_runner(self, tmp_path, library_cells):
        with pytest.raises(ValueError, match="duplicate"):
            run_library(
                [library_cells[0], library_cells[0]], run_dir=tmp_path / "run"
            )


class TestRunDirOnlyOptions:
    """Run-dir-only kwargs without run_dir used to be silently dropped."""

    def test_each_option_is_rejected_loudly(self, library_cells):
        cells = library_cells[:1]
        for kwargs, option in (
            ({"resume": True}, "resume"),
            ({"retries": 3}, "retries"),
            ({"cell_timeout": 5.0}, "cell_timeout"),
            ({"retry_backoff": 0.0}, "retry_backoff"),
            ({"fault_plan": FaultPlan()}, "fault_plan"),
            ({"output": "library.json"}, "output"),
        ):
            with pytest.raises(ValueError) as err:
                generate_library(cells, **kwargs)
            assert option in str(err.value)
            assert "run_dir" in str(err.value)

    def test_multiple_offenders_listed_sorted(self, library_cells):
        with pytest.raises(ValueError, match="output, resume, retries"):
            generate_library(
                library_cells, resume=True, retries=2, output="x.json"
            )

    def test_defaults_are_not_rejected(self, library_cells):
        models = generate_library(library_cells[:1])
        assert set(models) == {library_cells[0].name}

    def test_run_dir_forwards_every_option(self, tmp_path, library_cells, monkeypatch):
        import repro.resilience.runner as runner_module

        captured = {}

        class _Result:
            models = {"stub": None}

        def fake_run_library(cells, **kwargs):
            captured.update(kwargs, cells=list(cells))
            return _Result()

        monkeypatch.setattr(runner_module, "run_library", fake_run_library)
        plan = FaultPlan([FaultRule(cell="X", mode="raise")])
        out = generate_library(
            library_cells,
            run_dir=tmp_path / "run",
            retries=3,
            retry_backoff=0.0,
            cell_timeout=9.0,
            fault_plan=plan,
            output=tmp_path / "library.json",
            packed=True,
            phase_cache=tmp_path / "phases",
        )
        assert out == _Result.models
        assert captured["retries"] == 3
        assert captured["retry_backoff"] == 0.0
        assert captured["cell_timeout"] == 9.0
        assert captured["fault_plan"] is plan
        assert captured["output"] == tmp_path / "library.json"
        assert captured["packed"] is True
        assert captured["phase_cache"] == tmp_path / "phases"


class TestPoolErrorAbsorption:
    """A failing worker's partial work (spans, counters) must merge into
    the parent exactly like a successful one's."""

    def test_failed_workers_ship_spans_and_metrics(self, library_cells):
        # Every cell's defect loop dies on a defect naming a transistor
        # that does not exist — but only after the golden run solved.
        bad_universe = [Defect("bogus", "open", ("MZZ9", "drain"))]
        with obs.scoped(
            tracer=obs.Tracer(enabled=True),
            metrics=obs.Metrics(),
            events=obs.EventLog(obs.ListSink()),
        ) as state:
            with pytest.raises(LibraryGenerationError) as err:
                generate_library(
                    library_cells, processes=2, universe=bad_universe
                )
            spans = state.tracer.export()
            golden_seconds = state.metrics.get(M_GOLDEN_SECONDS)
        assert len(err.value.failures) == len(library_cells)
        assert err.value.completed == {}
        # The golden passes ran inside the workers before the failures
        # (M_GOLDEN_SECONDS is recorded before the defect loop): their
        # counters and spans must survive the error path.
        assert golden_seconds > 0
        golden_spans = [s for s in spans if s["name"] == "generate.golden"]
        assert len(golden_spans) >= len(library_cells)
        assert obs.orphan_parents(spans) == []
        library_span = next(
            s for s in spans if s["name"] == "camodel.generate_library"
        )
        worker_pids = {s["pid"] for s in golden_spans}
        assert library_span["pid"] not in worker_pids


class TestRunThroughput:
    def test_per_cell_failure_containment(self, library_cells):
        """One poisoned cell must not discard its siblings' models."""
        victim = library_cells[1].name
        faults.activate(
            FaultPlan([FaultRule(cell=victim, mode="raise")]), "", 0
        )
        try:
            with pytest.raises(LibraryGenerationError) as err:
                run_throughput(library_cells, params=PARAMS)
        finally:
            faults.deactivate()
        assert [f["cell"] for f in err.value.failures] == [victim]
        survivors = err.value.completed
        assert set(survivors) == {
            c.name for c in library_cells if c.name != victim
        }
        for cell in library_cells:
            if cell.name == victim:
                continue
            reference = generate_ca_model(cell, params=PARAMS)
            assert canonical_model_dict(
                survivors[cell.name]
            ) == canonical_model_dict(reference)

    def test_progress_reaches_total(self, library_cells):
        seen = []
        run_throughput(
            library_cells,
            params=PARAMS,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen[-1] == (len(library_cells), len(library_cells))
        assert [done for done, _total in seen] == list(
            range(1, len(library_cells) + 1)
        )

    def test_engine_metrics_are_recorded(self, library_cells):
        from repro.camodel.throughput import M_THROUGHPUT_CELLS
        from repro.simulation.engine import M_PACKED_FLUSHES, M_PACKED_ROWS

        with obs.scoped(metrics=obs.Metrics()) as state:
            models = run_throughput(library_cells, params=PARAMS)
            cells_count = state.metrics.get(M_THROUGHPUT_CELLS)
            rows = state.metrics.get(M_PACKED_ROWS)
            flushes = state.metrics.get(M_PACKED_FLUSHES)
        assert len(models) == len(library_cells)
        assert cells_count == len(library_cells)
        # Cross-cell packing is the whole point: many rows, few flushes.
        assert rows > 0
        assert 0 < flushes < rows

    def test_library_facade_routes_inline_packed_runs(self, library_cells):
        packed = generate_library(library_cells, packed=True)
        plain = generate_library(library_cells)
        assert set(packed) == set(plain)
        for name in plain:
            assert canonical_model_dict(packed[name]) == canonical_model_dict(
                plain[name]
            )


class TestPhaseCacheStore:
    def test_corrupt_entry_is_tolerated_and_reported(self, tmp_path):
        cell = build_cell(SOI28, "NAND2", 1)
        store = tmp_path / "phases"
        cold = generate_ca_model(
            cell, params=PARAMS, packed=True, phase_cache=store
        )
        entries = sorted(store.glob("*.json"))
        assert entries
        entries[0].write_text("{ not json")
        sink = obs.ListSink()
        with obs.scoped(events=obs.EventLog(sink)):
            warm = generate_ca_model(
                cell, params=PARAMS, packed=True, phase_cache=store
            )
        assert canonical_model_dict(warm) == canonical_model_dict(cold)
        corrupt = [e for e in sink.events if e.name == "phasecache.corrupt"]
        assert corrupt, "corrupt store entries must be reported, not fatal"
        # ...and the rewritten store heals: the entry is valid JSON again.
        json.loads(entries[0].read_text())

    def test_store_is_partitioned_by_electrical_params(self, tmp_path):
        from repro.library import ElectricalParams

        cell = build_cell(SOI28, "INV", 1)
        store = tmp_path / "phases"
        generate_ca_model(cell, params=PARAMS, packed=True, phase_cache=store)
        before = {p.name for p in store.glob("*.json")}
        weak = ElectricalParams(short_resistance=50_000.0)
        generate_ca_model(cell, params=weak, packed=True, phase_cache=store)
        after = {p.name for p in store.glob("*.json")}
        assert before < after, (
            "different electrical params must hash to different entries"
        )


class TestCliPackedFlags:
    def test_generate_packed_phase_cache_identical_models(self, tmp_path, library_cells):
        from repro.camodel import load_models
        from repro.cli import main
        from repro.spice import write_library

        netlist = tmp_path / "library.sp"
        netlist.write_text(write_library(library_cells, SOI28.dialect))
        plain_out = tmp_path / "plain.json"
        packed_out = tmp_path / "packed.json"
        store = tmp_path / "phases"
        assert main(["generate", str(netlist), "-o", str(plain_out)]) == 0
        assert (
            main(
                [
                    "generate",
                    str(netlist),
                    "-o",
                    str(packed_out),
                    "--phase-cache",
                    str(store),
                ]
            )
            == 0
        )
        assert list(store.glob("*.json")), "--phase-cache must populate the store"
        plain = {m.cell_name: m for m in load_models(plain_out)}
        packed = {m.cell_name: m for m in load_models(packed_out)}
        assert set(packed) == set(plain) == {c.name for c in library_cells}
        for name in plain:
            assert canonical_model_dict(packed[name]) == canonical_model_dict(
                plain[name]
            )

    def test_batch_packed_phase_cache_byte_identical(self, tmp_path, library_cells):
        from repro.cli import main
        from repro.spice import write_library

        netlist = tmp_path / "library.sp"
        netlist.write_text(write_library(library_cells, SOI28.dialect))
        plain_out = tmp_path / "plain.json"
        packed_out = tmp_path / "packed.json"
        assert (
            main(
                [
                    "batch",
                    str(netlist),
                    "--run-dir",
                    str(tmp_path / "plain_run"),
                    "-o",
                    str(plain_out),
                    "--retry-backoff",
                    "0",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "batch",
                    str(netlist),
                    "--run-dir",
                    str(tmp_path / "packed_run"),
                    "-o",
                    str(packed_out),
                    "--retry-backoff",
                    "0",
                    "--phase-cache",
                    str(tmp_path / "phases"),
                ]
            )
            == 0
        )
        assert packed_out.read_bytes() == plain_out.read_bytes()


class TestQuarantineResumeWithWarmStore:
    def test_resume_with_warm_phase_cache_byte_identical(
        self, tmp_path, library_cells
    ):
        """Quarantine a cell, then resume against the now-warm on-disk
        phase cache: the assembled library must match a clean plain run
        byte for byte."""
        baseline_dir = tmp_path / "baseline"
        baseline = run_library(
            library_cells,
            run_dir=baseline_dir,
            retry_backoff=0.0,
            output=baseline_dir / "library.json",
        )
        assert baseline.complete
        baseline_bytes = (baseline_dir / "library.json").read_bytes()

        victim = library_cells[-1].name
        run_dir = tmp_path / "run"
        store = tmp_path / "phases"
        plan = FaultPlan([FaultRule(cell=victim, mode="raise")])
        first = run_library(
            library_cells,
            run_dir=run_dir,
            retries=1,
            retry_backoff=0.0,
            fault_plan=plan,
            packed=True,
            phase_cache=store,
            output=run_dir / "library.json",
        )
        assert set(first.quarantined) == {victim}
        assert list(store.glob("*.json")), "first run must warm the store"

        resumed = run_library(
            library_cells,
            run_dir=run_dir,
            resume=True,
            retry_backoff=0.0,
            packed=True,
            phase_cache=store,
            output=run_dir / "library.json",
        )
        assert resumed.complete
        assert (run_dir / "library.json").read_bytes() == baseline_bytes
