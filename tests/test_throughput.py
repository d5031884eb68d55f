"""Cross-cell throughput engine, plan store, and run-dir options.

Covers the duplicate-name guard every library path shares, the run-dir
options :func:`~repro.service.submit_library` carries to every worker
through ``job.json``, plus the engine-level behaviours the differential
suite does not touch: per-cell failure containment, metric registration,
on-disk phase cache corruption tolerance, and quarantine-then-resume
with a warm store.
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
from repro.library import SOI28, build_cell
from repro.resilience import FaultPlan, FaultRule, faults
from repro.resilience.ledger import RunLedger
from repro.resilience.runner import canonical_model_dict
from repro.service import serve, submit_library
from repro.simulation.phasecache import M_PHASECACHE_LOADS, M_PHASECACHE_STORES

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
            submit_library(
                [library_cells[0], library_cells[0]], run_dir=tmp_path / "run"
            )


class TestRunDirOnlyOptions:
    """Run-dir options ride ``job.json`` from submit to every worker."""

    def test_run_dir_forwards_every_option(self, tmp_path, library_cells):
        broken, hung = library_cells[-1].name, library_cells[0].name
        plan = FaultPlan(
            [
                FaultRule(cell=broken, mode="raise"),
                FaultRule(cell=hung, mode="hang", attempts=(0,)),
            ]
        )
        run_dir = tmp_path / "run"
        store = tmp_path / "phases"
        job = submit_library(
            library_cells,
            run_dir=run_dir,
            retries=2,
            cell_timeout=1.0,
            fault_plan=plan,
            packed=False,
            phase_cache=store,
        )
        manifest = json.loads(job.manifest_path.read_text())
        assert manifest["retries"] == 2
        assert manifest["cell_timeout"] == 1.0
        assert manifest["fault_plan"] == plan.to_dict()
        assert manifest["kwargs"]["packed"] is False
        assert manifest["kwargs"]["phase_cache"] == str(store)

        result = serve(run_dir, workers=1)
        # fault_plan + retries: the broken cell fails 1 + 2 attempts
        assert list(result.quarantined) == [broken]
        assert [e["kind"] for e in result.quarantined[broken]] == [
            "exception"
        ] * 3
        # cell_timeout: the hung attempt is stopped and retried
        errors = RunLedger.load(run_dir).cells[hung]["errors"]
        assert [e["kind"] for e in errors] == ["timeout"]
        # packed=False: the scalar reference solver packs nothing
        assert set(result.models) == {
            c.name for c in library_cells if c.name != broken
        }
        for model in result.models.values():
            assert model.stats.batched_phases == 0
        # phase_cache: the workers solved through the on-disk store
        assert list(store.glob("*.json"))


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

    def test_warm_runs_write_no_file(self, tmp_path):
        cell = build_cell(SOI28, "NAND2", 1)
        store = tmp_path / "phases"
        cold = generate_ca_model(
            cell, params=PARAMS, packed=True, phase_cache=store
        )

        def snapshot():
            return {
                path.name: (path.stat().st_ino, path.read_bytes())
                for path in store.glob("*.json")
            }

        before = snapshot()
        assert before
        registry = obs.Metrics()
        with obs.scoped(metrics=registry):
            for _ in range(2):
                warm = generate_ca_model(
                    cell, params=PARAMS, packed=True, phase_cache=store
                )
                assert canonical_model_dict(warm) == canonical_model_dict(cold)
                # Nothing new was solved, so no file is rewritten.
                assert snapshot() == before
        assert registry.get(M_PHASECACHE_LOADS) == 2 * len(before)
        assert registry.get(M_PHASECACHE_STORES) == 0

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
        submit_library(library_cells, run_dir=baseline_dir)
        baseline = serve(
            baseline_dir, workers=1, output=baseline_dir / "library.json"
        )
        assert baseline.complete
        baseline_bytes = (baseline_dir / "library.json").read_bytes()

        victim = library_cells[-1].name
        run_dir = tmp_path / "run"
        store = tmp_path / "phases"
        plan = FaultPlan([FaultRule(cell=victim, mode="raise")])
        submit_library(
            library_cells,
            run_dir=run_dir,
            retries=1,
            fault_plan=plan,
            packed=True,
            phase_cache=store,
        )
        first = serve(run_dir, workers=1, output=run_dir / "library.json")
        assert set(first.quarantined) == {victim}
        assert list(store.glob("*.json")), "first run must warm the store"

        submit_library(
            library_cells,
            run_dir=run_dir,
            resume=True,
            packed=True,
            phase_cache=store,
        )
        resumed = serve(
            run_dir, workers=1, resume=True, output=run_dir / "library.json"
        )
        assert resumed.complete
        assert (run_dir / "library.json").read_bytes() == baseline_bytes
