"""Cross-cell throughput engine and run-dir options.

Covers the duplicate-name guard every library path shares, the run-dir
options :func:`~repro.service.submit_library` carries to every worker
through ``job.json``, plus the engine-level behaviours the differential
suite does not touch: per-cell failure containment, metric registration
and no state kept between engine calls.
"""

import gc
import json
import weakref

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
from repro.simulation.switchgraph import CellTopology

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
        job = submit_library(
            library_cells,
            run_dir=run_dir,
            retries=2,
            cell_timeout=1.0,
            fault_plan=plan,
            packed=False,
        )
        manifest = json.loads(job.manifest_path.read_text())
        assert manifest["retries"] == 2
        assert manifest["cell_timeout"] == 1.0
        assert manifest["fault_plan"] == plan.to_dict()
        assert manifest["kwargs"]["packed"] is False

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

    @pytest.mark.parametrize("step", ["sweep", "delay_sweep"])
    def test_failure_after_setup_is_contained(self, monkeypatch, step):
        """A cell raising in its own assembly or drive step, after the
        shared packed solves, fails alone: each drive prefetch still
        spans every cell left in it, and the other models equal their
        per-cell references."""
        import repro.camodel.generate as generate_module

        cells = [
            build_cell(SOI28, function, 1)
            for function in ("NAND2", "NOR2", "AOI21", "OAI21")
        ]
        names = {cell.name for cell in cells}
        victim = cells[1].name
        real_step = getattr(generate_module._CellRun, step)

        def failing_step(run, *args):
            if run.cell.name == victim:
                raise RuntimeError("injected assembly fault")
            return real_step(run, *args)

        spans = []
        prefetch = generate_module.prefetch_drive

        def spy_prefetch(queries):
            queries = list(queries)
            spans.append({query[0].cell.name for query in queries})
            prefetch(queries)

        monkeypatch.setattr(generate_module._CellRun, step, failing_step)
        monkeypatch.setattr(generate_module, "prefetch_drive", spy_prefetch)
        with pytest.raises(LibraryGenerationError) as err:
            run_throughput(cells, params=PARAMS)
        monkeypatch.undo()
        assert [f["cell"] for f in err.value.failures] == [victim]
        # One golden prefetch over every cell, one defect prefetch over
        # every cell whose sweep finished.
        swept = names - {victim} if step == "sweep" else names
        assert spans == [names, swept]
        survivors = err.value.completed
        assert set(survivors) == names - {victim}
        for cell in cells:
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


class TestNoStateBetweenCalls:
    def test_no_topology_outlives_its_call(self, monkeypatch, library_cells):
        """A call's topologies, with their solved phases, die with it."""
        built = []
        init = CellTopology.__init__

        def recording_init(topology, *args, **kwargs):
            init(topology, *args, **kwargs)
            built.append(weakref.ref(topology))

        monkeypatch.setattr(CellTopology, "__init__", recording_init)
        models = generate_library(library_cells, params=PARAMS)
        first = {name: canonical_model_dict(m) for name, m in models.items()}
        del models
        gc.collect()
        assert len(built) == len(library_cells)
        assert [ref() for ref in built] == [None] * len(built)

        # The same cell objects again: every counter is charged afresh.
        again = generate_library(library_cells, params=PARAMS)
        assert {
            name: canonical_model_dict(m) for name, m in again.items()
        } == first
