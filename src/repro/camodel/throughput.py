"""Cross-cell vectorized throughput engine for library characterization.

:func:`~repro.camodel.generate.generate_ca_model` already packs every
(defect, stimulus set) pair of **one** cell into a handful of vectorized
kernel calls.  At library scale that still leaves one golden call and
one defect sweep per cell — for small cells the per-call NumPy overhead
dominates and throughput stops scaling.  :func:`run_throughput` lifts
the packing across the whole library: the pending phase batches of
*every* cell and *every* defect are packed into padded multi-topology
:func:`~repro.simulation.packed.solve_packed` kernel calls (windowed at
``max_rows``), while the per-cell golden assembly and detection loops —
the code that defines the semantics — run unchanged afterwards against
the staged results.

Identity guarantee: for every cell the produced :class:`CAModel` is
byte-identical (canonical form) to ``generate_ca_model(cell)``, counters
included.  The packed planner charges each simulator the same
solve/cache-hit/batched increments a per-cell sweep would have
(:func:`~repro.simulation.engine.solve_words_across`), and assembly runs
in cell-major, defect-minor order — the exact order of the sequential
library loop.

Failure containment matches :func:`repro.camodel.batch.generate_library`:
a failing cell never discards its completed siblings — the raised
:class:`~repro.camodel.batch.LibraryGenerationError` carries them as
``.completed``.
"""

from __future__ import annotations

import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.camodel.batch import (
    LibraryGenerationError,
    ensure_unique_cell_names,
)
from repro.camodel.generate import (
    DEFAULT_SLOW_FACTOR,
    PhaseCacheArg,
    _default_params,
    _GoldenRun,
    _prepare_defect_rows,
    _simulate_defect_rows,
    resolve_policy,
)
from repro.camodel.model import CAModel
from repro.camodel.planstore import plan_store
from repro.camodel.stats import (
    GenerationStats,
    M_BATCHED,
    M_CACHE_HITS,
    M_CELL_SECONDS,
    M_SIMULATED,
    M_SKIPPED,
    M_SOLVES,
    M_TOTAL_SECONDS,
)
from repro.defects.model import Defect
from repro.defects.universe import default_universe
from repro.library.technology import ElectricalParams
from repro.resilience import faults as _faults
from repro.simulation.engine import CellSimulator, solve_words_across
from repro.simulation.phasecache import attach_store
from repro.spice.netlist import CellNetlist

#: obs metric name (registered in repro.lint.catalog)
M_THROUGHPUT_CELLS = "throughput.cells"


class _CellRun:
    """Per-cell working state threaded through the packed phases."""

    __slots__ = (
        "cell", "params", "words", "plans", "defects", "topology",
        "store", "golden_sim", "golden_run", "rows", "started",
    )

    def __init__(self, cell, params, words, plans, defects, topology, store):
        self.cell = cell
        self.params = params
        self.words = words
        self.plans = plans
        self.defects = defects
        self.topology = topology
        self.store = store
        self.golden_sim: Optional[CellSimulator] = None
        self.golden_run: Optional[_GoldenRun] = None
        self.rows = None
        self.started = time.perf_counter()


def run_throughput(
    cells: Sequence[CellNetlist],
    policy: str = "auto",
    params: Optional[ElectricalParams] = None,
    universe: Optional[Sequence[Defect]] = None,
    keep_responses: bool = False,
    delay_detection: bool = True,
    slow_factor: float = DEFAULT_SLOW_FACTOR,
    phase_cache: PhaseCacheArg = None,
    max_rows: int = 4096,
    progress: Optional[Callable[[int, int], None]] = None,
) -> Dict[str, CAModel]:
    """Characterize a whole library through the cross-cell packed kernel.

    Returns ``{cell name: CAModel}`` with every model byte-identical
    (canonical form, counters included) to a per-cell
    ``generate_ca_model(cell, ...)`` run with the same options.  Options
    mirror :func:`~repro.camodel.generate.generate_ca_model`; see there
    for *phase_cache* (per-cell stores are saved as each cell finishes).

    Seconds attribution is engine-level: the packed kernel solves many
    cells' phases in one call, so per-cell wall-clock fields measure the
    cell's start-to-finish span inside the engine (overlapping across
    cells) — canonical artifact comparison zeroes them anyway.
    """
    names = [cell.name for cell in cells]
    ensure_unique_cell_names(names)

    tracer = obs.tracer()
    registry = obs.metrics()
    out: Dict[str, CAModel] = {}
    failures: List[Dict[str, str]] = []

    def fail(cell: CellNetlist, exc: Exception) -> None:
        failures.append(
            {
                "cell": cell.name,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }
        )

    with tracer.span("camodel.throughput", cells=len(cells)):
        # Phase 1 — per-cell setup: plans, topology, golden simulator.
        runs: List[_CellRun] = []
        for cell in cells:
            try:
                _faults.fire(_faults.SITE_SOLVER, cell=cell.name)
                cell_params = params if params is not None else _default_params(cell)
                resolved = resolve_policy(cell.n_inputs, policy)
                words, plans = plan_store().stimulus_plan(
                    cell.n_inputs, resolved
                )
                defects = (
                    list(universe)
                    if universe is not None
                    else default_universe(cell)
                )
                topology = plan_store().topology(cell, cell_params)
                store = attach_store(topology, phase_cache)
                run = _CellRun(
                    cell, cell_params, words, plans, defects, topology, store
                )
                run.golden_sim = CellSimulator(
                    cell, params=cell_params, topology=topology
                )
                runs.append(run)
            except Exception as exc:  # noqa: BLE001 - collected below
                fail(cell, exc)

        # Phase 2 — pack every cell's golden phases into shared kernel
        # calls; assembly happens inside each _GoldenRun below.
        solve_words_across(
            [(run.golden_sim, run.words, run.plans) for run in runs],
            max_rows=max_rows,
            assemble=False,
        )
        survivors: List[_CellRun] = []
        for run in runs:
            try:
                run.golden_run = _GoldenRun(
                    run.cell,
                    run.params,
                    run.words,
                    [run.cell.outputs[0]],
                    delay_detection,
                    topology=run.topology,
                    plans=run.plans,
                    sim=run.golden_sim,
                )
                run.rows = _prepare_defect_rows(
                    run.cell, run.params, run.defects, run.topology
                )
                survivors.append(run)
            except Exception as exc:  # noqa: BLE001 - collected below
                fail(run.cell, exc)

        # Phase 3 — pack every surviving cell's defect phases, cell-major
        # defect-minor (the sequential library order).
        solve_words_across(
            [
                (sim, run.words, run.golden_run.plans)
                for run in survivors
                for _effect, sim in run.rows
                if sim is not None
            ],
            max_rows=max_rows,
            assemble=False,
        )

        # Phase 4 — per-cell assembly: detection tables, stats, model.
        done = 0
        for run in survivors:
            port = run.cell.outputs[0]
            try:
                detection, responses, counters = _simulate_defect_rows(
                    run.cell,
                    run.params,
                    run.words,
                    [port],
                    run.defects,
                    run.golden_run,
                    delay_detection,
                    slow_factor,
                    keep_responses,
                    prepared_rows=run.rows,
                )
                golden = run.golden_run
                cell_seconds = time.perf_counter() - run.started
                delta = {
                    M_SOLVES: counters["solves"] + golden.solve_count,
                    M_CACHE_HITS: (
                        counters["cache_hits"] + golden.cache_hit_count
                    ),
                    M_BATCHED: counters["batched"] + golden.batched_count,
                    M_SIMULATED: counters["simulated"],
                    M_SKIPPED: counters["skipped"],
                    M_TOTAL_SECONDS: cell_seconds,
                }
                for key, value in delta.items():
                    registry.inc(key, value)
                registry.observe(M_CELL_SECONDS, cell_seconds)
                stats = GenerationStats.from_metrics(delta)
                out[run.cell.name] = CAModel(
                    cell_name=run.cell.name,
                    technology=run.cell.technology,
                    inputs=tuple(run.cell.inputs),
                    output=port,
                    stimuli=run.words,
                    golden=golden.golden[port],
                    defects=run.defects,
                    detection=detection[port],
                    responses=(
                        responses[port] if responses is not None else None
                    ),
                    simulation_count=(
                        len(run.words) * (1 + counters["simulated"])
                    ),
                    generation_seconds=cell_seconds,
                    stats=stats,
                )
                if run.store is not None:
                    run.store.save(run.topology)
            except Exception as exc:  # noqa: BLE001 - collected below
                fail(run.cell, exc)
            done += 1
            if progress is not None:
                progress(done, len(survivors))
        registry.inc(M_THROUGHPUT_CELLS, len(out))

    if failures:
        raise LibraryGenerationError(failures, completed=out)
    return out
