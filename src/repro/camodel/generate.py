"""Conventional (simulation-based) CA model generation — Fig. 1 of the paper.

For every defect in the universe, the cell is simulated against the full
stimulus set and each response compared with the golden one.  Detection
requires a deterministic mismatch: an X defective response (floating or
contended output) is *not* a detection.

The per-defect loop is the hot path of the whole reproduction (the very
cost the paper attacks); two levers keep it fast (see
``docs/performance.md``):

* **Shared structure** — the cell's switch-level topology (net indexing,
  on-conductances, driver edges) is built once per cell as a
  :class:`~repro.simulation.switchgraph.CellTopology` and cheaply
  specialized per defect effect; benign / golden-equivalent defects
  short-circuit before any solver is built; and phases solved under one
  defect are shared with every signature-equal defect through the
  topology's cross-defect phase cache.
* **Packed solving** — a defect slice is planned as one unit:
  :func:`~repro.simulation.engine.solve_words_across` dedups the phase
  sets of every defect and runs them through the vectorized NumPy kernel
  (:func:`~repro.simulation.packed.solve_packed`), which is byte-identical
  to the scalar path (``packed=False`` forces the scalar reference).
  Delay detection's drive-resistance queries are planned the same way:
  the golden pass and the defect sweep assemble every word first, then
  :func:`~repro.simulation.engine.prefetch_drive` solves the queries'
  misses in one batched resistive solve before the unchanged per-query
  calls run in their original order.

Generation runs in one process.  A library gets its cores from the
run-directory service (``serve --workers N``), which characterizes
cells on N worker processes.

Multi-output cells are characterized in **one sweep**: every solved phase
carries the codes of all nets, so :func:`generate_multi` runs a single
golden pass and a single defect loop and reads one detection table per
output port out of it, instead of paying O(outputs) full simulations.

Cost accounting is collected into a
:class:`~repro.camodel.stats.GenerationStats` attached to the returned
model.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.resilience import faults as _faults
from repro.camodel.model import CAModel
from repro.camodel.stats import (
    GenerationStats,
    M_BATCHED,
    M_CACHE_HITS,
    M_DEFECT_SECONDS,
    M_GOLDEN_SECONDS,
    M_SIMULATED,
    M_SKIPPED,
    M_CELL_SECONDS,
    M_SOLVES,
    M_TOTAL_SECONDS,
)
from repro.camodel.planstore import plan_store
from repro.camodel.stimuli import Word
from repro.defects.model import Defect
from repro.defects.universe import default_universe
from repro.library.technology import ElectricalParams
from repro.library.technology import get as get_technology
from repro.logic.fourval import V4
from repro.simulation.engine import (
    CellSimulator,
    WordPlan,
    prefetch_drive,
    solve_words_across,
    split_word,
)
from repro.simulation.phasecache import PhaseCacheStore, attach_store
from repro.simulation.switchgraph import CellTopology, DefectEffect
from repro.spice.netlist import CellNetlist

#: accepted forms of the on-disk phase-cache argument: a directory path
#: or an already-constructed store (``None`` disables persistence)
PhaseCacheArg = Optional[Union[str, Path, PhaseCacheStore]]

#: with 'auto', exhaustive stimuli are used up to this input count and the
#: adjacent (single-input-transition) set beyond — see DESIGN.md
AUTO_EXHAUSTIVE_LIMIT = 4

#: a defect whose output transition is driven through more than this factor
#: of the golden effective resistance is delay-detected (the switch-level
#: proxy for the transient "slow cell" detections of a SPICE-based flow);
#: 1.25 catches the loss of one finger out of four (ratio 4/3)
DEFAULT_SLOW_FACTOR = 1.25


def resolve_policy(n_inputs: int, policy: str) -> str:
    if policy != "auto":
        return policy
    return "exhaustive" if n_inputs <= AUTO_EXHAUSTIVE_LIMIT else "adjacent"


def detect(golden: V4, defective: V4) -> int:
    """Paper detection rule: deterministic mismatch only."""
    if not defective.is_known:
        return 0
    return int(defective is not golden)


def _port_responses(
    solved: Sequence[Tuple[List[int], List[int]]], node: int
) -> List[V4]:
    """Per-word output symbols of one port from whole-net solved phases."""
    return [V4.from_phases(codes1[node], codes2[node]) for codes1, codes2 in solved]


class _GoldenRun:
    """Golden pass of one cell: responses plus reference resistances.

    Solves the stimulus set once and reads every requested output port
    out of the solved phases (each phase carries the codes of all nets),
    so multi-output cells pay a single pass.  The reference resistances
    of every port's transitions are prefetched in one batch before the
    per-port drive calls (see :func:`_simulate_defect_rows`).
    """

    def __init__(
        self,
        cell: CellNetlist,
        params: ElectricalParams,
        words: Sequence[Word],
        ports: Sequence[str],
        delay_detection: bool,
        topology: Optional[CellTopology] = None,
        packed: bool = True,
        plans: Optional[Sequence[WordPlan]] = None,
        sim: Optional[CellSimulator] = None,
    ) -> None:
        self.topology = topology or CellTopology(cell, params=params)
        self.plans = (
            plans
            if plans is not None
            else [split_word(w, cell.n_inputs, cell.name) for w in words]
        )
        if sim is None:
            # *sim* lets the cross-cell engine hand in the simulator whose
            # phases it already packed; counters must accrue on that object.
            sim = CellSimulator(
                cell, params=params, topology=self.topology, packed=packed
            )
        solved = sim.solve_words(words, self.plans)
        self.golden: Dict[str, List[V4]] = {}
        self.transition_cols: Dict[str, List[int]] = {}
        self.resistance: Dict[str, Dict[int, float]] = {}
        for port in ports:
            responses = _port_responses(solved, sim.graph.net_index[port])
            self.golden[port] = responses
            self.transition_cols[port] = [
                col for col, response in enumerate(responses)
                if response.is_dynamic
            ]
        if delay_detection:
            prefetch_drive(
                [
                    (sim, self.plans[col], sim.graph.net_index[port], *solved[col])
                    for port in ports
                    for col in self.transition_cols[port]
                ]
            )
            for port in ports:
                self.resistance[port] = {
                    col: sim.output_drive_resistance(
                        words[col], output=port, plan=self.plans[col]
                    )
                    for col in self.transition_cols[port]
                }
        self.solve_count = sim.solve_count
        self.cache_hit_count = sim.cache_hit_count
        self.batched_count = sim.batched_count


def _prepare_defect_rows(
    cell: CellNetlist,
    params: ElectricalParams,
    defects: Sequence[Defect],
    topology: CellTopology,
    packed: bool = True,
) -> List[Tuple[DefectEffect, Optional[CellSimulator]]]:
    """Materialize every defect's (effect, simulator) row in defect order.

    Benign / golden-equivalent defects carry no simulator; the rest get
    the simulator the detection loop runs, so the packed planner can see
    the whole slice's phase demand up front.
    """
    rows: List[Tuple[DefectEffect, Optional[CellSimulator]]] = []
    for defect in defects:
        effect = defect.effect(cell, params.short_resistance)
        if effect.benign or effect.is_golden:
            rows.append((effect, None))
        else:
            rows.append(
                (
                    effect,
                    CellSimulator(
                        cell, params=params, effect=effect,
                        topology=topology, packed=packed,
                    ),
                )
            )
    return rows


def _simulate_defect_rows(
    cell: CellNetlist,
    params: ElectricalParams,
    words: Sequence[Word],
    ports: Sequence[str],
    defects: Sequence[Defect],
    golden_run: _GoldenRun,
    delay_detection: bool,
    slow_factor: float,
    keep_responses: bool,
    progress: Optional[Callable[[int, int], None]] = None,
    packed: bool = True,
    prepared_rows: Optional[
        List[Tuple[DefectEffect, Optional[CellSimulator]]]
    ] = None,
) -> Tuple[
    Dict[str, np.ndarray],
    Optional[Dict[str, List[List[V4]]]],
    Dict[str, int],
]:
    """Characterize a slice of the defect universe.

    The kernel of both :func:`generate_ca_model` and the cross-cell
    library engine.  Each defect is simulated once and every output
    port's detection row is read from the same solved phases.

    The slice's phase demand is planned up front and solved through the
    packed kernel (:func:`~repro.simulation.engine.solve_words_across`
    with ``assemble=False``); the per-defect loop below then only
    assembles from the staged results, with unchanged order and cost
    accounting.  Delay detection follows in three steps: assembly lists
    every drive-resistance call in the per-defect order, one
    :func:`~repro.simulation.engine.prefetch_drive` batch solves their
    misses, and the calls then run in that order; each simulator's
    counters are read after them.  ``packed=False`` skips both
    prepasses, so every phase and every drive resistance is solved by
    the scalar oracle.  *prepared_rows* lets a caller that already
    packed a larger scope (the cross-cell library engine) hand in the
    materialized rows.
    """
    plans = golden_run.plans

    if prepared_rows is None:
        prepared_rows = _prepare_defect_rows(
            cell, params, defects, golden_run.topology, packed
        )
        if packed:
            solve_words_across(
                [
                    (sim, words, plans)
                    for _effect, sim in prepared_rows
                    if sim is not None
                ],
                assemble=False,
            )

    detection = {
        port: np.zeros((len(defects), len(words)), dtype=np.int8)
        for port in ports
    }
    responses: Optional[Dict[str, List[List[V4]]]] = (
        {port: [] for port in ports} if keep_responses else None
    )
    counters = {
        "simulated": 0, "skipped": 0, "solves": 0, "cache_hits": 0,
        "batched": 0,
    }

    # Assembly: packed phases are staged, a scalar simulator solves.  It
    # also lists the drive-resistance calls in the per-defect order, with
    # the (initial, final) codes of each call's word.
    drive_calls: List[
        Tuple[int, str, int, CellSimulator, Tuple[List[int], List[int]]]
    ] = []
    for row, (_effect, sim) in enumerate(prepared_rows):
        if sim is None:
            if responses is not None:
                for port in ports:
                    responses[port].append(list(golden_run.golden[port]))
            continue
        solved = [sim.solve_word(word, plan) for word, plan in zip(words, plans)]
        for port in ports:
            golden = golden_run.golden[port]
            node = sim.graph.net_index[port]
            row_responses = _port_responses(solved, node)
            block = detection[port]
            for col, response in enumerate(row_responses):
                block[row, col] = detect(golden[col], response)
            if delay_detection:
                for col in golden_run.transition_cols[port]:
                    if block[row, col] or row_responses[col] is not golden[col]:
                        continue
                    drive_calls.append((row, port, col, sim, solved[col]))
            if responses is not None:
                responses[port].append(row_responses)

    # Delay detection: the calls run in their per-defect order after one
    # batched solve of their misses.  A call only reads phases assembly
    # already settled, so moving it after later rows' assembly changes
    # no counter.
    prefetch_drive(
        (sim, plans[col], sim.graph.net_index[port], *codes)
        for _row, port, col, sim, codes in drive_calls
    )
    for row, port, col, sim, _codes in drive_calls:
        measured = sim.output_drive_resistance(
            words[col], output=port, plan=plans[col]
        )
        if measured > slow_factor * golden_run.resistance[port][col]:
            detection[port][row, col] = 1

    for row, (_effect, sim) in enumerate(prepared_rows):
        if sim is None:
            counters["skipped"] += 1
        else:
            counters["simulated"] += 1
            sim_counters = sim.counters()
            counters["solves"] += sim_counters["solves"]
            counters["cache_hits"] += sim_counters["cache_hits"]
            counters["batched"] += sim_counters["batched"]
        if progress is not None:
            progress(row + 1, len(defects))

    return detection, responses, counters


def _generate(
    cell: CellNetlist,
    params: Optional[ElectricalParams],
    policy: str,
    universe: Optional[Sequence[Defect]],
    keep_responses: bool,
    delay_detection: bool,
    slow_factor: float,
    ports: Sequence[str],
    progress: Optional[Callable[[int, int], None]],
    packed: bool,
    phase_cache: PhaseCacheArg = None,
) -> Dict[str, CAModel]:
    """Shared generation core: one sweep, one CAModel per requested port."""
    started = time.perf_counter()
    if params is None:
        params = _default_params(cell)
    for port in ports:
        if port not in cell.outputs:
            raise ValueError(f"{port!r} is not an output of {cell.name}")
    resolved = resolve_policy(cell.n_inputs, policy)
    words, plans = plan_store().stimulus_plan(cell.n_inputs, resolved)
    defects = list(universe) if universe is not None else default_universe(cell)

    # All cost accounting goes through the obs metrics registry; the stats
    # record attached to the model is derived from the registry delta at
    # the end (single source of truth, see GenerationStats.from_metrics).
    tracer = obs.tracer()
    registry = obs.metrics()
    checkpoint = registry.checkpoint()

    with tracer.span(
        "camodel.generate",
        cell=cell.name,
        policy=resolved,
        defects=len(defects),
        stimuli=len(words),
        outputs=len(ports),
    ) as generate_span:
        # Fault-injection seam: a scripted 'raise'-mode fault surfaces
        # here as an exception from inside generation (no-op when no
        # plan is armed; see repro.resilience.faults).
        _faults.fire(_faults.SITE_SOLVER, cell=cell.name)
        topology = plan_store().topology(cell, params)
        phase_store = attach_store(topology, phase_cache)
        with tracer.span("generate.golden", cell=cell.name):
            golden_run = _GoldenRun(
                cell, params, words, ports, delay_detection,
                topology=topology, packed=packed, plans=plans,
            )
        golden_seconds = time.perf_counter() - started
        registry.inc(M_GOLDEN_SECONDS, golden_seconds)

        defect_started = time.perf_counter()
        with tracer.span("generate.defects"):
            detection, responses, counters = _simulate_defect_rows(
                cell,
                params,
                words,
                ports,
                defects,
                golden_run,
                delay_detection,
                slow_factor,
                keep_responses,
                progress=progress,
                packed=packed,
            )
        registry.inc(M_DEFECT_SECONDS, time.perf_counter() - defect_started)
        registry.inc(M_SIMULATED, counters["simulated"])
        registry.inc(M_SKIPPED, counters["skipped"])
        registry.inc(M_SOLVES, counters["solves"] + golden_run.solve_count)
        registry.inc(
            M_CACHE_HITS, counters["cache_hits"] + golden_run.cache_hit_count
        )
        registry.inc(M_BATCHED, counters["batched"] + golden_run.batched_count)

        # One golden pass plus one full stimulus sweep per simulated defect.
        simulation_count = len(words) * (1 + counters["simulated"])
        total_seconds = time.perf_counter() - started
        registry.inc(M_TOTAL_SECONDS, total_seconds)
        # Histogram sample per finished cell: p50/p95/p99 across a
        # library run (counters only carry the sum).
        registry.observe(M_CELL_SECONDS, total_seconds)
        generate_span.set("simulated_defects", counters["simulated"])
        stats = GenerationStats.from_metrics(registry.counter_delta(checkpoint))

    if phase_store is not None:
        # Persist what this run solved (merged with the store's entries).
        phase_store.save(topology)

    # Every port's model carries a copy of the one shared run's stats:
    # the sweep ran once, so per-port cost attribution is not meaningful.
    return {
        port: CAModel(
            cell_name=cell.name,
            technology=cell.technology,
            inputs=tuple(cell.inputs),
            output=port,
            stimuli=words,
            golden=golden_run.golden[port],
            defects=defects,
            detection=detection[port],
            responses=responses[port] if responses is not None else None,
            simulation_count=simulation_count,
            generation_seconds=total_seconds,
            stats=GenerationStats.from_dict(stats.to_dict()),
        )
        for port in ports
    }


def generate_ca_model(
    cell: CellNetlist,
    params: Optional[ElectricalParams] = None,
    policy: str = "auto",
    universe: Optional[Sequence[Defect]] = None,
    keep_responses: bool = False,
    delay_detection: bool = True,
    slow_factor: float = DEFAULT_SLOW_FACTOR,
    output: Optional[str] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    packed: bool = True,
    phase_cache: PhaseCacheArg = None,
) -> CAModel:
    """Run the conventional generation flow for one cell.

    Parameters
    ----------
    params:
        Electrical parameters; defaults to the cell's technology if it
        names a registered one, else generic parameters.
    policy:
        Stimulus policy ('auto', 'exhaustive', 'adjacent', 'static').
    universe:
        Defect list; defaults to all intra-transistor opens and shorts.
    keep_responses:
        Also record the full defective response matrix (heavier; useful
        for analysis and examples).
    delay_detection:
        Also flag defects whose output transition is logically correct but
        driven through > *slow_factor* x the golden effective resistance
        (delay detection; catches single-finger opens in parallel stacks).
    output:
        Cell output to characterize (first output by default); use
        :func:`generate_multi` for all outputs of a multi-output cell.
    progress:
        Optional callback ``(done, total)`` per defect.
    packed:
        Plan the golden pass and the whole defect slice up front and
        solve them through the vectorized kernel
        (:func:`~repro.simulation.packed.solve_packed`).  ``False``
        forces the scalar reference solver — byte-identical models and
        solve/cache-hit counts (only ``stats.batched_phases`` is 0),
        mainly useful for differential testing and benchmarks.
    phase_cache:
        Directory (or
        :class:`~repro.simulation.phasecache.PhaseCacheStore`) persisting
        solved phases across runs.  Warm entries are served through the
        counter-neutral prefetch path, so results *and* stats stay
        byte-identical to a cold run; the store is updated after the
        sweep.
    """
    port = output or cell.outputs[0]
    models = _generate(
        cell,
        params,
        policy,
        universe,
        keep_responses,
        delay_detection,
        slow_factor,
        [port],
        progress,
        packed,
        phase_cache,
    )
    return models[port]


def generate_multi(
    cell: CellNetlist,
    params: Optional[ElectricalParams] = None,
    policy: str = "auto",
    universe: Optional[Sequence[Defect]] = None,
    keep_responses: bool = False,
    delay_detection: bool = True,
    slow_factor: float = DEFAULT_SLOW_FACTOR,
    progress: Optional[Callable[[int, int], None]] = None,
    packed: bool = True,
    phase_cache: PhaseCacheArg = None,
) -> Dict[str, CAModel]:
    """Characterize every output of a multi-output cell in one sweep.

    Industrial CA flows keep one detection table per output; this returns
    ``{output port: CAModel}``.  The cell's topology, golden pass and
    defect simulations run **once**: every solved phase carries the codes
    of all nets, so each port's detection table is read from the same
    sweep instead of re-simulating the universe per output.  Each model
    carries a copy of the shared run's stats.
    """
    return _generate(
        cell,
        params,
        policy,
        universe,
        keep_responses,
        delay_detection,
        slow_factor,
        list(cell.outputs),
        progress,
        packed,
        phase_cache,
    )


def _default_params(cell: CellNetlist) -> ElectricalParams:
    if cell.technology:
        try:
            return get_technology(cell.technology).electrical
        except KeyError:
            pass
    return ElectricalParams()
