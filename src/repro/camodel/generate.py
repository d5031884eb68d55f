"""Conventional (simulation-based) CA model generation — Fig. 1 of the paper.

For every defect in the universe, the cell is simulated against the full
stimulus set and each response compared with the golden one.  Detection
requires a deterministic mismatch: an X defective response (floating or
contended output) is *not* a detection.

The defect sweep is the hot path of the whole reproduction (the very
cost the paper attacks).  One engine, :func:`_characterize`, runs it for
every entry point: one cell (:func:`generate_ca_model`), every output of
one cell (:func:`generate_multi`) and a whole library
(:func:`~repro.camodel.throughput.run_throughput`,
:func:`~repro.camodel.batch.generate_library`).  It takes a list of
(cell, output ports) jobs through four phases:

1. **Setup**, per cell: stimulus plan, defect universe, and the cell's
   switch-level topology (:class:`~repro.simulation.switchgraph.CellTopology`),
   built once per cell and cheaply specialized per defect effect.  The
   engine keeps nothing between calls: a call's topologies, with their
   solved phases, are freed when it returns.
2. **Golden pass**: every cell's golden phases go through one packed
   solve, then each cell reads its golden responses and reference drive
   resistances from the staged results.
3. **Defect pass**: benign / golden-equivalent defects short-circuit
   before any solver is built; the phases of every other defect of
   every cell go through one more packed solve
   (:func:`~repro.simulation.engine.solve_words_across` over the
   vectorized kernel :func:`~repro.simulation.packed.solve_packed`).
   Phases solved under one defect are shared with every signature-equal
   defect through the topology's cross-defect phase cache.
4. **Assembly**, per cell in job order: detection tables, delay
   detection, stats and the :class:`CAModel`.  Delay detection's
   drive-resistance queries are planned like phases: assembly lists
   every call first, :func:`~repro.simulation.engine.prefetch_drive`
   solves their misses in one batched resistive solve, and the
   unchanged calls then run in their original order.

Assembly runs cell-major, defect-minor — the order a per-cell loop
would solve in — and the packed planner charges each simulator exactly
what that loop would, so every model, counters included, is the same
whatever else shares the call.  ``packed=False`` builds scalar
simulators, which both packed solves skip: every phase and drive
resistance is then solved by the scalar reference oracle.

Multi-output cells are characterized in **one sweep**: every solved
phase carries the codes of all nets, so each output port's detection
table is read from the same golden pass and defect sweep.

Generation runs in one process.  A library gets its cores from the
run-directory service (``serve --workers N``), which characterizes
cells on N worker processes.

Cost accounting is collected into a
:class:`~repro.camodel.stats.GenerationStats` attached to the returned
model.
"""

from __future__ import annotations

import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
from repro.camodel.stimuli import Word, stimuli
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
from repro.simulation.switchgraph import CellTopology, DefectEffect
from repro.spice.netlist import CellNetlist

#: with 'auto', exhaustive stimuli are used up to this input count and the
#: adjacent (single-input-transition) set beyond — see DESIGN.md
AUTO_EXHAUSTIVE_LIMIT = 4

#: a defect whose output transition is driven through more than this factor
#: of the golden effective resistance is delay-detected (the switch-level
#: proxy for the transient "slow cell" detections of a SPICE-based flow);
#: 1.25 catches the loss of one finger out of four (ratio 4/3)
DEFAULT_SLOW_FACTOR = 1.25

#: one failed cell of an engine call: (cell name, exception, traceback)
Failure = Tuple[str, Exception, str]


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


class _CellRun:
    """One job's working state, filled in phase by phase by the engine."""

    cell: CellNetlist
    ports: Sequence[str]
    params: ElectricalParams
    packed: bool
    words: List[Word]
    plans: List[WordPlan]
    defects: List[Defect]
    topology: CellTopology
    golden_sim: CellSimulator
    #: per port: golden response, transition columns, reference resistances
    golden: Dict[str, List[V4]]
    transition_cols: Dict[str, List[int]]
    resistance: Dict[str, Dict[int, float]]
    #: one (effect, simulator) row per defect; benign rows have no simulator
    rows: List[Tuple[DefectEffect, Optional[CellSimulator]]]
    detection: Dict[str, np.ndarray]
    responses: Optional[Dict[str, List[List[V4]]]]
    #: solves / cache_hits / batched (golden pass included), simulated, skipped
    counters: Dict[str, int]

    def __init__(self, cell: CellNetlist, ports: Sequence[str]) -> None:
        self.cell = cell
        self.ports = ports

    def setup(
        self,
        params: Optional[ElectricalParams],
        policy: str,
        universe: Optional[Sequence[Defect]],
        packed: bool,
    ) -> None:
        """Plans, defect universe, topology and golden simulator."""
        cell = self.cell
        # Fault-injection seam: a scripted 'raise'-mode fault surfaces
        # here as an exception from inside generation (no-op when no
        # plan is armed; see repro.resilience.faults).
        _faults.fire(_faults.SITE_SOLVER, cell=cell.name)
        for port in self.ports:
            if port not in cell.outputs:
                raise ValueError(f"{port!r} is not an output of {cell.name}")
        self.params = params if params is not None else _default_params(cell)
        self.packed = packed
        self.words = stimuli(
            cell.n_inputs, resolve_policy(cell.n_inputs, policy)
        )
        self.plans = [split_word(word, cell.n_inputs) for word in self.words]
        self.defects = (
            list(universe) if universe is not None else default_universe(cell)
        )
        self.topology = CellTopology(cell, params=self.params)
        self.golden_sim = CellSimulator(
            cell, params=self.params, topology=self.topology, packed=packed
        )

    def golden_pass(self, delay_detection: bool) -> None:
        """Golden responses and reference resistances of every port.

        Every port is read out of the same solved phases (each phase
        carries the codes of all nets), so multi-output cells pay a
        single pass.  The reference resistances of every port's
        transitions are prefetched in one batch before the per-port
        drive calls.
        """
        sim, words, plans = self.golden_sim, self.words, self.plans
        solved = sim.solve_words(words, plans)
        self.golden, self.transition_cols, self.resistance = {}, {}, {}
        for port in self.ports:
            responses = _port_responses(solved, sim.graph.net_index[port])
            self.golden[port] = responses
            self.transition_cols[port] = [
                col for col, response in enumerate(responses)
                if response.is_dynamic
            ]
        if delay_detection:
            prefetch_drive(
                [
                    (sim, plans[col], sim.graph.net_index[port], *solved[col])
                    for port in self.ports
                    for col in self.transition_cols[port]
                ]
            )
            for port in self.ports:
                self.resistance[port] = {
                    col: sim.output_drive_resistance(
                        words[col], output=port, plan=plans[col]
                    )
                    for col in self.transition_cols[port]
                }
        self.counters = dict(sim.counters())

    def prepare_rows(self) -> None:
        """Materialize every defect's (effect, simulator) row in defect order.

        Benign / golden-equivalent defects carry no simulator; the rest
        get the simulator the sweep runs, so the packed planner sees the
        phase demand of every defect up front.
        """
        self.rows = []
        for defect in self.defects:
            effect = defect.effect(self.cell, self.params.short_resistance)
            sim: Optional[CellSimulator] = None
            if not (effect.benign or effect.is_golden):
                sim = CellSimulator(
                    self.cell, params=self.params, effect=effect,
                    topology=self.topology, packed=self.packed,
                )
            self.rows.append((effect, sim))

    def sweep(
        self, delay_detection: bool, slow_factor: float, keep_responses: bool
    ) -> None:
        """Detection tables of every port, read from the staged phases.

        Each defect is simulated once and every output port's detection
        row is read from the same solved phases: a packed simulator only
        assembles what the defect pass staged, a scalar one solves.
        Delay detection follows in three steps: assembly lists every
        drive-resistance call in the per-defect order, one
        :func:`~repro.simulation.engine.prefetch_drive` batch solves
        their misses, and the calls then run in that order; each
        simulator's counters are read after them.
        """
        words, plans, ports = self.words, self.plans, self.ports
        detection = {
            port: np.zeros((len(self.rows), len(words)), dtype=np.int8)
            for port in ports
        }
        responses: Optional[Dict[str, List[List[V4]]]] = (
            {port: [] for port in ports} if keep_responses else None
        )

        # Assembly: packed phases are staged, a scalar simulator solves.  It
        # also lists the drive-resistance calls in the per-defect order, with
        # the (initial, final) codes of each call's word.
        drive_calls: List[
            Tuple[int, str, int, CellSimulator, Tuple[List[int], List[int]]]
        ] = []
        for row, (_effect, sim) in enumerate(self.rows):
            if sim is None:
                if responses is not None:
                    for port in ports:
                        responses[port].append(list(self.golden[port]))
                continue
            solved = [sim.solve_word(word, plan) for word, plan in zip(words, plans)]
            for port in ports:
                golden = self.golden[port]
                row_responses = _port_responses(solved, sim.graph.net_index[port])
                block = detection[port]
                for col, response in enumerate(row_responses):
                    block[row, col] = detect(golden[col], response)
                if delay_detection:
                    for col in self.transition_cols[port]:
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
            if measured > slow_factor * self.resistance[port][col]:
                detection[port][row, col] = 1

        counters = self.counters
        counters["simulated"] = counters["skipped"] = 0
        for _effect, sim in self.rows:
            if sim is None:
                counters["skipped"] += 1
                continue
            counters["simulated"] += 1
            for key, value in sim.counters().items():
                counters[key] += value
        self.detection, self.responses = detection, responses

    @property
    def simulation_count(self) -> int:
        """One golden pass plus one full stimulus sweep per simulated defect."""
        return len(self.words) * (1 + self.counters["simulated"])

    def models(self, stats: GenerationStats) -> Dict[str, CAModel]:
        """One model per port; each carries its own copy of the run's stats.

        The sweep ran once for all ports, so per-port cost attribution
        is not meaningful.
        """
        return {
            port: CAModel(
                cell_name=self.cell.name,
                technology=self.cell.technology,
                inputs=tuple(self.cell.inputs),
                output=port,
                stimuli=self.words,
                golden=self.golden[port],
                defects=self.defects,
                detection=self.detection[port],
                responses=(
                    self.responses[port] if self.responses is not None else None
                ),
                simulation_count=self.simulation_count,
                generation_seconds=stats.total_seconds,
                stats=GenerationStats.from_dict(stats.to_dict()),
            )
            for port in self.ports
        }


def _characterize(
    jobs: Sequence[Tuple[CellNetlist, Sequence[str]]],
    params: Optional[ElectricalParams],
    policy: str,
    universe: Optional[Sequence[Defect]],
    keep_responses: bool,
    delay_detection: bool,
    slow_factor: float,
    packed: bool,
) -> Tuple[Dict[str, Dict[str, CAModel]], List[Failure]]:
    """The conventional sweep over (cell, ports) jobs.

    Returns ``{cell name: {port: CAModel}}`` for every cell that
    finished, and one :data:`Failure` per cell that raised; a failing
    cell never discards its siblings.  Options are those of
    :func:`generate_ca_model`.

    All cost accounting goes through the obs metrics registry: each
    cell's stats record is derived from the counter increments it adds
    (single source of truth, see
    :meth:`~repro.camodel.stats.GenerationStats.from_metrics`).  The
    golden and defect phases are timed once for the whole call; how
    their wall time is split across cells is documented on
    :class:`~repro.camodel.stats.GenerationStats`.
    """
    started = time.perf_counter()
    tracer = obs.tracer()
    registry = obs.metrics()
    failures: List[Failure] = []

    def survives(run: _CellRun, step: Callable[..., object], *args: object) -> bool:
        try:
            step(*args)
        except Exception as exc:  # noqa: BLE001 - the caller reports it
            failures.append((run.cell.name, exc, traceback.format_exc()))
            return False
        return True

    runs = [_CellRun(cell, ports) for cell, ports in jobs]
    with tracer.span(
        "camodel.generate",
        cells=[run.cell.name for run in runs],
        policy=policy,
    ) as generate_span:
        with tracer.span("generate.golden"):
            runs = [
                run for run in runs
                if survives(run, run.setup, params, policy, universe, packed)
            ]
            solve_words_across(
                [(run.golden_sim, run.words, run.plans) for run in runs],
                assemble=False,
            )
            runs = [
                run for run in runs
                if survives(run, run.golden_pass, delay_detection)
            ]
        golden_seconds = time.perf_counter() - started

        defect_started = time.perf_counter()
        with tracer.span("generate.defects"):
            runs = [run for run in runs if survives(run, run.prepare_rows)]
            solve_words_across(
                [
                    (sim, run.words, run.plans)
                    for run in runs
                    for _effect, sim in run.rows
                    if sim is not None
                ],
                assemble=False,
            )
            runs = [
                run for run in runs
                if survives(run, run.sweep, delay_detection, slow_factor,
                            keep_responses)
            ]
        defect_seconds = time.perf_counter() - defect_started
        total_seconds = time.perf_counter() - started

        simulations = sum(run.simulation_count for run in runs)
        out: Dict[str, Dict[str, CAModel]] = {}
        for run in runs:
            share = run.simulation_count / simulations
            delta = {
                M_SOLVES: run.counters["solves"],
                M_CACHE_HITS: run.counters["cache_hits"],
                M_BATCHED: run.counters["batched"],
                M_SIMULATED: run.counters["simulated"],
                M_SKIPPED: run.counters["skipped"],
                M_GOLDEN_SECONDS: golden_seconds * share,
                M_DEFECT_SECONDS: defect_seconds * share,
                M_TOTAL_SECONDS: total_seconds * share,
            }
            models = run.models(GenerationStats.from_metrics(delta))
            for key, value in delta.items():
                registry.inc(key, value)
            # Histogram sample per finished cell: p50/p95/p99 across a
            # library run (counters only carry the sum).
            registry.observe(M_CELL_SECONDS, delta[M_TOTAL_SECONDS])
            out[run.cell.name] = models
        generate_span.set("defects", sum(len(run.defects) for run in runs))
        generate_span.set(
            "simulated_defects", sum(run.counters["simulated"] for run in runs)
        )
    return out, failures


def _cell_models(
    cell: CellNetlist,
    result: Tuple[Dict[str, Dict[str, CAModel]], List[Failure]],
) -> Dict[str, CAModel]:
    """A one-job engine result; re-raises the cell's own exception."""
    models, failures = result
    if failures:
        raise failures[0][1]
    return models[cell.name]


def generate_ca_model(
    cell: CellNetlist,
    params: Optional[ElectricalParams] = None,
    policy: str = "auto",
    universe: Optional[Sequence[Defect]] = None,
    keep_responses: bool = False,
    delay_detection: bool = True,
    slow_factor: float = DEFAULT_SLOW_FACTOR,
    output: Optional[str] = None,
    packed: bool = True,
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
    packed:
        Plan the golden pass and the whole defect slice up front and
        solve them through the vectorized kernel
        (:func:`~repro.simulation.packed.solve_packed`).  ``False``
        forces the scalar reference solver — byte-identical models and
        solve/cache-hit counts (only ``stats.batched_phases`` is 0),
        mainly useful for differential testing and benchmarks.
    """
    port = output or cell.outputs[0]
    result = _characterize(
        [(cell, [port])],
        params=params,
        policy=policy,
        universe=universe,
        keep_responses=keep_responses,
        delay_detection=delay_detection,
        slow_factor=slow_factor,
        packed=packed,
    )
    return _cell_models(cell, result)[port]


def generate_multi(
    cell: CellNetlist,
    params: Optional[ElectricalParams] = None,
    policy: str = "auto",
    universe: Optional[Sequence[Defect]] = None,
    keep_responses: bool = False,
    delay_detection: bool = True,
    slow_factor: float = DEFAULT_SLOW_FACTOR,
    packed: bool = True,
) -> Dict[str, CAModel]:
    """Characterize every output of a multi-output cell in one sweep.

    Industrial CA flows keep one detection table per output; this returns
    ``{output port: CAModel}``.  The cell's topology, golden pass and
    defect simulations run **once**: every solved phase carries the codes
    of all nets, so each port's detection table is read from the same
    sweep instead of re-simulating the universe per output.  Each model
    carries a copy of the shared run's stats.
    """
    result = _characterize(
        [(cell, list(cell.outputs))],
        params=params,
        policy=policy,
        universe=universe,
        keep_responses=keep_responses,
        delay_detection=delay_detection,
        slow_factor=slow_factor,
        packed=packed,
    )
    return _cell_models(cell, result)


def _default_params(cell: CellNetlist) -> ElectricalParams:
    if cell.technology:
        try:
            return get_technology(cell.technology).electrical
        except KeyError:
            pass
    return ElectricalParams()
