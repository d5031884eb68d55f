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
   before any solver is built.  The other defects of a packed run are
   grouped by signature: defects whose effects share the topology's
   cross-defect phase state and gate-open flag read the same phases,
   so each group gets one simulator.  Every group of every cell goes
   through one more packed solve
   (:func:`~repro.simulation.engine.solve_words_across` over the
   vectorized kernel :func:`~repro.simulation.packed.solve_packed`).
4. **Assembly**, per cell in job order: each group's responses are read
   from its solved phases once
   (:meth:`~repro.simulation.engine.CellSimulator.read_words`) and
   compared with the golden ones as arrays; then delay detection, stats
   and the :class:`CAModel`.  Delay detection's drive-resistance
   queries are planned like phases: assembly lists every call of every
   cell, one :func:`~repro.simulation.engine.prefetch_drive` solves
   their misses in one batched resistive solve, and the calls then run
   in their original order.

The counters of every model equal a per-cell loop that solves each
defect word by word (``solve_word``), cell-major and defect-minor, so
every model is the same whatever else shares the call.  A group's
simulator is charged the loop's lookups by rule: its solves are the
phases the planner gave it, every other lookup is a cache hit.  A
signature sibling (a later defect of a group) takes its group's
detection row, delay flags included, and is charged what the loop
would count for it: every lookup a cache hit, plus, per drive call of
its group, that word's lookups and one drive-cache hit.  A failing
cell drops out alone at each per-cell step.  ``packed=False`` builds
one scalar simulator per defect, which both packed solves skip: every
phase and drive resistance is then solved word by word by the scalar
reference oracle, and every counter is counted, not derived.

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
    DriveQuery,
    WordPlan,
    WordTable,
    prefetch_drive,
    solve_words_across,
    split_word,
)
from repro.simulation.switchgraph import CellTopology
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


#: V4 symbol of each response code: ``2 * initial + final`` for a known
#: output, :data:`_X_CODE` when either phase is unknown
_SYMBOLS = (V4.ZERO, V4.RISE, V4.FALL, V4.ONE, V4.X)
_X_CODE = 4


def _response_codes(initial: np.ndarray, final: np.ndarray) -> np.ndarray:
    """Response codes (indices into :data:`_SYMBOLS`) of solved phases."""
    known = (initial >= 0) & (final >= 0)
    return np.where(known, 2 * initial + final, _X_CODE).astype(np.int8)


class _CellRun:
    """One job's working state, filled in phase by phase by the engine.

    Responses are held as codes (:data:`_SYMBOLS`): ``(ports, words)``
    for the golden pass, ``(groups, ports, words)`` for the defect
    groups.  A packed run groups signature siblings, defects whose
    shared phase state (:meth:`CellTopology.phase_state`) and gate-open
    flag are equal, behind one simulator; a scalar run gives every
    simulated defect its own.
    """

    cell: CellNetlist
    ports: Sequence[str]
    params: ElectricalParams
    packed: bool
    words: List[Word]
    plans: List[WordPlan]
    table: WordTable
    defects: List[Defect]
    topology: CellTopology
    golden_sim: CellSimulator
    #: net index of every port
    nodes: List[int]
    golden_codes: np.ndarray
    #: (ports, words) mask of the golden transitions (delay-detectable)
    transition: np.ndarray
    #: per port: golden response and reference resistance per transition
    golden: Dict[str, List[V4]]
    resistance: Dict[str, Dict[int, float]]
    #: the golden drive calls, (port index, word), and the words' lookups
    golden_calls: List[Tuple[int, int]]
    golden_lookups: Optional[np.ndarray]
    #: one simulator per defect group, and each defect's group (-1: benign)
    groups: List[CellSimulator]
    row_group: np.ndarray
    group_codes: np.ndarray
    #: (groups, words) memo lookups of each packed group's words (0 in a
    #: scalar run, where no count is derived)
    lookups: np.ndarray
    #: (groups, ports, words) detection of each group, delay flags included
    flags: np.ndarray
    #: the drive-resistance calls of the sweep in call order: (group,
    #: port index, word), and the queries a prefetch solves ahead of them
    drive_calls: List[Tuple[int, int, int]]
    queries: List[DriveQuery]
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
        self.table = WordTable(self.plans)
        self.defects = (
            list(universe) if universe is not None else default_universe(cell)
        )
        self.topology = CellTopology(cell, params=self.params)
        self.golden_sim = CellSimulator(
            cell, params=self.params, topology=self.topology, packed=packed
        )
        self.nodes = [self.topology.net_index[port] for port in self.ports]

    def _codes(
        self, sim: CellSimulator
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """(initial, final, lookups) of every word under *sim*.

        A packed simulator reads its staged phases; a scalar one solves
        word by word, the reference path (no lookup counts: a scalar
        run has no signature siblings to charge).
        """
        if sim.packed:
            return sim.read_words(self.table)
        solved = [
            sim.solve_word(word, plan) for word, plan in zip(self.words, self.plans)
        ]
        initial = np.array([codes1 for codes1, _ in solved], dtype=np.int8)
        final = np.array([codes2 for _, codes2 in solved], dtype=np.int8)
        return initial, final, None

    def _query(
        self, sim: CellSimulator, port: int, col: int,
        initial: np.ndarray, final: np.ndarray,
    ) -> DriveQuery:
        """The drive query of *port* under word *col*, whose (initial,
        final) codes are *initial* and *final*."""
        return sim, self.plans[col], self.nodes[port], initial, final

    def _drive(
        self, port: int, col: int, query: DriveQuery,
        lookups: Optional[np.ndarray],
    ) -> float:
        """One drive-resistance call of a query, charged as the
        sequential call: a scalar simulator makes it, a packed one adds
        its word's *lookups* as cache hits and reads the drive cache."""
        sim, plan, node, initial, final = query
        if not sim.packed:
            return sim.output_drive_resistance(
                self.words[col], output=self.ports[port], plan=plan
            )
        assert lookups is not None
        sim.cache_hit_count += int(lookups[col])
        return sim.drive_resistance(plan, node, initial, final)

    def golden_pass(self, delay_detection: bool) -> None:
        """Golden responses of every port, and their drive queries.

        Every port is read out of the same solved phases (each phase
        carries the codes of all nets), so multi-output cells pay a
        single pass.
        """
        sim, nodes = self.golden_sim, self.nodes
        initial, final, self.golden_lookups = self._codes(sim)
        self.golden_codes = _response_codes(initial[:, nodes].T, final[:, nodes].T)
        self.transition = (self.golden_codes == 1) | (self.golden_codes == 2)
        self.golden = {
            port: [_SYMBOLS[code] for code in codes]
            for port, codes in zip(self.ports, self.golden_codes.tolist())
        }
        self.golden_calls = (
            [(int(port), int(col)) for port, col in zip(*np.nonzero(self.transition))]
            if delay_detection else []
        )
        self.queries = [
            self._query(sim, port, col, initial[col], final[col])
            for port, col in self.golden_calls
        ]

    def golden_drive(self) -> None:
        """Reference resistance of every port's golden transitions."""
        self.resistance = {port: {} for port in self.ports}
        for (port, col), query in zip(self.golden_calls, self.queries):
            self.resistance[self.ports[port]][col] = self._drive(
                port, col, query, self.golden_lookups
            )

    def prepare_rows(self) -> None:
        """Group the simulated defects and build one simulator per group.

        Benign / golden-equivalent defects get no group.  A packed run
        puts signature siblings in one group: the planner would give a
        sibling nothing to solve, and every phase it reads is its
        group's.
        """
        self.groups = []
        self.row_group = np.full(len(self.defects), -1, dtype=np.intp)
        group_of: Dict[object, int] = {}
        for row, defect in enumerate(self.defects):
            effect = defect.effect(self.cell, self.params.short_resistance)
            if effect.benign or effect.is_golden:
                continue
            key = (
                (self.topology.effect_signature(effect), bool(effect.gate_open))
                if self.packed else row
            )
            group = group_of.get(key)
            if group is None:
                group = group_of[key] = len(self.groups)
                self.groups.append(
                    CellSimulator(
                        self.cell, params=self.params, effect=effect,
                        topology=self.topology, packed=self.packed,
                    )
                )
            self.row_group[row] = group

    def sweep(self, delay_detection: bool) -> None:
        """Each group's responses and detection, and its drive queries.

        A group's row detects where its response is known and differs
        from the golden one.  With delay detection, every golden
        transition it matches becomes a drive-resistance call, listed in
        the per-defect order (group, port, word).
        """
        n_words = len(self.words)
        shape = (len(self.groups), len(self.ports), n_words)
        self.group_codes = np.empty(shape, dtype=np.int8)
        self.lookups = np.zeros((len(self.groups), n_words), dtype=np.intp)
        self.drive_calls, self.queries = [], []
        for group, sim in enumerate(self.groups):
            initial, final, lookups = self._codes(sim)
            codes = _response_codes(
                initial[:, self.nodes].T, final[:, self.nodes].T
            )
            self.group_codes[group] = codes
            if lookups is not None:
                self.lookups[group] = lookups
            if not delay_detection:
                continue
            ports, cols = np.nonzero((codes == self.golden_codes) & self.transition)
            # Queries keep only the rows they read, not the whole arrays.
            initial, final = initial[cols], final[cols]
            for k, (port, col) in enumerate(zip(ports.tolist(), cols.tolist())):
                self.drive_calls.append((group, port, col))
                self.queries.append(self._query(sim, port, col, initial[k], final[k]))
        self.flags = (
            (self.group_codes != _X_CODE) & (self.group_codes != self.golden_codes)
        ).astype(np.int8)

    def delay_sweep(self, slow_factor: float) -> None:
        """Run the drive calls in order; flag each slow transition."""
        for (group, port, col), query in zip(self.drive_calls, self.queries):
            measured = self._drive(port, col, query, self.lookups[group])
            if measured > slow_factor * self.resistance[self.ports[port]][col]:
                self.flags[group, port, col] = 1

    def finish(self, keep_responses: bool) -> None:
        """Per-defect detection tables, responses and counters.

        A signature sibling takes its group's row, delay flags included,
        and is charged what a sweep of its own would count: every word
        lookup a cache hit, and for each drive call of its group that
        word's lookups plus one drive-cache hit.
        """
        simulated = self.row_group >= 0
        group = self.row_group[simulated]
        self.detection = {}
        for port_index, port in enumerate(self.ports):
            block = np.zeros((len(self.defects), len(self.words)), dtype=np.int8)
            block[simulated] = self.flags[group, port_index]
            self.detection[port] = block
        self.queries = []  # the drive calls have run; drop their code rows
        self.responses = None
        if keep_responses:
            group_symbols = [
                [[_SYMBOLS[code] for code in codes] for codes in port_codes]
                for port_codes in self.group_codes.tolist()
            ]
            self.responses = {
                port: [
                    list(group_symbols[g][port_index] if g >= 0 else self.golden[port])
                    for g in self.row_group.tolist()
                ]
                for port_index, port in enumerate(self.ports)
            }

        counters = dict(self.golden_sim.counters())
        for sim in self.groups:
            for key, value in sim.counters().items():
                counters[key] += value
        sibling_hits = self.lookups.sum(axis=1)
        for g, _port, col in self.drive_calls:
            sibling_hits[g] += self.lookups[g, col] + 1
        siblings = np.bincount(group, minlength=len(self.groups)) - 1
        counters["cache_hits"] += int(siblings @ sibling_hits)
        counters["simulated"] = int(simulated.sum())
        counters["skipped"] = len(self.defects) - counters["simulated"]
        self.counters = counters

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

    def drive(
        runs: List[_CellRun], step: Callable[..., object], *args: object
    ) -> List[_CellRun]:
        """One prefetch over every run's queries, then each run's calls."""
        prefetch_drive([query for run in runs for query in run.queries])
        return [run for run in runs if survives(run, step, run, *args)]

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
            if delay_detection:
                runs = drive(runs, _CellRun.golden_drive)
        golden_seconds = time.perf_counter() - started

        defect_started = time.perf_counter()
        with tracer.span("generate.defects"):
            runs = [run for run in runs if survives(run, run.prepare_rows)]
            solve_words_across(
                [
                    (sim, run.words, run.plans)
                    for run in runs
                    for sim in run.groups
                ],
                assemble=False,
            )
            runs = [
                run for run in runs
                if survives(run, run.sweep, delay_detection)
            ]
            if delay_detection:
                runs = drive(runs, _CellRun.delay_sweep, slow_factor)
            runs = [
                run for run in runs if survives(run, run.finish, keep_responses)
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
