"""Cell simulation engine: stimuli in, four-valued responses out.

This is the drop-in replacement for the electrical (SPICE) simulation of
the conventional CA generation flow (Fig. 1 of the paper).  A
:class:`CellSimulator` wraps one (cell, defect) pair and answers:

* :meth:`output_response` — the cell output as a {0,1,R,F,X} symbol for a
  four-valued stimulus word;
* :meth:`net_waveforms` — every net's symbol (used by the golden run to
  identify active/passive transistors, Section III.A).

A stimulus word is a tuple of :class:`~repro.logic.fourval.V4`, one symbol
per input pin.  A static word needs one solver phase; a dynamic word is a
two-pattern test: the initial phase settles, then the final phase is solved
with charge retention and gate-open lag fed from the initial phase.

Solved phases are memoized per (final vector, initial vector), which makes
exhaustive-stimulus characterization cost O(4^n) solves instead of
O(4^n * patterns).  :func:`solve_words_across` additionally plans whole
stimulus sets at once — of one simulator (:meth:`CellSimulator.solve_words`)
or of many: the unique phases still missing from the caches are solved
through the vectorized kernel
(:func:`~repro.simulation.packed.solve_packed`), memoryless first, then
the history-dependent survivors, and the per-word assembly then runs
entirely against warm caches.  When the simulator shares a
:class:`~repro.simulation.switchgraph.CellTopology`, the caches themselves
are shared across defects with signature-equal effects.
:func:`prefetch_drive` plans a sweep's drive-resistance queries the same
way: their misses are solved in one batched resistive solve and popped
by the ordinary :meth:`CellSimulator.output_drive_resistance` calls (or,
for a word already read, :meth:`CellSimulator.drive_resistance`).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.library.technology import ElectricalParams
from repro.logic.fourval import V4, final_phase, initial_phase, word_from_phases
from repro.simulation.packed import (
    DriveRequest,
    PackedRequest,
    ResolveMemo,
    drive_resistances,
    solve_packed,
)
from repro.simulation.solver import SolveResult, StaticSolver
from repro.simulation.switchgraph import (
    CellTopology,
    DRIVER_RESISTANCE,
    DefectEffect,
    GOLDEN,
    PhaseState,
    SwitchGraph,
)
from repro.spice.netlist import CellNetlist

PhaseKey = Tuple[Tuple[int, ...], Optional[Tuple[int, ...]]]
#: split form of one stimulus word: (initial vector, final vector, dynamic)
WordPlan = Tuple[Tuple[int, ...], Tuple[int, ...], bool]

# ----------------------------------------------------------------------
# Metric names (repro.obs registry; registered in repro.lint.catalog)
# ----------------------------------------------------------------------
M_PACKED_ROWS = "throughput.packed_rows"
M_PACKED_FLUSHES = "throughput.flushes"


class SimulationError(RuntimeError):
    """Raised for malformed stimuli."""


def split_word(
    word: Sequence[V4], n_inputs: int, cell_name: str = "?"
) -> WordPlan:
    """Validate and split a stimulus word into its two phase vectors.

    Returns ``(initial, final, dynamic)``.  Splitting is a property of the
    word alone, so a sweep over many simulators of the same cell computes
    it once per word and passes it via the ``plan`` arguments.
    """
    if len(word) != n_inputs:
        raise SimulationError(
            f"stimulus has {len(word)} symbols, cell {cell_name} "
            f"has {n_inputs} inputs"
        )
    first = initial_phase(word)
    second = final_phase(word)
    if any(v < 0 for v in first) or any(v < 0 for v in second):
        raise SimulationError(f"stimulus contains X: {word}")
    return first, second, first != second


class WordTable:
    """A stimulus list's word plans in array form, one per cell.

    ``vectors`` lists the distinct phase vectors the words read (a
    static word only its final one); ``initial``/``final`` give each
    word's two vectors as indices into it (equal for a static word), and
    ``lookups`` the memo lookups :meth:`CellSimulator.solve_word` makes
    before any history lookup: 1 for a static word, 3 for a dynamic one.
    """

    def __init__(self, plans: Sequence[WordPlan]) -> None:
        self.plans = list(plans)
        index: Dict[Tuple[int, ...], int] = {}
        for first, second, dynamic in self.plans:
            for vector in (first, second) if dynamic else (second,):
                index.setdefault(vector, len(index))
        self.vectors = list(index)
        self.dynamic = np.array([plan[2] for plan in self.plans], dtype=bool)
        self.final = np.array(
            [index[second] for _first, second, _dynamic in self.plans],
            dtype=np.intp,
        )
        self.initial = np.array(
            [
                index[first] if dynamic else index[second]
                for first, second, dynamic in self.plans
            ],
            dtype=np.intp,
        )
        self.lookups = np.where(self.dynamic, 3, 1)


class CellSimulator:
    """Switch-level simulator for one cell under one (optional) defect."""

    def __init__(
        self,
        cell: CellNetlist,
        params: Optional[ElectricalParams] = None,
        effect: DefectEffect = GOLDEN,
        driver_resistance: float = DRIVER_RESISTANCE,
        topology: Optional[CellTopology] = None,
        packed: bool = True,
    ):
        self.cell = cell
        self.effect = effect
        #: plan through the vectorized kernel (False: scalar oracle)
        self.packed = packed
        if topology is not None:
            self.graph = topology.graph(effect)
            # Cross-defect sharing: signature-equal effects build identical
            # graphs, so their memoized phases are interchangeable.
            state = topology.phase_state(effect)
        else:
            self.graph = SwitchGraph(
                cell, params=params, effect=effect,
                driver_resistance=driver_resistance,
            )
            state = PhaseState()
        self.solver = StaticSolver(self.graph)
        self._memoryless_cache: Dict[Tuple[int, ...], SolveResult] = (
            state.memoryless
        )
        self._phase_cache: Dict[PhaseKey, List[int]] = state.history
        # Batch-solved phases awaiting their first (counted) lookup.
        # Shared across signature-equal simulators (see PhaseState); the
        # per-word assembly always drains them back to empty.
        self._staged_memoryless: Dict[Tuple[int, ...], SolveResult] = (
            state.staged_memoryless
        )
        self._staged_history: Dict[PhaseKey, List[int]] = state.staged_history
        self._prefetch_drive: Dict[
            Tuple[Tuple[int, ...], Tuple[int, ...], int], float
        ] = state.prefetch_drive
        self._has_gate_open = bool(effect.gate_open)
        self._observable_nodes = [
            node
            for node, observable in enumerate(self.solver._observable)
            if observable
        ]
        # Keyed on (initial vector, final vector, output node) — the values
        # the resistance actually depends on.  (Never key on id() of the
        # solved code lists: ids of freed lists are recycled and alias.)
        self._drive_cache: Dict[
            Tuple[Tuple[int, ...], Tuple[int, ...], int], float
        ] = state.drive
        #: number of phase solves actually performed (cost accounting)
        self.solve_count = 0
        #: memoized phase lookups served without a solve (cost accounting)
        self.cache_hit_count = 0
        #: phases solved through the vectorized kernel (a subset of
        #: ``solve_count``; cost accounting for the packed path)
        self.batched_count = 0

    def counters(self) -> Dict[str, int]:
        """Solve vs. memo-hit counts of this simulator instance.

        This is the leaf-level cost signal the generation flow accumulates
        into the :mod:`repro.obs` metrics registry (metric names
        ``camodel.sim.solves`` / ``camodel.sim.cache_hits``), from which
        the :class:`~repro.camodel.stats.GenerationStats` attached to each
        model is derived.
        """
        return {
            "solves": self.solve_count,
            "cache_hits": self.cache_hit_count,
            "batched": self.batched_count,
        }

    # ------------------------------------------------------------------
    def _memoryless(self, vector: Tuple[int, ...]):
        """History-free solve of one static vector, memoized per vector."""
        result = self._memoryless_cache.get(vector)
        if result is None:
            result = self._staged_memoryless.pop(vector, None)
            if result is None:
                result = self.solver.solve(vector, None)
            self.solve_count += 1
            self._memoryless_cache[vector] = result
        else:
            self.cache_hit_count += 1
        return result

    def _phase_with_codes(
        self,
        vector: Tuple[int, ...],
        prev_codes: Optional[List[int]],
    ) -> List[int]:
        """Solve one settled phase given the previous settled state.

        A phase depends on the previous pattern only through charge
        retention on floating nets and gate-open conduction lag; when the
        history-free solve of *vector* touched neither, it is the answer
        for every predecessor, which collapses the dynamic-stimulus cost
        from O(4^n) to O(2^n) solves for most defects.  When history does
        matter, results are cached by the previous *observable* state.
        """
        base = self._memoryless(vector)
        if prev_codes is None:
            return base.codes
        if not base.retention_used and not self._has_gate_open:
            return base.codes
        observed = tuple(prev_codes[n] for n in self._observable_nodes)
        return self._history(vector, observed, prev_codes)

    def _history(
        self,
        vector: Tuple[int, ...],
        observed: Tuple[int, ...],
        prev_codes: Sequence[int],
    ) -> List[int]:
        """History-dependent solve of *vector*, memoized per observable
        previous state *observed* (of *prev_codes*)."""
        key = (vector, observed)
        cached = self._phase_cache.get(key)
        if cached is not None:
            self.cache_hit_count += 1
            return cached
        codes = self._staged_history.pop(key, None)
        if codes is None:
            codes = self.solver.solve(vector, prev_codes).codes
        self.solve_count += 1
        self._phase_cache[key] = codes
        return codes

    def _phase(
        self,
        vector: Tuple[int, ...],
        prev_vector: Optional[Tuple[int, ...]] = None,
    ) -> List[int]:
        """Solve (with memoization) one settled phase of a two-phase word."""
        prev_codes = self._phase(prev_vector) if prev_vector is not None else None
        return self._phase_with_codes(vector, prev_codes)

    def _split_word(self, word: Sequence[V4]) -> WordPlan:
        return split_word(word, len(self.cell.inputs), self.cell.name)

    # ------------------------------------------------------------------
    def solve_word(
        self, word: Sequence[V4], plan: Optional[WordPlan] = None
    ) -> Tuple[List[int], List[int]]:
        """Solve a word; returns (initial codes, final codes) per node.

        For a static word both phases are the same solved state.  *plan*
        is the precomputed :func:`split_word` of *word* (an optimization
        for sweeping one word list over many simulators).
        """
        first, second, dynamic = plan if plan is not None else self._split_word(word)
        if not dynamic:
            codes = self._phase(second)
            return codes, codes
        codes1 = self._phase(first)
        codes2 = self._phase(second, prev_vector=first)
        return codes1, codes2

    def solve_words(
        self,
        words: Sequence[Sequence[V4]],
        plans: Optional[Sequence[WordPlan]] = None,
    ) -> List[Tuple[List[int], List[int]]]:
        """Solve a whole stimulus set, planning the missing phases at once.

        A one-task :func:`solve_words_across`: the distinct phases absent
        from the caches go through the vectorized kernel, then per-word
        assembly runs the ordinary scalar path against warm caches, so
        solve/cache-hit counter sequences — and results — are identical
        to calling :meth:`solve_word` in a loop (which is exactly what a
        ``packed=False`` simulator does).

        *plans* is the precomputed per-word :func:`split_word` output; the
        generation flow computes it once per stimulus list and reuses it
        across every defect of a cell.
        """
        return solve_words_across([(self, words, plans)])[0]

    def read_words(
        self, table: WordTable
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every word's (initial, final) codes, read after planning.

        The packed counterpart of a :meth:`solve_word` loop over
        *table*'s words once :func:`solve_words_across` (``assemble=False``)
        staged their phases.  Returns two (words, nodes) int8 code arrays
        and each word's memo lookup count: the table's, plus one for a
        dynamic word whose final vector used retention or whose simulator
        has a gate-open device (the history lookup of
        :meth:`_phase_with_codes`).  The loop's lookups are charged
        without replaying them: one counted lookup per distinct vector
        and the history path per history word run for real, so staged
        phases are popped, solved and cached as the loop would, and
        every other lookup of the loop is a cache hit.
        """
        bases = [self._memoryless(vector) for vector in table.vectors]
        codes = np.array([base.codes for base in bases], dtype=np.int8)
        retention = np.array([base.retention_used for base in bases], dtype=bool)
        initial = codes[table.initial]
        final = codes[table.final]
        history = table.dynamic & (retention[table.final] | self._has_gate_open)
        words = np.flatnonzero(history)
        if words.size:
            observed = initial[words][:, self._observable_nodes].tolist()
            final[words] = [
                self._history(
                    table.plans[word][1], tuple(state),
                    bases[table.initial[word]].codes,
                )
                for word, state in zip(words.tolist(), observed)
            ]
        lookups = table.lookups + history
        # _memoryless counted one lookup per vector and _history one per
        # history word; the rest are the loop's repeat hits.
        self.cache_hit_count += int(lookups.sum()) - len(bases) - words.size
        return initial, final, lookups

    # ------------------------------------------------------------------
    # Phase planning of solve_words_across
    # ------------------------------------------------------------------
    def _plan_stage1(
        self,
        plans: Sequence[WordPlan],
        planned: Optional[set] = None,
    ) -> List[Tuple[int, ...]]:
        """Distinct memoryless vectors the caches cannot yet answer.

        *planned* holds vectors a signature-sibling simulator already has
        in flight within the same packed round; they are excluded exactly
        as a sequential sweep would have found them memoized by the time
        this simulator ran.
        """
        need: List[Tuple[int, ...]] = []
        seen = set()
        for first, second, dynamic in plans:
            for vector in (first, second) if dynamic else (second,):
                if (
                    vector in seen
                    or vector in self._memoryless_cache
                    or vector in self._staged_memoryless
                    or (planned is not None and vector in planned)
                ):
                    continue
                seen.add(vector)
                need.append(vector)
        return need

    def _plan_stage2(
        self,
        plans: Sequence[WordPlan],
        planned: Optional[set] = None,
    ) -> Tuple[List[PhaseKey], List[List[int]]]:
        """History-dependent phase keys the base solves cannot answer.

        Requires every stage-1 vector of *plans* to be cached or staged
        (the planner peeks at base results to read retention flags).
        """
        pending: List[PhaseKey] = []
        prevs: List[List[int]] = []
        pending_seen = set()
        for first, second, dynamic in plans:
            if not dynamic:
                continue
            base = self._memoryless_cache.get(second)
            if base is None:
                base = self._staged_memoryless[second]
            if not base.retention_used and not self._has_gate_open:
                continue
            prev = self._memoryless_cache.get(first)
            if prev is None:
                prev = self._staged_memoryless[first]
            prev_codes = prev.codes
            key = (
                second,
                tuple(prev_codes[n] for n in self._observable_nodes),
            )
            if (
                key in self._phase_cache
                or key in self._staged_history
                or key in pending_seen
                or (planned is not None and key in planned)
            ):
                continue
            pending_seen.add(key)
            pending.append(key)
            prevs.append(prev_codes)
        return pending, prevs

    def output_response(self, word: Sequence[V4], output: Optional[str] = None) -> V4:
        """Four-valued response on a cell output (first output default)."""
        codes1, codes2 = self.solve_word(word)
        node = self.graph.output if output is None else self.graph.net_index[output]
        return V4.from_phases(codes1[node], codes2[node])

    def net_waveforms(self, word: Sequence[V4]) -> Dict[str, V4]:
        """Per-net four-valued symbols under *word* (cell nets only)."""
        codes1, codes2 = self.solve_word(word)
        out: Dict[str, V4] = {}
        for net, index in self.graph.net_index.items():
            out[net] = V4.from_phases(codes1[index], codes2[index])
        return out

    def static_net_codes(self, vector: Sequence[int]) -> Dict[str, int]:
        """Settled logic code per net for a static binary input vector."""
        codes = self._phase(tuple(int(v) for v in vector))
        return {net: codes[index] for net, index in self.graph.net_index.items()}

    def simulate_sequence(
        self, vectors: Sequence[Sequence[int]]
    ) -> List[V4]:
        """Simulate a multi-pattern sequence with rolling state.

        *vectors* are binary input patterns applied one after another;
        charge retention and gate-open lag carry across every step (a
        generalization of the two-pattern words to arbitrary test
        sequences).  Returns the output symbol observed at each step:
        the transition from the previous settled state to the new one.
        """
        responses: List[V4] = []
        prev_codes: Optional[List[int]] = None
        out = self.graph.output
        for raw in vectors:
            vector = tuple(int(v) for v in raw)
            if len(vector) != len(self.cell.inputs):
                raise SimulationError(
                    f"pattern {vector} does not match {len(self.cell.inputs)} inputs"
                )
            codes = self._phase_with_codes(vector, prev_codes)
            if prev_codes is None:
                responses.append(V4.from_phases(codes[out], codes[out]))
            else:
                responses.append(V4.from_phases(prev_codes[out], codes[out]))
            prev_codes = codes
        return responses

    # ------------------------------------------------------------------
    # Drive-strength measurement (delay-defect proxy)
    # ------------------------------------------------------------------
    def output_drive_resistance(
        self,
        word: Sequence[V4],
        output: Optional[str] = None,
        plan: Optional[WordPlan] = None,
    ) -> float:
        """Effective resistance from an output to the rail it settled at.

        This is the switch-level proxy for transition speed: a defect that
        removes one finger of a parallel stack leaves the logic value
        intact but raises this resistance, which a transient (SPICE)
        simulation would report as a slow, delay-detected defect.  Returns
        ``inf`` when the output is floating or unknown.  *plan* is the
        precomputed :func:`split_word` of *word*, as for
        :meth:`solve_word`.
        """
        if plan is None:
            plan = self._split_word(word)
        codes1, codes2 = self.solve_word(word, plan)
        out = self.graph.output if output is None else self.graph.net_index[output]
        return self.drive_resistance(plan, out, codes1, codes2)

    def drive_resistance(
        self,
        plan: WordPlan,
        out: int,
        codes1: Sequence[int],
        codes2: Sequence[int],
    ) -> float:
        """:meth:`output_drive_resistance` of a word already solved.

        *codes1*/*codes2* are the word's (initial, final) codes and *out*
        the output node; only the drive-cache lookup is counted (the
        caller charges the word's phase lookups).
        """
        target = self._drive_target(plan, out, codes2)
        if target is None:
            return float("inf")
        cache_key, rail = target
        cached = self._drive_cache.get(cache_key)
        if cached is not None:
            self.cache_hit_count += 1
            return cached
        resistance = self._prefetch_drive.pop(cache_key, None)
        if resistance is None:
            resistance = self._effective_resistance(out, rail, codes1, codes2)
        self._drive_cache[cache_key] = resistance
        return resistance

    def _drive_target(
        self, plan: WordPlan, out: int, codes2: Sequence[int]
    ) -> Optional[Tuple[Tuple, int]]:
        """The drive-cache key and rail of a query, or None when the
        output settled at neither 0 nor 1 (no drive to measure)."""
        level = codes2[out]
        if level not in (0, 1):
            return None
        rail = self.graph.power if level == 1 else self.graph.ground
        return (plan[0], plan[1], out), rail

    def _conducting_edges(
        self, codes1: Sequence[int], codes2: Sequence[int]
    ) -> List[Tuple[int, int, float]]:
        """Conducting edges in the final phase (unknown gates -> off)."""
        edges: List[Tuple[int, int, float]] = list(self.graph.static_edges)
        for dev in self.graph.devices:
            gate_value = codes1[dev.gate] if dev.gate_open else codes2[dev.gate]
            on = gate_value == 1 if dev.is_nmos else gate_value == 0
            if on:
                edges.append((dev.drain, dev.source, dev.g_on))
        return edges

    def _effective_resistance(
        self,
        node_a: int,
        node_b: int,
        codes1: Sequence[int],
        codes2: Sequence[int],
    ) -> float:
        """Two-point effective resistance over the conducting graph.

        Only *node_b* is held (grounded); every other node floats, so the
        result measures the strength of the path actually charging the
        output, independent of the other rails.
        """
        edges = self._conducting_edges(codes1, codes2)
        # Restrict to the connected component of node_a.
        adjacency: Dict[int, List[Tuple[int, float]]] = {}
        for a, b, g in edges:
            adjacency.setdefault(a, []).append((b, g))
            adjacency.setdefault(b, []).append((a, g))
        component = {node_a}
        frontier = [node_a]
        while frontier:
            current = frontier.pop()
            for neighbor, _g in adjacency.get(current, ()):
                if neighbor not in component:
                    component.add(neighbor)
                    frontier.append(neighbor)
        if node_b not in component:
            return float("inf")
        free = sorted(component - {node_b})
        pos = {n: i for i, n in enumerate(free)}
        size = len(free)
        laplacian = np.zeros((size, size))
        for a, b, g in edges:
            if a not in component or a == b:
                continue
            if a in pos:
                laplacian[pos[a], pos[a]] += g
            if b in pos:
                laplacian[pos[b], pos[b]] += g
            if a in pos and b in pos:
                laplacian[pos[a], pos[b]] -= g
                laplacian[pos[b], pos[a]] -= g
        injection = np.zeros(size)
        injection[pos[node_a]] = 1.0
        try:
            voltages = np.linalg.solve(laplacian, injection)
        except np.linalg.LinAlgError:  # pragma: no cover - degenerate
            return float("inf")
        return float(voltages[pos[node_a]])


#: one cross-simulator work item: (simulator, words, per-word plans)
AcrossTask = Tuple[
    "CellSimulator", Sequence[Sequence[V4]], Optional[Sequence[WordPlan]]
]

#: :func:`solve_words_across` flushes its pending phases to the kernel
#: once they reach this many rows
FLUSH_ROWS = 4096


def solve_words_across(
    tasks: Sequence[AcrossTask],
    assemble: bool = True,
) -> List[List[Tuple[List[int], List[int]]]]:
    """Solve many simulators' stimulus sets through one packed kernel.

    The missing phases of *every* task are packed into a handful of
    multi-topology :func:`~repro.simulation.packed.solve_packed` flushes
    (windowed at :data:`FLUSH_ROWS` rows) instead of one kernel call per
    (cell, defect), which is where the throughput win at library scale
    comes from — the per-call NumPy overhead stops scaling with the
    number of defects.  :meth:`CellSimulator.solve_words` is the
    one-task case.

    Element ``[i][j]`` equals ``tasks[i]`` solving its word ``j`` through
    the ordinary sequential path, **including the cost accounting**:
    planning excludes phases a signature-equal sibling earlier in the
    task list already has in flight (exactly the phases a sequential
    sweep would have found memoized), and per-word assembly runs in task
    order against the shared staged dicts, so every task's solve /
    cache-hit / batched counters match a per-task ``solve_words`` sweep.
    Tasks with ``packed=False`` simulators skip planning and assemble
    through the scalar path; mixing them *before* packed signature
    siblings voids the counter-identity (the generation flow never does).

    With ``assemble=False`` the call stops after the packed flushes and
    returns ``[]``: every planned phase sits in the simulators' staged
    dicts, and a later per-word :meth:`CellSimulator.solve_word` sweep
    (in task order) only assembles.  The generation flow instead reads
    each simulator's words once with :meth:`CellSimulator.read_words`,
    which charges the same counters without the per-word replay.

    One :class:`~repro.simulation.packed.ResolveMemo` serves every flush
    and both stages of the call, so stage 2 reuses the resolve rows of
    stage 1; it is dropped when the call returns.
    """
    normalized: List[
        Tuple[CellSimulator, Sequence[Sequence[V4]], Sequence[WordPlan]]
    ] = []
    for sim, words, plans in tasks:
        if plans is None:
            plans = [sim._split_word(word) for word in words]
        normalized.append((sim, words, plans))
    if not normalized:
        return []

    pending_reqs: List[
        Tuple[CellSimulator, List[Tuple[int, ...]], Optional[List[List[int]]]]
    ] = []
    pending_sinks: List = []
    pending_rows = 0
    memo = ResolveMemo()

    def flush() -> None:
        nonlocal pending_reqs, pending_sinks, pending_rows
        if not pending_reqs:
            return
        with obs.tracer().span(
            "solver.packed",
            rows=pending_rows,
            requests=len(pending_reqs),
        ):
            results = solve_packed(
                [
                    PackedRequest(sim.solver, vectors, prevs)
                    for sim, vectors, prevs in pending_reqs
                ],
                memo,
            )
        obs.metrics().inc(M_PACKED_ROWS, pending_rows)
        obs.metrics().inc(M_PACKED_FLUSHES)
        for sink, result in zip(pending_sinks, results):
            sink(result)
        pending_reqs = []
        pending_sinks = []
        pending_rows = 0

    def enqueue(sim, vectors, prevs, sink) -> None:
        nonlocal pending_rows
        pending_reqs.append((sim, vectors, prevs))
        pending_sinks.append(sink)
        pending_rows += len(vectors)
        if pending_rows >= FLUSH_ROWS:
            flush()

    def stage1_sink(sim, vectors):
        def deliver(results) -> None:
            sim._staged_memoryless.update(zip(vectors, results))

        return deliver

    def stage2_sink(sim, keys):
        def deliver(results) -> None:
            for key, result in zip(keys, results):
                sim._staged_history[key] = result.codes

        return deliver

    # Stage 1 planning: every task's missing memoryless vectors, with
    # per-group (shared staged dict == shared signature) in-flight sets.
    group_planned: Dict[int, set] = {}
    for sim, _words, plans in normalized:
        if not sim.packed:
            continue
        planned = group_planned.setdefault(id(sim._staged_memoryless), set())
        need = sim._plan_stage1(plans, planned)
        if not need:
            continue
        sim.batched_count += len(need)
        planned.update(need)
        enqueue(sim, need, None, stage1_sink(sim, need))
    flush()

    # Stage 2 planning: history-dependent survivors (needs the stage-1
    # results, hence the barrier flush above).
    group_planned = {}
    for sim, _words, plans in normalized:
        if not sim.packed:
            continue
        planned = group_planned.setdefault(id(sim._staged_history), set())
        pending, prevs = sim._plan_stage2(plans, planned)
        if not pending:
            continue
        sim.batched_count += len(pending)
        planned.update(pending)
        enqueue(
            sim,
            [key[0] for key in pending],
            prevs,
            stage2_sink(sim, pending),
        )
    flush()

    if not assemble:
        return []

    # Assembly in task order: sequential order within every signature
    # group, so staged pops and cache hits land on the same simulators
    # as a per-task sweep.
    return [
        [sim.solve_word(word, plan) for word, plan in zip(words, plans)]
        for sim, words, plans in normalized
    ]


#: one drive-resistance query of a sweep: (simulator, word plan, output
#: node, the word's solved (initial, final) codes)
DriveQuery = Tuple[
    "CellSimulator", WordPlan, int, Sequence[int], Sequence[int]
]


def prefetch_drive(queries: Iterable[DriveQuery]) -> None:
    """Batch-solve the drive resistances a run of queries will miss.

    *queries* yields, in call order, the
    :meth:`CellSimulator.output_drive_resistance` calls a sweep is about
    to make, with the codes its assembly already solved.  The first miss
    of each key of a shared drive cache — a packed simulator's output
    settled at 0 or 1, the key neither cached, nor already prefetched,
    nor claimed by an earlier query of the same signature group — is
    solved in one :func:`~repro.simulation.packed.drive_resistances`
    batch into ``PhaseState.prefetch_drive``.  The calls then pop it
    exactly where they would have solved, which moves no counter, so
    results and cost accounting equal the unplanned calls.
    """
    misses: List[Tuple[CellSimulator, Tuple, DriveRequest]] = []
    claimed: Dict[int, set] = {}
    for sim, plan, out, codes1, codes2 in queries:
        target = sim._drive_target(plan, out, codes2) if sim.packed else None
        if target is None:
            continue
        key, rail = target
        group = claimed.setdefault(id(sim._drive_cache), set())
        if key in group or key in sim._drive_cache or key in sim._prefetch_drive:
            continue
        group.add(key)
        misses.append((sim, key, (sim.solver, out, rail, codes1, codes2)))
    # Windowed like the phase flushes: a window's topology slabs span only
    # the solvers of its queries, however many cells share the call.
    requests = [request for _sim, _key, request in misses]
    solved = [
        resistance
        for lo in range(0, len(requests), FLUSH_ROWS)
        for resistance in drive_resistances(requests[lo : lo + FLUSH_ROWS])
    ]
    for (sim, key, _request), resistance in zip(misses, solved):
        sim._prefetch_drive[key] = resistance


def golden_simulator(
    cell: CellNetlist, params: Optional[ElectricalParams] = None
) -> CellSimulator:
    """Convenience constructor for the defect-free simulation."""
    return CellSimulator(cell, params=params, effect=GOLDEN)


def logic_check(
    cell: CellNetlist,
    expected,
    params: Optional[ElectricalParams] = None,
    output: Optional[str] = None,
) -> List[Tuple[Tuple[int, ...], int, int]]:
    """Compare a cell's static behaviour against a Boolean reference.

    *expected* is a :class:`repro.logic.expr.Expr` over the cell's input
    names; *output* picks the port to check (first output by default).
    Returns mismatches as (vector, simulated, expected); an empty list
    means the netlist implements the function.
    """
    sim = golden_simulator(cell, params)
    port = output or cell.outputs[0]
    node = sim.graph.net_index[port]
    vectors = list(itertools.product((0, 1), repeat=len(cell.inputs)))
    words = [
        word_from_phases(bits, bits)
        for bits in vectors
    ]
    solved = sim.solve_words(words)
    mismatches = []
    for bits, (_codes1, codes2) in zip(vectors, solved):
        env = dict(zip(cell.inputs, bits))
        got = codes2[node]
        want = expected.evaluate(env)
        if got != want:
            mismatches.append((bits, got, want))
    return mismatches
