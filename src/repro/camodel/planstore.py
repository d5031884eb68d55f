"""Process-local plan store: parse and plan once, replay many times.

Characterizing many cells in one process would otherwise rebuild the
same immutable inputs over and over: re-split the stimulus words per
cell, and re-parse the cell netlist and rebuild the
:class:`~repro.simulation.switchgraph.CellTopology` per generation.
The :class:`PlanStore` is a content-keyed, process-local cache of
exactly those three products:

* :meth:`stimulus_plan` — the (words, plans) pair of a stimulus policy.
  Splitting a word is a property of the word alone, so the plans of
  ``(n_inputs, policy)`` are shared across every cell of that shape.
* :meth:`cell` — the parsed :class:`~repro.spice.netlist.CellNetlist` of
  a netlist text (how a service worker rebuilds a manifest cell).
* :meth:`topology` — the cell's :class:`CellTopology`.  Checked-out
  topologies are **detached** from any accumulated phase state first
  (:meth:`CellTopology.detach_phase_state`), so a replayed generation
  solves from scratch and its counters — hence its canonical artifact —
  are byte-identical to a fresh build.  Cross-run phase reuse is the
  job of the on-disk :class:`~repro.simulation.phasecache.PhaseCacheStore`,
  which re-warms through the counter-neutral prefetch path.

The store is a module singleton (:func:`plan_store`); a service worker
runs each attempt against an empty one (:func:`fresh_store`).  Reuse is
observable as the ``throughput.plan_reuse`` counter.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict
from typing import Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.camodel.stimuli import Word, stimuli as make_stimuli
from repro.library.technology import ElectricalParams
from repro.simulation.engine import WordPlan, split_word
from repro.simulation.switchgraph import CellTopology, DRIVER_RESISTANCE
from repro.spice.netlist import CellNetlist

#: obs metric name (registered in repro.lint.catalog)
M_PLAN_REUSE = "throughput.plan_reuse"


def _params_key(params: ElectricalParams) -> Tuple[Tuple[str, float], ...]:
    return tuple(sorted(asdict(params).items()))


class PlanStore:
    """Content-keyed cache of parsed cells, stimulus plans and topologies."""

    def __init__(self) -> None:
        #: (n_inputs, policy) -> (words, plans)
        self._stimuli: Dict[
            Tuple[int, str], Tuple[List[Word], List[WordPlan]]
        ] = {}
        #: (netlist text, technology) -> parsed cell
        self._cells: Dict[Tuple[str, Optional[str]], CellNetlist] = {}
        #: (id(cell), params key, driver resistance) -> (cell, topology).
        #: The strong cell reference pins the id: it cannot be recycled
        #: for a different netlist while the entry lives, and the
        #: ``is``-check below rejects any entry whose cell is not the
        #: caller's object.
        self._topologies: Dict[
            Tuple[int, Tuple[Tuple[str, float], ...], float],
            Tuple[CellNetlist, CellTopology],
        ] = {}

    # ------------------------------------------------------------------
    def stimulus_plan(
        self, n_inputs: int, policy: str
    ) -> Tuple[List[Word], List[WordPlan]]:
        """Words and per-word split plans of one resolved stimulus policy.

        *policy* must already be resolved (no ``'auto'``) — the store
        must not alias two different effective policies under one key.
        Returns fresh list objects over shared immutable entries, so
        callers may attach them to models without cross-linking.
        """
        key = (n_inputs, policy)
        cached = self._stimuli.get(key)
        if cached is None:
            words = make_stimuli(n_inputs, policy)
            plans = [split_word(word, n_inputs) for word in words]
            cached = (words, plans)
            self._stimuli[key] = cached
        else:
            obs.metrics().inc(M_PLAN_REUSE)
        return list(cached[0]), list(cached[1])

    # ------------------------------------------------------------------
    def cell(self, cell_text: str, technology: Optional[str]) -> CellNetlist:
        """Parsed cell of one netlist text (content-keyed)."""
        key = (cell_text, technology)
        cached = self._cells.get(key)
        if cached is not None:
            obs.metrics().inc(M_PLAN_REUSE)
            return cached
        from repro.spice.parser import parse_cell

        parsed = parse_cell(cell_text, technology=technology)
        self._cells[key] = parsed
        return parsed

    # ------------------------------------------------------------------
    def topology(
        self,
        cell: CellNetlist,
        params: ElectricalParams,
        driver_resistance: float = DRIVER_RESISTANCE,
    ) -> CellTopology:
        """Checked-out topology of *cell*, detached from any phase state.

        Detaching keeps replay identity: a reused topology starts every
        generation with empty phase caches and no attached store, so its
        solve/cache-hit counters match a freshly built one.
        """
        key = (id(cell), _params_key(params), driver_resistance)
        entry = self._topologies.get(key)
        if entry is not None and entry[0] is cell:
            topology = entry[1]
            topology.detach_phase_state()
            obs.metrics().inc(M_PLAN_REUSE)
            return topology
        topology = CellTopology(
            cell, params=params, driver_resistance=driver_resistance
        )
        self._topologies[key] = (cell, topology)
        return topology


_STORE = PlanStore()


def plan_store() -> PlanStore:
    """The process-local :class:`PlanStore` singleton."""
    return _STORE


@contextmanager
def fresh_store() -> Iterator[PlanStore]:
    """Swap in an empty store for the duration of one replayed attempt.

    Counter identity across execution environments: a cell attempt
    replayed inside a long-lived service worker
    (:mod:`repro.service.worker`) must record exactly the counters a
    one-process-per-attempt run (:mod:`repro.resilience.runner`)
    records, or ``RunLedger.metrics_total()`` would diverge between an
    N-worker run and a sequential one.  A warm singleton would add
    ``throughput.plan_reuse`` hits the cold-process baseline never
    sees, so the worker runs each attempt against a fresh store and
    restores the previous one afterwards.
    """
    global _STORE
    previous = _STORE
    _STORE = PlanStore()
    try:
        yield _STORE
    finally:
        _STORE = previous
