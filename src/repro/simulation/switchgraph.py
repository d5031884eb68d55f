"""Switch-level view of a cell netlist.

Builds the indexed structures the solver works on: integer net ids, device
records with on-conductances, resistive input drivers, and the defect
modifications (:class:`DefectEffect`) a simulation run can apply.

Modeling choices (see DESIGN.md):

* Cell inputs are driven through a finite driver resistance from an ideal
  source node, so shorts onto input nets produce realistic voltage dividers
  instead of being masked by an ideal source.
* Power/ground rails are ideal (zero-impedance) boundaries.
* A conducting MOS channel is a resistor ``Ron = rsq * L / W``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.library.technology import ElectricalParams
from repro.spice.netlist import CellNetlist, Transistor

#: default driver resistance seen looking back into a cell input [ohm]
DRIVER_RESISTANCE = 2_000.0


@dataclass(frozen=True)
class DefectEffect:
    """Structural modification a defect makes to the switch graph.

    * ``removed``: device names whose channel can never conduct
      (drain/source opens).
    * ``gate_open``: device names whose gate terminal is disconnected;
      their conduction is the one implied by the *previous* pattern's gate
      value (trapped-charge lag), non-conducting on the first pattern.
    * ``bridges``: resistive shorts ``(net_a, net_b, resistance)``.
    * ``benign``: defect has no logic-level effect (e.g. bulk open);
      simulation is skipped and the golden response returned.
    """

    removed: FrozenSet[str] = frozenset()
    gate_open: FrozenSet[str] = frozenset()
    bridges: Tuple[Tuple[str, str, float], ...] = ()
    benign: bool = False

    @property
    def is_golden(self) -> bool:
        return not (self.removed or self.gate_open or self.bridges)


GOLDEN = DefectEffect()


class PhaseState:
    """Shared solving state for one effect signature of one topology.

    Every :class:`~repro.simulation.engine.CellSimulator` built on the
    same topology with a signature-equal effect binds the *same* state
    object, which is what makes phase work flow across defects:

    * ``memoryless`` / ``history`` / ``drive`` — the settled memoization
      caches (PR 3's cross-defect sharing);
    * ``staged_memoryless`` / ``staged_history`` — batch-solved phases
      awaiting their first *counted* lookup.  Shared so the cross-cell
      packed planner can see what a signature-sibling already has in
      flight; always drained back to empty by per-word assembly (or by
      :meth:`~repro.simulation.engine.CellSimulator.read_words`), so
      sharing them is invisible to the sequential flow;
    * ``prefetch_drive`` — drive resistances the batched solve of
      :func:`~repro.simulation.engine.prefetch_drive` computed ahead of
      the sweep.  Entries are *popped* at the point the resistive solve
      would have run, which moves no counter, so results and cost
      accounting equal the unplanned calls.
    """

    __slots__ = (
        "memoryless",
        "history",
        "drive",
        "staged_memoryless",
        "staged_history",
        "prefetch_drive",
    )

    def __init__(self) -> None:
        self.memoryless: dict = {}
        self.history: dict = {}
        self.drive: dict = {}
        self.staged_memoryless: dict = {}
        self.staged_history: dict = {}
        self.prefetch_drive: dict = {}


@dataclass
class DeviceRec:
    """Solver-facing device record (net ids instead of names)."""

    index: int
    name: str
    is_nmos: bool
    drain: int
    gate: int
    source: int
    g_on: float
    gate_open: bool = False


class CellTopology:
    """Per-cell structures shared by every (cell, defect) switch graph.

    Defect characterization builds one :class:`SwitchGraph` per defect of
    the same cell; the net ordering, index maps, rail/pin node ids and
    device on-conductances are identical across the whole universe.  A
    topology is built once per (cell, params, driver resistance) and
    cheaply specialized per :class:`DefectEffect` via :meth:`graph`.

    The topology also hosts the **cross-defect phase cache**: two defects
    whose effects leave the touched subgraph identical (same removed
    channels, same gate opens, same resistive bridges — e.g. the drain
    open and the source open of one transistor) build byte-identical
    switch graphs, so their solved phases are interchangeable.
    :meth:`phase_state` hands every simulator of the same effect
    signature the same memoization dicts, collapsing that duplicate work.
    """

    def __init__(
        self,
        cell: CellNetlist,
        params: Optional[ElectricalParams] = None,
        driver_resistance: float = DRIVER_RESISTANCE,
    ):
        self.cell = cell
        self.params = params or ElectricalParams()
        self.driver_resistance = driver_resistance

        nets = sorted(cell.nets())
        self.net_index: Dict[str, int] = {n: i for i, n in enumerate(nets)}
        # one virtual source node per input pin
        self.source_index: Dict[str, int] = {}
        for pin in cell.inputs:
            self.source_index[pin] = len(nets) + len(self.source_index)
        self.n_nodes = len(nets) + len(self.source_index)
        self.net_names = nets + [f"<src:{p}>" for p in cell.inputs]

        self.power = self.net_index[cell.power]
        self.ground = self.net_index[cell.ground]
        self.outputs = [self.net_index[o] for o in cell.outputs]
        self.output = self.outputs[0]
        self.pin_nodes: List[int] = [self.net_index[p] for p in cell.inputs]
        self.source_nodes: List[int] = [self.source_index[p] for p in cell.inputs]
        #: nodes with externally fixed voltage (rails + virtual sources)
        self.fixed_nodes: List[int] = [self.power, self.ground] + self.source_nodes

        #: per-transistor on-conductance (independent of any defect)
        self.g_on: Dict[str, float] = {
            t.name: 1.0 / self._ron(t) for t in cell.transistors
        }
        #: resistive driver edges shared by every specialization
        g_drv = 1.0 / driver_resistance
        self.driver_edges: List[Tuple[int, int, float]] = [
            (self.source_index[pin], self.net_index[pin], g_drv)
            for pin in cell.inputs
        ]
        self._device_names: FrozenSet[str] = frozenset(
            t.name for t in cell.transistors
        )
        #: effect signature -> shared :class:`PhaseState`
        self._phase_states: Dict[tuple, PhaseState] = {}

    def effect_signature(self, effect: DefectEffect) -> tuple:
        """Canonical key of the switch graph *effect* builds.

        Two effects with equal signatures produce identical device lists
        and identical (ordered) static-edge lists, hence byte-identical
        solver results.  Bridge order is preserved — not sorted — so even
        the floating-point summation order of a contention solve matches.
        """
        removed = frozenset(effect.removed & self._device_names)
        remaining = self._device_names - removed
        gate_open = frozenset(effect.gate_open & remaining)
        bridges = tuple(
            (self.net_index[a], self.net_index[b], float(r))
            for a, b, r in effect.bridges
            if self.net_index[a] != self.net_index[b]
        )
        return (removed, gate_open, bridges)

    def phase_state(self, effect: DefectEffect) -> PhaseState:
        """Shared :class:`PhaseState` for *effect*'s signature.

        Every simulator built on this topology with a signature-equal
        effect gets the same state, so phases solved under one defect are
        served as cache hits to the next.  The states live as long as
        the topology.
        """
        signature = self.effect_signature(effect)
        state = self._phase_states.get(signature)
        if state is None:
            state = PhaseState()
            self._phase_states[signature] = state
        return state

    def _ron(self, t: Transistor) -> float:
        rsq = self.params.rsq_nmos if t.is_nmos else self.params.rsq_pmos
        return rsq * t.l / t.w

    def graph(self, effect: DefectEffect = GOLDEN) -> "SwitchGraph":
        """Specialize the shared topology for one defect effect."""
        return SwitchGraph(
            self.cell,
            params=self.params,
            effect=effect,
            driver_resistance=self.driver_resistance,
            topology=self,
        )


class SwitchGraph:
    """Indexed switch-level structure for one (cell, defect) pair."""

    def __init__(
        self,
        cell: CellNetlist,
        params: Optional[ElectricalParams] = None,
        effect: DefectEffect = GOLDEN,
        driver_resistance: float = DRIVER_RESISTANCE,
        topology: Optional[CellTopology] = None,
    ):
        if topology is None:
            topology = CellTopology(
                cell, params=params, driver_resistance=driver_resistance
            )
        self.topology = topology
        self.cell = topology.cell
        self.params = topology.params
        self.effect = effect

        self.net_index = topology.net_index
        self.source_index = topology.source_index
        self.n_nodes = topology.n_nodes
        self.net_names = topology.net_names
        self.power = topology.power
        self.ground = topology.ground
        self.outputs = topology.outputs
        self.output = topology.output
        self.pin_nodes = topology.pin_nodes
        self.source_nodes = topology.source_nodes
        self.fixed_nodes = topology.fixed_nodes

        self.devices: List[DeviceRec] = []
        for t in self.cell.transistors:
            if t.name in effect.removed:
                continue
            self.devices.append(
                DeviceRec(
                    index=len(self.devices),
                    name=t.name,
                    is_nmos=t.is_nmos,
                    drain=self.net_index[t.drain],
                    gate=self.net_index[t.gate],
                    source=self.net_index[t.source],
                    g_on=topology.g_on[t.name],
                    gate_open=t.name in effect.gate_open,
                )
            )

        #: always-conducting resistive edges: (node_a, node_b, conductance)
        self.static_edges: List[Tuple[int, int, float]] = list(
            topology.driver_edges
        )
        for net_a, net_b, resistance in effect.bridges:
            a = self.net_index[net_a]
            b = self.net_index[net_b]
            if a != b:
                self.static_edges.append((a, b, 1.0 / resistance))

    def fixed_values(self, input_codes: Sequence[int]) -> Dict[int, int]:
        """Fixed logic values: rails plus the given per-pin codes."""
        if len(input_codes) != len(self.source_nodes):
            raise ValueError(
                f"expected {len(self.source_nodes)} input values, "
                f"got {len(input_codes)}"
            )
        out = {self.power: 1, self.ground: 0}
        for node, code in zip(self.source_nodes, input_codes):
            out[node] = int(code)
        return out
