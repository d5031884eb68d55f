"""Switch-level cell simulation (the SPICE substitute)."""

from repro.simulation.switchgraph import (
    CellTopology,
    DRIVER_RESISTANCE,
    DefectEffect,
    GOLDEN,
    PhaseState,
    SwitchGraph,
)
from repro.simulation.solver import StaticSolver, UnionFind, X
from repro.simulation.packed import PackedRequest, solve_packed
from repro.simulation.trace import Trace, capture, dump_vcd, to_vcd
from repro.simulation.engine import (
    CellSimulator,
    SimulationError,
    golden_simulator,
    logic_check,
    solve_words_across,
)

__all__ = [
    "CellTopology",
    "DefectEffect",
    "GOLDEN",
    "PhaseState",
    "SwitchGraph",
    "DRIVER_RESISTANCE",
    "StaticSolver",
    "UnionFind",
    "X",
    "CellSimulator",
    "PackedRequest",
    "SimulationError",
    "golden_simulator",
    "logic_check",
    "solve_packed",
    "solve_words_across",
    "Trace",
    "capture",
    "to_vcd",
    "dump_vcd",
]
