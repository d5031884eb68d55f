"""Cell-internal defect models (Section IV of the paper).

Two families are enumerated:

* **Intra-transistor defects** — opens on one terminal (D/G/S/B) and shorts
  between a pair of terminals of the same device.
* **Inter-transistor defects** — shorts between two nets of the cell.  The
  paper notes its matrix representation covers them but does not evaluate
  them; this reproduction implements them and keeps them out of the default
  universe, matching the paper.

Every defect can be lowered to a
:class:`~repro.simulation.switchgraph.DefectEffect` for simulation and to a
set of affected (transistor, terminal) pairs for the CA-matrix defect
columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.simulation.switchgraph import DefectEffect
from repro.spice.netlist import TERMINALS, CellNetlist

OPEN = "open"
SHORT = "short"
INTER_SHORT = "inter_short"


@dataclass(frozen=True)
class Defect:
    """One potential cell-internal defect.

    ``location`` is interpreted per *kind*:

    * ``open`` — ``(transistor_name, terminal)``
    * ``short`` — ``(transistor_name, terminal_a, terminal_b)``
    * ``inter_short`` — ``(net_a, net_b)``
    """

    name: str
    kind: str
    location: Tuple[str, ...]

    def __post_init__(self) -> None:
        expected = {OPEN: 2, SHORT: 3, INTER_SHORT: 2}
        if self.kind not in expected:
            raise ValueError(f"unknown defect kind {self.kind!r}")
        if len(self.location) != expected[self.kind]:
            raise ValueError(
                f"{self.kind} defect needs {expected[self.kind]} location "
                f"fields, got {self.location}"
            )

    # ------------------------------------------------------------------
    @property
    def is_open(self) -> bool:
        return self.kind == OPEN

    def describe(self) -> str:
        """Human-readable one-liner."""
        if self.kind == OPEN:
            t, term = self.location
            return f"{self.name}: open on {t}.{term}"
        if self.kind == SHORT:
            t, a, b = self.location
            return f"{self.name}: short {t}.{a}-{t}.{b}"
        a, b = self.location
        return f"{self.name}: short net {a} - net {b}"

    # ------------------------------------------------------------------
    def affected_terminals(self, cell: CellNetlist) -> FrozenSet[Tuple[str, str]]:
        """(transistor, terminal) pairs marked '1' in the defect columns.

        For an inter-transistor short, every terminal attached to either
        shorted net is marked, which is how Table III of the paper encodes
        its "net0 & P0-source short" example.
        """
        if self.kind == OPEN:
            t, term = self.location
            return frozenset({(t, term)})
        if self.kind == SHORT:
            t, a, b = self.location
            return frozenset({(t, a), (t, b)})
        net_a, net_b = self.location
        marked = set()
        for t in cell.transistors:
            for term in TERMINALS:
                if t.terminal(term) in (net_a, net_b):
                    marked.add((t.name, term))
        return frozenset(marked)

    # ------------------------------------------------------------------
    def effect(self, cell: CellNetlist, short_resistance: float) -> DefectEffect:
        """Lower the defect to a simulatable graph modification."""
        if self.kind == OPEN:
            t_name, term = self.location
            cell.transistor(t_name)  # validate existence
            if term in ("D", "S"):
                return DefectEffect(removed=frozenset({t_name}))
            if term == "G":
                return DefectEffect(gate_open=frozenset({t_name}))
            # Bulk open: marginal body-bias effect only -> logically benign.
            return DefectEffect(benign=True)
        if self.kind == SHORT:
            t_name, a, b = self.location
            t = cell.transistor(t_name)
            net_a, net_b = t.terminal(a), t.terminal(b)
            if net_a == net_b:
                return DefectEffect(benign=True)
            return DefectEffect(bridges=((net_a, net_b, short_resistance),))
        net_a, net_b = self.location
        if net_a == net_b:
            return DefectEffect(benign=True)
        return DefectEffect(bridges=((net_a, net_b, short_resistance),))
