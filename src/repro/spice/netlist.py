"""Transistor-level netlist object model.

This is the common in-memory representation every other subsystem works on.
A :class:`CellNetlist` is what the paper calls the "SPICE netlist
representation of a standard cell" (Fig. 1): a flat list of MOS transistors
connected by named nets, with declared input/output ports and power/ground
rails.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Set, Tuple

NMOS = "nmos"
PMOS = "pmos"

#: Order of the terminal fields on a transistor; also the order in which the
#: CA-matrix lists defect columns (Section IV of the paper).
TERMINALS = ("D", "G", "S", "B")


class NetlistError(ValueError):
    """Raised for structurally invalid netlists."""


@dataclass(frozen=True)
class Transistor:
    """A single MOS device.

    Terminal order follows SPICE M-card convention: drain, gate, source,
    bulk.  ``w`` and ``l`` are in micrometres; ``model`` is the foundry
    device-model name as it appeared in the source netlist.
    """

    name: str
    ttype: str
    drain: str
    gate: str
    source: str
    bulk: str
    w: float = 1.0
    l: float = 0.1
    model: str = ""

    def __post_init__(self) -> None:
        if self.ttype not in (NMOS, PMOS):
            raise NetlistError(f"bad transistor type {self.ttype!r} on {self.name}")
        if self.w <= 0 or self.l <= 0:
            raise NetlistError(f"non-positive geometry on {self.name}")

    @property
    def is_nmos(self) -> bool:
        return self.ttype == NMOS

    @property
    def is_pmos(self) -> bool:
        return self.ttype == PMOS

    def terminal(self, which: str) -> str:
        """Net attached to terminal ``'D' | 'G' | 'S' | 'B'``."""
        try:
            return {"D": self.drain, "G": self.gate, "S": self.source, "B": self.bulk}[which]
        except KeyError:
            raise NetlistError(f"unknown terminal {which!r}") from None

    def channel_nets(self) -> Tuple[str, str]:
        """The (drain, source) pair — the conduction channel endpoints."""
        return (self.drain, self.source)

    def renamed(self, new_name: str) -> "Transistor":
        """A copy of this device under another name."""
        return replace(self, name=new_name)


@dataclass
class CellNetlist:
    """A standard cell as a flat transistor netlist.

    Parameters
    ----------
    name:
        Cell name, e.g. ``"ND2X1"``.
    inputs / outputs:
        Ordered logical port lists.  Multi-output cells are supported by the
        data model; the generation flow currently characterizes one output
        at a time.
    power / ground:
        Rail net names (``VDD``/``VSS`` by default, but dialects differ).
    transistors:
        The devices.  Names must be unique.
    """

    name: str
    inputs: List[str]
    outputs: List[str]
    transistors: List[Transistor] = field(default_factory=list)
    power: str = "VDD"
    ground: str = "VSS"
    function: str = ""
    technology: str = ""

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def rails(self) -> Tuple[str, str]:
        return (self.power, self.ground)

    def nets(self) -> Set[str]:
        """All nets referenced anywhere in the cell."""
        out: Set[str] = {self.power, self.ground}
        out.update(self.inputs)
        out.update(self.outputs)
        for t in self.transistors:
            out.update((t.drain, t.gate, t.source, t.bulk))
        return out

    def internal_nets(self) -> Set[str]:
        """Nets that are neither ports nor rails."""
        return self.nets() - set(self.inputs) - set(self.outputs) - set(self.rails)

    def transistor(self, name: str) -> Transistor:
        """Look a device up by name."""
        for t in self.transistors:
            if t.name == name:
                return t
        raise NetlistError(f"no transistor named {name!r} in cell {self.name}")

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    @property
    def n_transistors(self) -> int:
        return len(self.transistors)

    @property
    def group_key(self) -> Tuple[int, int]:
        """The (number of inputs, number of transistors) grouping key the
        paper uses to pool training cells (Section II.B)."""
        return (self.n_inputs, self.n_transistors)

    def gate_loads(self, net: str) -> List[Transistor]:
        """Devices whose gate is driven by *net*."""
        return [t for t in self.transistors if t.gate == net]

    def channel_neighbors(self, net: str) -> List[Transistor]:
        """Devices with *net* on their drain or source."""
        return [t for t in self.transistors if net in t.channel_nets()]

    # ------------------------------------------------------------------
    # Validation / transforms
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`NetlistError` on structural problems."""
        if not self.name:
            raise NetlistError("cell has no name")
        if not self.outputs:
            raise NetlistError(f"cell {self.name} has no output")
        seen: Set[str] = set()
        for t in self.transistors:
            if t.name in seen:
                raise NetlistError(f"duplicate transistor name {t.name!r} in {self.name}")
            seen.add(t.name)
        overlap = set(self.inputs) & set(self.outputs)
        if overlap:
            raise NetlistError(f"ports {sorted(overlap)} are both input and output")
        if self.power == self.ground:
            raise NetlistError("power and ground rails must differ")

    def with_transistors(self, transistors: Iterable[Transistor]) -> "CellNetlist":
        """A shallow copy with a different device list."""
        return CellNetlist(
            name=self.name,
            inputs=list(self.inputs),
            outputs=list(self.outputs),
            transistors=list(transistors),
            power=self.power,
            ground=self.ground,
            function=self.function,
            technology=self.technology,
        )

    def renamed_nets(self, mapping: Dict[str, str]) -> "CellNetlist":
        """A copy with nets renamed according to *mapping* (identity for
        unmapped nets)."""

        def m(net: str) -> str:
            return mapping.get(net, net)

        devices = [
            Transistor(
                name=t.name,
                ttype=t.ttype,
                drain=m(t.drain),
                gate=m(t.gate),
                source=m(t.source),
                bulk=m(t.bulk),
                w=t.w,
                l=t.l,
                model=t.model,
            )
            for t in self.transistors
        ]
        return CellNetlist(
            name=self.name,
            inputs=[m(n) for n in self.inputs],
            outputs=[m(n) for n in self.outputs],
            transistors=devices,
            power=m(self.power),
            ground=m(self.ground),
            function=self.function,
            technology=self.technology,
        )

    def check_connected(self) -> List[str]:
        """Return a list of human-readable connectivity warnings.

        An empty list means every input drives at least one gate, every
        output is reachable from a channel, and no device floats.
        """
        warnings: List[str] = []
        gate_nets = {t.gate for t in self.transistors}
        channel_nets: Set[str] = set()
        for t in self.transistors:
            channel_nets.update(t.channel_nets())
        for pin in self.inputs:
            if pin not in gate_nets and pin not in channel_nets:
                warnings.append(f"input {pin} drives nothing")
        for pin in self.outputs:
            if pin not in channel_nets:
                warnings.append(f"output {pin} is not driven by any channel")
        return warnings


def bulk_rail(ttype: str, power: str = "VDD", ground: str = "VSS") -> str:
    """Conventional bulk connection: NMOS to ground, PMOS to power."""
    return ground if ttype == NMOS else power
