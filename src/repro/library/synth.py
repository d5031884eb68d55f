"""Transistor-level synthesis of static CMOS standard cells.

The paper's method consumes transistor netlists of real standard cells.
Those libraries are proprietary, so this module *builds* cells: a cell is a
chain of complementary CMOS stages, each stage specified by a
series-parallel (SP) expression describing its pull-down network.  The
pull-up network is derived as the SP dual, which is exactly how static CMOS
gates are designed.

The SP expression type defined here is also reused by
:mod:`repro.camatrix.branches` as the branch-equation representation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.spice.netlist import NMOS, PMOS, CellNetlist, Transistor, bulk_rail


# ----------------------------------------------------------------------
# Series-parallel expressions
# ----------------------------------------------------------------------

class SP:
    """A series-parallel network expression whose leaves are signal names."""

    def leaves(self) -> List[str]:
        raise NotImplementedError

    def n_devices(self) -> int:
        return len(self.leaves())

    def dual(self) -> "SP":
        """Swap series and parallel composition (pull-up from pull-down)."""
        raise NotImplementedError

    def render(self, leaf: Callable[[str], str]) -> str:
        """Render the expression with *leaf* applied to every leaf name."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.render(lambda name: name)

    def __and__(self, other: "SP") -> "SP":
        return Series(self, other)

    def __or__(self, other: "SP") -> "SP":
        return Parallel(self, other)


@dataclass(frozen=True)
class Leaf(SP):
    """A single transistor controlled by signal *signal*."""

    signal: str

    def leaves(self) -> List[str]:
        return [self.signal]

    def dual(self) -> "SP":
        return Leaf(self.signal)

    def render(self, leaf: Callable[[str], str]) -> str:
        return leaf(self.signal)


class _Group(SP):
    symbol = "?"

    def __init__(self, *children: SP):
        if len(children) < 2:
            raise ValueError("SP group needs at least two children")
        self.children: Tuple[SP, ...] = tuple(children)

    def leaves(self) -> List[str]:
        out: List[str] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def render(self, leaf: Callable[[str], str]) -> str:
        inner = self.symbol.join(
            child.render(leaf) if isinstance(child, Leaf) else f"({child.render(leaf)})"
            for child in self.children
        )
        return inner

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.children == other.children  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.children))


class Series(_Group):
    """Transistors (or groups) in series: conducts when all conduct."""

    symbol = "&"

    def dual(self) -> "SP":
        return Parallel(*(c.dual() for c in self.children))


class Parallel(_Group):
    """Transistors (or groups) in parallel: conducts when any conducts."""

    symbol = "|"

    def dual(self) -> "SP":
        return Series(*(c.dual() for c in self.children))


def series(*items: SP) -> SP:
    """n-ary series composition (flattening single items)."""
    return items[0] if len(items) == 1 else Series(*items)


def parallel(*items: SP) -> SP:
    """n-ary parallel composition (flattening single items)."""
    return items[0] if len(items) == 1 else Parallel(*items)


def sp_from_signals(signals: Sequence[str], mode: str) -> SP:
    """All signals in series (``mode='series'``) or parallel."""
    leaves = [Leaf(s) for s in signals]
    if len(leaves) == 1:
        return leaves[0]
    return Series(*leaves) if mode == "series" else Parallel(*leaves)


# ----------------------------------------------------------------------
# Stage and cell specifications
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class StageSpec:
    """One complementary CMOS stage.

    The stage drives *out* with the complement of its pull-down condition:
    ``out = NOT(pulldown)``.  The pull-up network defaults to the SP dual of
    *pulldown* but may be given explicitly (drive-strength variants widen
    both networks independently).  Leaves name either cell inputs or the
    outputs of earlier stages.
    """

    out: str
    pulldown: SP
    pullup: Optional[SP] = None

    @property
    def pullup_network(self) -> SP:
        return self.pullup if self.pullup is not None else self.pulldown.dual()

    @property
    def n_transistors(self) -> int:
        return self.pulldown.n_devices() + self.pullup_network.n_devices()


@dataclass(frozen=True)
class CellSpec:
    """A complete cell: ordered stages plus port declarations.

    Multi-output cells (adders, dual-polarity gates) list their secondary
    outputs in *extra_outputs*; each must be driven by some stage.
    """

    function: str
    inputs: Tuple[str, ...]
    output: str
    stages: Tuple[StageSpec, ...]
    extra_outputs: Tuple[str, ...] = ()

    @property
    def outputs(self) -> Tuple[str, ...]:
        return (self.output,) + self.extra_outputs

    @property
    def n_transistors(self) -> int:
        return sum(stage.n_transistors for stage in self.stages)


class _NetAllocator:
    """Allocates internal net names in a technology-specific style."""

    def __init__(self, style: str = "net{}", start: int = 0):
        self.style = style
        self.counter = itertools.count(start)

    def new(self) -> str:
        return self.style.format(next(self.counter))


def _emit_network(
    sp: SP,
    top: str,
    bottom: str,
    ttype: str,
    devices: List[Tuple[str, str, str, str]],
    alloc: _NetAllocator,
) -> None:
    """Emit transistors realizing *sp* between nets *top* and *bottom*.

    Each emitted tuple is ``(ttype, drain, gate, source)``; naming/sizing is
    applied later by the builder.  Drain is placed on the *top* (output-side)
    net, source on the *bottom* (rail-side) net, matching standard cell
    layout conventions.
    """
    if isinstance(sp, Leaf):
        devices.append((ttype, top, sp.signal, bottom))
    elif isinstance(sp, Parallel):
        for child in sp.children:
            _emit_network(child, top, bottom, ttype, devices, alloc)
    elif isinstance(sp, Series):
        nets = [top] + [alloc.new() for _ in sp.children[:-1]] + [bottom]
        for child, (a, b) in zip(sp.children, zip(nets, nets[1:])):
            _emit_network(child, a, b, ttype, devices, alloc)
    else:  # pragma: no cover - defensive
        raise TypeError(f"not an SP node: {sp!r}")


@dataclass
class SynthesisOptions:
    """Knobs controlling how a :class:`CellSpec` becomes a netlist."""

    power: str = "VDD"
    ground: str = "VSS"
    net_style: str = "net{}"
    device_name_style: str = "M{}"
    nmos_model: str = "nmos"
    pmos_model: str = "pmos"
    wn: float = 1.0
    wp: float = 2.0
    length: float = 0.1
    #: multiply device width by this per extra series device in its network
    stack_upsize: float = 0.0
    #: permutation seed; devices are emitted in a deterministic shuffled
    #: order so that every library orders "the same" cell differently
    shuffle_seed: Optional[int] = None


def synthesize(spec: CellSpec, name: str, options: Optional[SynthesisOptions] = None) -> CellNetlist:
    """Build a transistor netlist realizing *spec*."""
    opt = options or SynthesisOptions()
    alloc = _NetAllocator(opt.net_style)

    raw: List[Tuple[str, str, str, str]] = []
    for stage in spec.stages:
        _emit_network(stage.pulldown, stage.out, opt.ground, NMOS, raw, alloc)
        _emit_network(stage.pullup_network, stage.out, opt.power, PMOS, raw, alloc)

    order = list(range(len(raw)))
    if opt.shuffle_seed is not None:
        order = _deterministic_shuffle(order, opt.shuffle_seed)

    transistors: List[Transistor] = []
    for new_index, raw_index in enumerate(order):
        ttype, drain, gate, source = raw[raw_index]
        base_w = opt.wn if ttype == NMOS else opt.wp
        w = base_w * (1.0 + opt.stack_upsize)
        transistors.append(
            Transistor(
                name=opt.device_name_style.format(new_index),
                ttype=ttype,
                drain=drain,
                gate=gate,
                source=source,
                bulk=bulk_rail(ttype, opt.power, opt.ground),
                w=w,
                l=opt.length,
                model=opt.nmos_model if ttype == NMOS else opt.pmos_model,
            )
        )

    return CellNetlist(
        name=name,
        inputs=list(spec.inputs),
        outputs=list(spec.outputs),
        transistors=transistors,
        power=opt.power,
        ground=opt.ground,
        function=spec.function,
    )


def _max_stack(sp: SP) -> int:
    if isinstance(sp, Leaf):
        return 1
    if isinstance(sp, Series):
        return sum(_max_stack(c) for c in sp.children)
    return max(_max_stack(c) for c in sp.children)


def _deterministic_shuffle(items: List[int], seed: int) -> List[int]:
    """A reproducible pseudo-shuffle independent of Python's PRNG state."""
    keyed = sorted(items, key=lambda i: ((i * 2654435761 + seed * 40503) & 0xFFFFFFFF))
    return keyed


# ----------------------------------------------------------------------
# Drive-strength transforms (Fig. 6 of the paper)
# ----------------------------------------------------------------------

def widen_spec(spec: CellSpec, drive: int, style: str) -> CellSpec:
    """Return a higher-drive variant of *spec*.

    ``style='merged'`` parallels each *transistor* individually, so series
    stacks share their intermediate nets (the "red net" of Fig. 6 present).
    ``style='split'`` parallels each whole *network*, duplicating the
    intermediate nets (red net absent).  Both have identical logic function
    and ``drive ×`` the device count — the structural equivalence the
    paper's hybrid flow exploits.
    """
    if drive < 1:
        raise ValueError("drive must be >= 1")
    if drive == 1:
        return spec
    if style == "merged":
        def transform(sp: SP) -> SP:
            return _merge_widen(sp, drive)
    elif style == "split":
        def transform(sp: SP) -> SP:
            return parallel(*[sp for _ in range(drive)])
    else:
        raise ValueError(f"unknown drive style {style!r}")
    stages = tuple(
        StageSpec(
            out=s.out,
            pulldown=transform(s.pulldown),
            pullup=transform(s.pullup_network),
        )
        for s in spec.stages
    )
    return CellSpec(
        function=spec.function,
        inputs=spec.inputs,
        output=spec.output,
        stages=stages,
        extra_outputs=spec.extra_outputs,
    )


def _merge_widen(sp: SP, drive: int) -> SP:
    if isinstance(sp, Leaf):
        return parallel(*[Leaf(sp.signal) for _ in range(drive)])
    if isinstance(sp, Series):
        return Series(*(_merge_widen(c, drive) for c in sp.children))
    if isinstance(sp, Parallel):
        return Parallel(*(_merge_widen(c, drive) for c in sp.children))
    raise TypeError(f"not an SP node: {sp!r}")  # pragma: no cover
