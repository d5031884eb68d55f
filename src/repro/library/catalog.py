"""Catalog of standard-cell logic functions.

Each entry describes one cell *function* (NAND2, AOI21, ...) independently
of technology: positional input roles, the Boolean function (used by tests
to cross-check the switch-level simulator) and the stage decomposition
given concrete pin names.

The catalog mirrors the composition of an industrial combinational library:
inverters/buffers, NAND/NOR up to 4 inputs, AND/OR, AOI/OAI complex gates,
AO/OA buffered complex gates, XOR/XNOR, multiplexers and a majority gate —
the same function families that populate the paper's 1712-cell dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.library.synth import CellSpec, Leaf, StageSpec, parallel, series
from repro.logic.expr import Expr, parse_expr


@dataclass(frozen=True)
class FunctionDef:
    """One catalog entry."""

    name: str
    n_inputs: int
    #: Boolean expression over positional pins I0, I1, ... (reference model)
    formula: str
    #: builds the stage list from concrete pin names and the output name
    build: Callable[[Sequence[str], str], Tuple[StageSpec, ...]]
    #: rough complexity class, used to spread functions across technologies
    tier: int = 0
    #: secondary outputs for multi-output cells: (port name, formula) pairs;
    #: the builder must emit stages driving nets with those port names
    extra_outputs: Tuple[Tuple[str, str], ...] = ()

    def spec(self, pins: Sequence[str], output: str) -> CellSpec:
        """Instantiate a :class:`CellSpec` with concrete pin names."""
        if len(pins) != self.n_inputs:
            raise ValueError(
                f"{self.name} needs {self.n_inputs} pins, got {len(pins)}"
            )
        return CellSpec(
            function=self.name,
            inputs=tuple(pins),
            output=output,
            stages=self.build(pins, output),
            extra_outputs=tuple(port for port, _f in self.extra_outputs),
        )

    def _substitute(self, text: str, pins: Sequence[str]) -> Expr:
        # Substitute positional placeholders; highest index first so that
        # I10 is not clobbered by I1.
        for i in reversed(range(self.n_inputs)):
            text = text.replace(f"I{i}", pins[i])
        return parse_expr(text)

    def expr(self, pins: Sequence[str]) -> Expr:
        """Reference Boolean expression (primary output)."""
        return self._substitute(self.formula, pins)

    def exprs(self, pins: Sequence[str]) -> Dict[str, Expr]:
        """Reference expressions for every output, keyed by port name."""
        out = {"Z": self.expr(pins)}
        for port, formula in self.extra_outputs:
            out[port] = self._substitute(formula, pins)
        return out


CATALOG: Dict[str, FunctionDef] = {}


def _register(fdef: FunctionDef) -> FunctionDef:
    if fdef.name in CATALOG:
        raise ValueError(f"duplicate catalog entry {fdef.name}")
    CATALOG[fdef.name] = fdef
    return fdef


def get(name: str) -> FunctionDef:
    """Fetch a catalog entry by function name."""
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown cell function {name!r}") from None


def names() -> List[str]:
    """All registered function names, sorted."""
    return sorted(CATALOG)


# ----------------------------------------------------------------------
# Stage builders
# ----------------------------------------------------------------------

def _inv(pins, out):
    return (StageSpec(out=out, pulldown=Leaf(pins[0])),)


def _buf(pins, out):
    mid = "mid"
    return (
        StageSpec(out=mid, pulldown=Leaf(pins[0])),
        StageSpec(out=out, pulldown=Leaf(mid)),
    )


def _nand(pins, out):
    return (StageSpec(out=out, pulldown=series(*map(Leaf, pins))),)


def _nor(pins, out):
    return (StageSpec(out=out, pulldown=parallel(*map(Leaf, pins))),)


def _and(pins, out):
    mid = "mid"
    return (
        StageSpec(out=mid, pulldown=series(*map(Leaf, pins))),
        StageSpec(out=out, pulldown=Leaf(mid)),
    )


def _or(pins, out):
    mid = "mid"
    return (
        StageSpec(out=mid, pulldown=parallel(*map(Leaf, pins))),
        StageSpec(out=out, pulldown=Leaf(mid)),
    )


def _aoi(groups: Sequence[int]):
    """AOI<groups>: NOR of ANDs; e.g. AOI21 -> !((I0&I1) | I2)."""

    def build(pins, out):
        idx = 0
        terms = []
        for g in groups:
            sigs = pins[idx : idx + g]
            idx += g
            terms.append(series(*map(Leaf, sigs)))
        return (StageSpec(out=out, pulldown=parallel(*terms)),)

    return build


def _oai(groups: Sequence[int]):
    """OAI<groups>: NAND of ORs; e.g. OAI21 -> !((I0|I1) & I2)."""

    def build(pins, out):
        idx = 0
        terms = []
        for g in groups:
            sigs = pins[idx : idx + g]
            idx += g
            terms.append(parallel(*map(Leaf, sigs)))
        return (StageSpec(out=out, pulldown=series(*terms)),)

    return build


def _buffered(inner: Callable):
    """Append an output inverter to an inverting gate (AOI -> AO, ...)."""

    def build(pins, out):
        mid = "mid"
        stages = inner(pins, mid)
        return tuple(stages) + (StageSpec(out=out, pulldown=Leaf(mid)),)

    return build


def _xor2(pins, out):
    a, b = pins
    na, nb = "na", "nb"
    return (
        StageSpec(out=na, pulldown=Leaf(a)),
        StageSpec(out=nb, pulldown=Leaf(b)),
        # out = !(a&b | !a&!b) = a xor b
        StageSpec(
            out=out,
            pulldown=parallel(series(Leaf(a), Leaf(b)), series(Leaf(na), Leaf(nb))),
        ),
    )


def _xnor2(pins, out):
    a, b = pins
    na, nb = "na", "nb"
    return (
        StageSpec(out=na, pulldown=Leaf(a)),
        StageSpec(out=nb, pulldown=Leaf(b)),
        # out = !(a&!b | !a&b) = a xnor b
        StageSpec(
            out=out,
            pulldown=parallel(series(Leaf(a), Leaf(nb)), series(Leaf(na), Leaf(b))),
        ),
    )


def _muxi2(pins, out):
    d0, d1, s = pins
    ns = "ns"
    return (
        StageSpec(out=ns, pulldown=Leaf(s)),
        # out = !(d0&!s | d1&s)
        StageSpec(
            out=out,
            pulldown=parallel(series(Leaf(d0), Leaf(ns)), series(Leaf(d1), Leaf(s))),
        ),
    )


def _mux2(pins, out):
    def inner(p, mid_out):
        return _muxi2(p, mid_out)

    return _buffered(inner)(pins, out)


def _maji3(pins, out):
    a, b, c = pins
    return (
        StageSpec(
            out=out,
            pulldown=parallel(
                series(Leaf(a), Leaf(b)),
                series(Leaf(b), Leaf(c)),
                series(Leaf(a), Leaf(c)),
            ),
        ),
    )


def _maj3(pins, out):
    return _buffered(_maji3)(pins, out)


def _b_variant(mode: str):
    """Gates with an inverted first input (the 'B' cells of real libraries):
    an input inverter feeding a NAND ('series') or NOR ('parallel') stage."""

    def build(pins, out):
        inverted = "bn"
        literals = [Leaf(inverted)] + [Leaf(p) for p in pins[1:]]
        network = series(*literals) if mode == "series" else parallel(*literals)
        return (
            StageSpec(out=inverted, pulldown=Leaf(pins[0])),
            StageSpec(out=out, pulldown=network),
        )

    return build


def _b_variant_buffered(mode: str):
    def build(pins, out):
        mid = "mid"
        stages = _b_variant(mode)(pins, mid)
        return tuple(stages) + (StageSpec(out=out, pulldown=Leaf(mid)),)

    return build


def _xor_stage(a: str, na: str, b: str, nb: str, out: str) -> StageSpec:
    """out = a xor b given both polarities of both operands."""
    return StageSpec(
        out=out,
        pulldown=parallel(series(Leaf(a), Leaf(b)), series(Leaf(na), Leaf(nb))),
    )


def _xor3(pins, out):
    a, b, c = pins
    return (
        StageSpec(out="na", pulldown=Leaf(a)),
        StageSpec(out="nb", pulldown=Leaf(b)),
        StageSpec(out="nc", pulldown=Leaf(c)),
        _xor_stage(a, "na", b, "nb", "t"),
        StageSpec(out="nt", pulldown=Leaf("t")),
        _xor_stage("t", "nt", c, "nc", out),
    )


def _xnor3(pins, out):
    a, b, c = pins
    return (
        StageSpec(out="na", pulldown=Leaf(a)),
        StageSpec(out="nb", pulldown=Leaf(b)),
        StageSpec(out="nc", pulldown=Leaf(c)),
        _xor_stage(a, "na", b, "nb", "t"),
        StageSpec(out="nt", pulldown=Leaf("t")),
        # xnor(t, c) = !(t&!c | !t&c)
        StageSpec(
            out=out,
            pulldown=parallel(series(Leaf("t"), Leaf("nc")), series(Leaf("nt"), Leaf(c))),
        ),
    )


def _muxi4(pins, out):
    d0, d1, d2, d3, s0, s1 = pins
    return (
        StageSpec(out="ns0", pulldown=Leaf(s0)),
        StageSpec(out="ns1", pulldown=Leaf(s1)),
        StageSpec(
            out=out,
            pulldown=parallel(
                series(Leaf(d0), Leaf("ns0"), Leaf("ns1")),
                series(Leaf(d1), Leaf(s0), Leaf("ns1")),
                series(Leaf(d2), Leaf("ns0"), Leaf(s1)),
                series(Leaf(d3), Leaf(s0), Leaf(s1)),
            ),
        ),
    )


def _mux4(pins, out):
    return _buffered(_muxi4)(pins, out)


def _cmpx22(pins, out):
    """Two-level compound cell: NAND2 feeding an OAI-style output stage.

    mid = !(I0&I1); out = !(mid & (I2|I3)) = (I0&I1) | (!I2 & !I3).
    """
    a, b, c, d = pins
    mid = "mid"
    return (
        StageSpec(out=mid, pulldown=series(Leaf(a), Leaf(b))),
        StageSpec(out=out, pulldown=series(Leaf(mid), parallel(Leaf(c), Leaf(d)))),
    )


# ----------------------------------------------------------------------
# Catalog entries
# ----------------------------------------------------------------------

_register(FunctionDef("INV", 1, "!I0", _inv, tier=0))
_register(FunctionDef("BUF", 1, "I0", _buf, tier=0))

_register(FunctionDef("NAND2", 2, "!(I0&I1)", _nand, tier=0))
_register(FunctionDef("NAND3", 3, "!(I0&I1&I2)", _nand, tier=0))
_register(FunctionDef("NAND4", 4, "!(I0&I1&I2&I3)", _nand, tier=1))
_register(FunctionDef("NOR2", 2, "!(I0|I1)", _nor, tier=0))
_register(FunctionDef("NOR3", 3, "!(I0|I1|I2)", _nor, tier=0))
_register(FunctionDef("NOR4", 4, "!(I0|I1|I2|I3)", _nor, tier=1))

_register(FunctionDef("AND2", 2, "I0&I1", _and, tier=0))
_register(FunctionDef("AND3", 3, "I0&I1&I2", _and, tier=1))
_register(FunctionDef("AND4", 4, "I0&I1&I2&I3", _and, tier=1))
_register(FunctionDef("OR2", 2, "I0|I1", _or, tier=0))
_register(FunctionDef("OR3", 3, "I0|I1|I2", _or, tier=1))
_register(FunctionDef("OR4", 4, "I0|I1|I2|I3", _or, tier=1))

_register(FunctionDef("AOI21", 3, "!((I0&I1)|I2)", _aoi((2, 1)), tier=1))
_register(FunctionDef("AOI22", 4, "!((I0&I1)|(I2&I3))", _aoi((2, 2)), tier=1))
_register(FunctionDef("AOI211", 4, "!((I0&I1)|I2|I3)", _aoi((2, 1, 1)), tier=1))
_register(FunctionDef("AOI221", 5, "!((I0&I1)|(I2&I3)|I4)", _aoi((2, 2, 1)), tier=2))
_register(FunctionDef("AOI222", 6, "!((I0&I1)|(I2&I3)|(I4&I5))", _aoi((2, 2, 2)), tier=2))
_register(FunctionDef("AOI31", 4, "!((I0&I1&I2)|I3)", _aoi((3, 1)), tier=1))
_register(FunctionDef("AOI32", 5, "!((I0&I1&I2)|(I3&I4))", _aoi((3, 2)), tier=2))
_register(FunctionDef("AOI33", 6, "!((I0&I1&I2)|(I3&I4&I5))", _aoi((3, 3)), tier=2))

_register(FunctionDef("OAI21", 3, "!((I0|I1)&I2)", _oai((2, 1)), tier=1))
_register(FunctionDef("OAI22", 4, "!((I0|I1)&(I2|I3))", _oai((2, 2)), tier=1))
_register(FunctionDef("OAI211", 4, "!((I0|I1)&I2&I3)", _oai((2, 1, 1)), tier=1))
_register(FunctionDef("OAI221", 5, "!((I0|I1)&(I2|I3)&I4)", _oai((2, 2, 1)), tier=2))
_register(FunctionDef("OAI222", 6, "!((I0|I1)&(I2|I3)&(I4|I5))", _oai((2, 2, 2)), tier=2))
_register(FunctionDef("OAI31", 4, "!((I0|I1|I2)&I3)", _oai((3, 1)), tier=1))
_register(FunctionDef("OAI32", 5, "!((I0|I1|I2)&(I3|I4))", _oai((3, 2)), tier=2))
_register(FunctionDef("OAI33", 6, "!((I0|I1|I2)&(I3|I4|I5))", _oai((3, 3)), tier=2))

_register(FunctionDef("AO21", 3, "(I0&I1)|I2", _buffered(_aoi((2, 1))), tier=1))
_register(FunctionDef("AO22", 4, "(I0&I1)|(I2&I3)", _buffered(_aoi((2, 2))), tier=1))
_register(FunctionDef("OA21", 3, "(I0|I1)&I2", _buffered(_oai((2, 1))), tier=1))
_register(FunctionDef("OA22", 4, "(I0|I1)&(I2|I3)", _buffered(_oai((2, 2))), tier=1))
_register(FunctionDef("AO211", 4, "(I0&I1)|I2|I3", _buffered(_aoi((2, 1, 1))), tier=2))
_register(FunctionDef("OA211", 4, "(I0|I1)&I2&I3", _buffered(_oai((2, 1, 1))), tier=2))
_register(FunctionDef("AO221", 5, "(I0&I1)|(I2&I3)|I4", _buffered(_aoi((2, 2, 1))), tier=2))
_register(FunctionDef("OA221", 5, "(I0|I1)&(I2|I3)&I4", _buffered(_oai((2, 2, 1))), tier=2))

_register(FunctionDef("XOR2", 2, "I0^I1", _xor2, tier=1))
_register(FunctionDef("XNOR2", 2, "!(I0^I1)", _xnor2, tier=1))
_register(FunctionDef("MUXI2", 3, "!((I0&!I2)|(I1&I2))", _muxi2, tier=1))
_register(FunctionDef("MUX2", 3, "(I0&!I2)|(I1&I2)", _mux2, tier=2))
_register(FunctionDef("MAJI3", 3, "!((I0&I1)|(I1&I2)|(I0&I2))", _maji3, tier=1))
_register(FunctionDef("MAJ3", 3, "(I0&I1)|(I1&I2)|(I0&I2)", _maj3, tier=2))
_register(
    FunctionDef("CMPX22", 4, "(I0&I1)|(!I2&!I3)", _cmpx22, tier=2)
)

# 'B' variants (inverted first input) and wider compound cells — these
# populate the technology-exclusive sets that drive the paper's
# cross-technology accuracy differences (Section V.B).
_register(FunctionDef("NAND2B", 2, "!(!I0&I1)", _b_variant("series"), tier=1))
_register(FunctionDef("NOR2B", 2, "!(!I0|I1)", _b_variant("parallel"), tier=1))
_register(FunctionDef("NAND3B", 3, "!(!I0&I1&I2)", _b_variant("series"), tier=1))
_register(FunctionDef("NOR3B", 3, "!(!I0|I1|I2)", _b_variant("parallel"), tier=1))
_register(FunctionDef("AND2B", 2, "!I0&I1", _b_variant_buffered("series"), tier=1))
_register(FunctionDef("OR2B", 2, "!I0|I1", _b_variant_buffered("parallel"), tier=1))
_register(FunctionDef("XOR3", 3, "I0^I1^I2", _xor3, tier=2))
_register(FunctionDef("XNOR3", 3, "!(I0^I1^I2)", _xnor3, tier=2))
_register(
    FunctionDef(
        "MUXI4",
        6,
        "!((I0&!I4&!I5)|(I1&I4&!I5)|(I2&!I4&I5)|(I3&I4&I5))",
        _muxi4,
        tier=2,
    )
)
_register(
    FunctionDef(
        "MUX4",
        6,
        "(I0&!I4&!I5)|(I1&I4&!I5)|(I2&!I4&I5)|(I3&I4&I5)",
        _mux4,
        tier=2,
    )
)
def _half_adder(pins, out):
    a, b = pins
    return (
        StageSpec(out="na", pulldown=Leaf(a)),
        StageSpec(out="nb", pulldown=Leaf(b)),
        _xor_stage(a, "na", b, "nb", out),          # sum
        StageSpec(out="nco", pulldown=series(Leaf(a), Leaf(b))),
        StageSpec(out="CO", pulldown=Leaf("nco")),  # carry = A&B
    )


def _full_adder(pins, out):
    a, b, c = pins
    return (
        StageSpec(out="na", pulldown=Leaf(a)),
        StageSpec(out="nb", pulldown=Leaf(b)),
        StageSpec(out="nc", pulldown=Leaf(c)),
        _xor_stage(a, "na", b, "nb", "t"),
        StageSpec(out="nt", pulldown=Leaf("t")),
        _xor_stage("t", "nt", c, "nc", out),        # sum
        StageSpec(
            out="nco",
            pulldown=parallel(
                series(Leaf(a), Leaf(b)),
                series(Leaf(b), Leaf(c)),
                series(Leaf(a), Leaf(c)),
            ),
        ),
        StageSpec(out="CO", pulldown=Leaf("nco")),  # carry = MAJ(A,B,C)
    )


_register(
    FunctionDef(
        "HA1", 2, "I0^I1", _half_adder, tier=2,
        extra_outputs=(("CO", "I0&I1"),),
    )
)
_register(
    FunctionDef(
        "FA1", 3, "I0^I1^I2", _full_adder, tier=2,
        extra_outputs=(("CO", "(I0&I1)|(I1&I2)|(I0&I2)"),),
    )
)

_register(FunctionDef("AO31", 4, "(I0&I1&I2)|I3", _buffered(_aoi((3, 1))), tier=2))
_register(FunctionDef("OA31", 4, "(I0|I1|I2)&I3", _buffered(_oai((3, 1))), tier=2))
_register(FunctionDef("AOI311", 5, "!((I0&I1&I2)|I3|I4)", _aoi((3, 1, 1)), tier=2))
_register(FunctionDef("OAI311", 5, "!((I0|I1|I2)&I3&I4)", _oai((3, 1, 1)), tier=2))
