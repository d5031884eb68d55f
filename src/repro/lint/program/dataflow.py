"""Forward taint analysis with per-function summaries, to a fixpoint.

Taint kinds:

``wallclock``
    values derived from ``time.time()`` / ``datetime.now()`` et al.,
``rng``
    values derived from module-global RNG / OS entropy,
``iterorder``
    values whose *order* depends on set/dict-iteration or directory
    listing order,
``artifactpath``
    values derived from ``artifact_path(...)`` (the RPL104 protocol
    tracker, not a nondeterminism kind).

A function's parameters carry symbolic markers (``P:<name>``) so one
pass yields both concrete flows *and* the transfer summary a caller
needs: which params reach the return value, and which params reach a
sink (with the call chain as a witness).  The engine iterates the whole
program until no summary changes — the lattice is finite and all
transfer functions are monotone, so this terminates; in practice a few
passes suffice because the call graph is shallow.

Everything here is resolution-driven: a call either resolves to a
project function (apply its summary), to an external dotted name
(match against source/sanitizer/sink tables), or is unknown
(conservative argument pass-through).
"""

from __future__ import annotations

from fnmatch import fnmatch
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.lint.config import LintConfig
from repro.lint.program.graph import Project, Resolution
from repro.lint.rules.determinism import _GLOBAL_RNG, _WALLCLOCK

REAL_KINDS = frozenset({"wallclock", "rng", "iterorder", "artifactpath"})
_NONDET = frozenset({"wallclock", "rng", "iterorder"})

WALLCLOCK_SOURCES = frozenset(_WALLCLOCK)
RNG_SOURCES = frozenset(_GLOBAL_RNG) | frozenset(
    {"os.urandom", "uuid.uuid4", "uuid.uuid1", "secrets.token_hex",
     "secrets.token_bytes"}
)
ITERORDER_SOURCES = frozenset(
    {"os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob"}
)
#: unresolved-method attrs that list a directory in arbitrary order
ITERORDER_METHODS = frozenset({"iterdir", "glob", "rglob", "scandir"})
#: builtins whose result does not carry its inputs' taint at all
FULL_SANITIZERS = frozenset({"len", "bool", "isinstance", "hasattr", "id"})
#: order-insensitive reductions: clear iteration-order taint only
ORDER_SANITIZERS = frozenset({"sorted", "min", "max", "sum", "any", "all"})
#: write-ish leaf names that act as RPL104 artifact-path write sinks
WRITE_SINK_LEAVES = frozenset(
    {"write_text_atomic", "write_text", "write_bytes", "save_model",
     "save_models"}
)

_CHAIN_CAP = 6


def _match_any(name: str, patterns: Tuple[str, ...]) -> bool:
    return any(fnmatch(name, pat) for pat in patterns)


class Roles:
    """Precompiled semantic-role tables from the LintConfig."""

    def __init__(self, config: LintConfig):
        self.hash_sinks = config.taint_hash_sinks
        self.commit_sinks = config.canonical_commit_sinks
        self.sanitizers = config.taint_sanitizers
        self.telemetry_sinks = config.telemetry_writer_sinks

    def is_sanitizer(self, name: Optional[str]) -> bool:
        return bool(name) and _match_any(name, self.sanitizers)

    def hash_sink(self, name: Optional[str]) -> bool:
        return bool(name) and _match_any(name, self.hash_sinks)

    def commit_sink(self, name: Optional[str]) -> bool:
        return bool(name) and _match_any(name, self.commit_sinks)

    def telemetry_sink(self, name: Optional[str]) -> bool:
        return bool(name) and _match_any(name, self.telemetry_sinks)


class Summary:
    """One function's transfer summary (value-compared for the fixpoint)."""

    __slots__ = (
        "returns",
        "param_returns",
        "param_sinks",
        "sink_hits",
        "raw_reach",
        "telemetry_reach",
    )

    def __init__(self) -> None:
        #: real kinds the return value may carry
        self.returns: FrozenSet[str] = frozenset()
        #: param names whose taint reaches the return value
        self.param_returns: FrozenSet[str] = frozenset()
        #: param name -> {(sink_label, chain)} reached by that param
        self.param_sinks: Dict[str, FrozenSet[Tuple[str, Tuple[str, ...]]]] = {}
        #: local flows of a real kind into a sink:
        #: {(kind, sink_label, line, col, chain)}
        self.sink_hits: FrozenSet[Tuple[str, str, int, int, Tuple[str, ...]]] = (
            frozenset()
        )
        #: terminal raw-write site ("display:line desc") -> witness chain
        self.raw_reach: Dict[str, Tuple[str, ...]] = {}
        #: witness chain to a telemetry-shard writer, if reachable
        self.telemetry_reach: Optional[Tuple[str, ...]] = None

    def state(self) -> Tuple[Any, ...]:
        return (
            self.returns,
            self.param_returns,
            tuple(sorted((k, v) for k, v in self.param_sinks.items())),
            self.sink_hits,
            tuple(sorted(self.raw_reach.items())),
            self.telemetry_reach,
        )


class Analysis:
    """Fixpoint result: summaries plus per-function resolution tables."""

    def __init__(self, project: Project, config: LintConfig):
        self.project = project
        self.config = config
        self.roles = Roles(config)
        #: (display, qual) -> Summary
        self.summaries: Dict[Tuple[str, str], Summary] = {}
        #: (display, qual) -> {call_index: Resolution}
        self.resolutions: Dict[Tuple[str, str], Dict[int, Resolution]] = {}
        #: (display, qual) -> inferred var types
        self.var_types: Dict[Tuple[str, str], Dict[str, Tuple[str, str]]] = {}

    def summary(self, display: str, qual: str) -> Summary:
        return self.summaries.get((display, qual), Summary())


def _better_chain(
    old: Optional[Tuple[str, ...]], new: Tuple[str, ...]
) -> Tuple[str, ...]:
    """Deterministic chain choice: shortest wins, ties lexicographic."""
    if old is None:
        return new
    if (len(new), new) < (len(old), old):
        return new
    return old


def _bind_args(
    callee_fn: Dict[str, Any],
    call: Dict[str, Any],
    taint_of: Dict[str, FrozenSet[str]],
    receiver_binds: bool,
) -> List[Tuple[str, FrozenSet[str]]]:
    """Map this call's argument taints onto the callee's param names."""
    params: List[str] = list(callee_fn.get("params", ()))
    out: List[Tuple[str, FrozenSet[str]]] = []

    def taints(nodes: List[str]) -> FrozenSet[str]:
        acc: FrozenSet[str] = frozenset()
        for node in nodes:
            acc |= taint_of.get(node, frozenset())
        return acc

    offset = 0
    if params and params[0] in ("self", "cls"):
        offset = 1
        if receiver_binds:
            recv_nodes = call["callee"].get("receiver") or []
            out.append((params[0], taints(recv_nodes)))
    for i, arg_nodes in enumerate(call["args"]):
        if offset + i < len(params):
            out.append((params[offset + i], taints(arg_nodes)))
    for kwname, nodes in call["kwargs"].items():
        if kwname in params:
            out.append((kwname, taints(nodes)))
    return [(p, t) for p, t in out if t]


def _analyze_function(
    display: str,
    qual: str,
    fn: Dict[str, Any],
    res_map: Dict[int, Resolution],
    analysis: Analysis,
) -> Summary:
    project = analysis.project
    roles = analysis.roles
    summary = Summary()
    taint: Dict[str, FrozenSet[str]] = {}
    for param in fn.get("params", ()):
        taint[f"p:{param}"] = frozenset({f"P:{param}"})
    for kind, node, _line, _col, _desc in fn.get("sources", ()):
        taint[node] = taint.get(node, frozenset()) | {kind}

    for line, col, desc in fn.get("raw_writes", ()):
        site = f"{display}:{line} {desc}"
        summary.raw_reach[site] = (site,)

    param_sinks: Dict[str, set] = {}
    sink_hits: set = set()

    def record_sink(
        label: str,
        kinds_wanted: FrozenSet[str],
        arg_taint: FrozenSet[str],
        line: int,
        col: int,
        chain: Tuple[str, ...],
    ) -> None:
        for t in arg_taint:
            if t.startswith("P:"):
                entry = (label, chain)
                bucket = param_sinks.setdefault(t[2:], set())
                if len(bucket) < 8:
                    bucket.add(entry)
            elif t in kinds_wanted:
                if len(sink_hits) < 64:
                    sink_hits.add((t, label, line, col + 1, chain))

    for _ in range(12):
        changed = False

        for call in fn.get("calls", ()):
            index = call["index"]
            res = res_map.get(index, Resolution("unknown"))
            node = f"c:{index}"
            arg_union: FrozenSet[str] = frozenset()
            for nodes in call["args"]:
                for dep in nodes:
                    arg_union |= taint.get(dep, frozenset())
            for nodes in call["kwargs"].values():
                for dep in nodes:
                    arg_union |= taint.get(dep, frozenset())
            recv_union: FrozenSet[str] = frozenset()
            for dep in call["callee"].get("receiver") or []:
                recv_union |= taint.get(dep, frozenset())
            everything = arg_union | recv_union
            name = res.name or ""
            leaf = name.rsplit(".", 1)[-1]
            frame = f"{display}:{call['line']} {qual or '<module>'}"
            result: FrozenSet[str] = frozenset()

            if roles.is_sanitizer(name):
                result = frozenset()
            elif res.kind == "external":
                if name in WALLCLOCK_SOURCES:
                    result = frozenset({"wallclock"})
                elif name in RNG_SOURCES:
                    result = frozenset({"rng"})
                elif name in ITERORDER_SOURCES or name == "set":
                    result = everything | {"iterorder"}
                elif name in FULL_SANITIZERS:
                    result = frozenset()
                elif name in ORDER_SANITIZERS:
                    result = everything - {"iterorder"}
                elif leaf == "artifact_path":
                    result = frozenset({"artifactpath"})
                else:
                    result = everything
            elif res.kind == "project":
                callee_fn = project.function(res.ref) if res.ref else None
                callee_sum = (
                    analysis.summaries.get(res.ref.key) if res.ref else None
                )
                if leaf == "artifact_path":
                    result = frozenset({"artifactpath"})
                elif callee_fn is None or callee_sum is None:
                    result = everything
                else:
                    result = frozenset(callee_sum.returns)
                    receiver_binds = call["callee"]["kind"] in (
                        "method",
                        "self_method",
                    )
                    for pname, ptaint in _bind_args(
                        callee_fn, call, taint, receiver_binds
                    ):
                        if pname in callee_sum.param_returns:
                            result |= ptaint
                        for label, chain in callee_sum.param_sinks.get(
                            pname, ()
                        ):
                            if len(chain) >= _CHAIN_CAP:
                                continue
                            wanted = (
                                frozenset({"artifactpath"})
                                if label.startswith("write:")
                                else _NONDET
                            )
                            record_sink(
                                label,
                                wanted,
                                ptaint,
                                call["line"],
                                call["col"],
                                (frame,) + chain,
                            )
                    for site, chain in callee_sum.raw_reach.items():
                        if len(chain) >= _CHAIN_CAP:
                            continue
                        summary.raw_reach[site] = _better_chain(
                            summary.raw_reach.get(site), (frame,) + chain
                        )
                    if callee_sum.telemetry_reach is not None and len(
                        callee_sum.telemetry_reach
                    ) < _CHAIN_CAP:
                        summary.telemetry_reach = _better_chain(
                            summary.telemetry_reach,
                            (frame,) + callee_sum.telemetry_reach,
                        )
            else:  # unknown
                attr = call["callee"].get("attr") or ""
                if attr in ITERORDER_METHODS:
                    result = everything | {"iterorder"}
                elif attr == "artifact_path" or leaf == "artifact_path":
                    result = frozenset({"artifactpath"})
                else:
                    result = everything

            # sinks: both direct (real kind) and symbolic (param marker)
            if roles.hash_sink(name):
                record_sink(
                    f"hash:{name}", _NONDET, everything,
                    call["line"], call["col"], (frame,),
                )
            elif roles.commit_sink(name):
                record_sink(
                    f"commit:{leaf}", _NONDET, everything,
                    call["line"], call["col"], (frame,),
                )
            if leaf in WRITE_SINK_LEAVES or (
                call["callee"].get("attr") in WRITE_SINK_LEAVES
            ):
                record_sink(
                    f"write:{leaf if leaf in WRITE_SINK_LEAVES else call['callee'].get('attr')}",
                    frozenset({"artifactpath"}),
                    everything,
                    call["line"],
                    call["col"],
                    (frame,),
                )
            if roles.telemetry_sink(name) or (
                f"*.{call['callee'].get('attr')}" in analysis.roles.telemetry_sinks
            ):
                summary.telemetry_reach = _better_chain(
                    summary.telemetry_reach, (frame,)
                )

            if result - taint.get(node, frozenset()):
                taint[node] = taint.get(node, frozenset()) | result
                changed = True

        for src, dst in fn.get("edges", ()):
            extra = taint.get(src, frozenset()) - taint.get(dst, frozenset())
            if extra:
                taint[dst] = taint.get(dst, frozenset()) | extra
                changed = True

        if not changed:
            break

    ret = taint.get("ret", frozenset())
    summary.returns = frozenset(t for t in ret if t in REAL_KINDS)
    summary.param_returns = frozenset(
        t[2:] for t in ret if t.startswith("P:")
    )
    summary.param_sinks = {
        p: frozenset(entries) for p, entries in param_sinks.items()
    }
    summary.sink_hits = frozenset(sink_hits)
    return summary


def analyze_project(project: Project, config: LintConfig) -> Analysis:
    """Resolve every call, then iterate summaries to a fixpoint."""
    analysis = Analysis(project, config)
    work: List[Tuple[str, str, Dict[str, Any]]] = []
    for display, qual, fn in project.iter_functions():
        key = (display, qual)
        types = project.infer_var_types(display, fn)
        analysis.var_types[key] = types
        res_map: Dict[int, Resolution] = {}
        for call in fn.get("calls", ()):
            res_map[call["index"]] = project.resolve_call(
                display, fn, call, types
            )
        analysis.resolutions[key] = res_map
        analysis.summaries[key] = Summary()
        work.append((display, qual, fn))

    for _ in range(20):
        changed = False
        for display, qual, fn in work:
            key = (display, qual)
            new = _analyze_function(
                display, qual, fn, analysis.resolutions[key], analysis
            )
            if new.state() != analysis.summaries[key].state():
                analysis.summaries[key] = new
                changed = True
        if not changed:
            break
    return analysis
