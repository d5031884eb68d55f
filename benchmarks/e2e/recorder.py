"""Benchmark-side span recorder for the end-to-end benchmark's traced run.

The recorder never touches ``src/``: for the traced run it replaces each
layer's public entry points *at the module attribute where the caller
looks them up* (a class attribute for methods) with a wrapper that
records one span per call, and restores the originals afterwards.  The
untraced, timed runs therefore execute the program exactly as shipped.

A span is a dict ``{id, parent, name, start, end, run, attrs}``; spans
are kept in memory and written out when the benchmark ends.  A layer's
self time is its spans' duration minus the part of each span's interval
that its children cover (:func:`self_times`).
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Span = Dict[str, Any]
#: extracts span attributes from (call args, call kwargs, return value)
AttrFn = Callable[[tuple, dict, Any], Dict[str, Any]]


def _cell_of_first_arg(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"cell": args[0].name}


def _rows_of_result(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"cell": args[0].name, "rows": int(result.n_rows)}


def _fit_rows(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"rows": int(len(args[2]))}  # (self, X, y)


def _predict_rows(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"rows": int(len(args[1]))}  # (self, X)


def _stacked_group(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"group": str(args[0][0].group_key)}


#: (module, attribute path, layer, span attributes) of every patched
#: entry point.  The span name is the attribute path; the layer decides
#: where its self time is charged.  Functions imported with ``from x import f`` are
#: patched in each importing module, because that is where callers look
#: them up.
TARGETS: Tuple[Tuple[str, str, str, Optional[AttrFn]], ...] = (
    ("repro.camodel.throughput", "solve_words_across", "simulation", None),
    ("repro.camodel.generate", "solve_words_across", "simulation", None),
    ("repro.simulation.engine", "CellSimulator.solve_words", "simulation", None),
    ("repro.simulation.engine", "CellSimulator.net_waveforms", "simulation", None),
    ("repro.simulation.engine", "CellSimulator.output_response", "simulation", None),
    (
        "repro.simulation.engine",
        "CellSimulator.output_drive_resistance",
        "simulation",
        None,
    ),
    ("repro.camodel.throughput", "default_universe", "defects", None),
    ("repro.camodel.generate", "default_universe", "defects", None),
    ("repro.camatrix.matrix", "default_universe", "defects", None),
    ("repro.camodel.throughput", "run_throughput", "camodel", None),
    ("repro.flow.hybrid", "generate_ca_model", "camodel", _cell_of_first_arg),
    ("repro.flow.hybrid", "rename_transistors", "camatrix.rename", _cell_of_first_arg),
    ("repro.flow.hybrid", "build_matrix", "camatrix.build", _rows_of_result),
    ("repro.camatrix.pipeline", "training_matrix", "camatrix.feedback", _rows_of_result),
    ("repro.learning.forest", "RandomForestClassifier.fit", "learning.fit", _fit_rows),
    (
        "repro.learning.forest",
        "RandomForestClassifier.predict",
        "learning.predict",
        _predict_rows,
    ),
    ("repro.flow.hybrid", "stack_group", "learning.stack", _stacked_group),
    ("repro.flow.hybrid", "HybridFlow.run", "flow", None),
    ("repro.flow.structure", "StructuralIndex.match", "flow.match", None),
)

#: layer of the spans the benchmark opens around its own calls
CALL_SITE_LAYERS = {
    "iteration": "unattributed",
    "generate_library": "camodel",
    "submit_library": "service.submit",
    "serve": "service.serve",
}

LAYER_OF: Dict[str, str] = dict(CALL_SITE_LAYERS)
LAYER_OF.update({path: layer for _module, path, layer, _attrs in TARGETS})

#: spans whose self time is a patched function's own work.  The call-site
#: spans and ``HybridFlow.run`` are left out: their self time is whatever
#: no target below them covers, so counting it would hide a missing target.
RESOLVED = frozenset(path for _module, path, _layer, _attrs in TARGETS) - {"HybridFlow.run"}


class Recorder:
    """Collects spans of one traced run in memory."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def _open(self, name: str) -> Span:
        span: Span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "run": self.run_id,
            "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: Span) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record one span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn: Callable, name: str, attrs: Optional[AttrFn]) -> Callable:
        """*fn* with every call recorded as a span named *name*."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span["attrs"].update(attrs(args, kwargs, result))
            return result

        return traced


def _owner_and_attr(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def originals() -> Dict[Tuple[str, str], Any]:
    """The currently installed object of every target."""
    out = {}
    for module, path, _layer, _attrs in TARGETS:
        owner, attr = _owner_and_attr(module, path)
        out[(module, path)] = vars(owner)[attr]
    return out


@contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Patch every target with *recorder*'s wrapper; always restore."""
    patched: List[Tuple[Any, str, Any]] = []
    try:
        for module, path, _layer, attrs in TARGETS:
            owner, attr = _owner_and_attr(module, path)
            original = vars(owner)[attr]
            patched.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, path, attrs))
        yield recorder
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

def covered_length(start: float, end: float, intervals: List[Tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of *intervals*."""
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals if min(end, b) > max(start, a)
    )
    total = 0.0
    cursor = start
    for a, b in clipped:
        a = max(a, cursor)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span: duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - covered_length(span["start"], span["end"], children.get(span["id"], []))
        for span in spans
    }


def layer_self_seconds(spans: List[Span]) -> Dict[str, float]:
    """Self seconds summed per layer (unknown span names are an error)."""
    names = {span["id"]: span["name"] for span in spans}
    out: Dict[str, float] = {}
    for span_id, seconds in self_times(spans).items():
        layer = LAYER_OF[names[span_id]]
        out[layer] = out.get(layer, 0.0) + seconds
    return out


def resolved_seconds(spans: List[Span]) -> float:
    """Self seconds of the :data:`RESOLVED` spans."""
    times = self_times(spans)
    return sum(times[span["id"]] for span in spans if span["name"] in RESOLVED)
