"""repro.obs — run-scoped tracing, metrics, and structured event logging.

Dependency-free instrumentation substrate for the whole repo:

* :mod:`repro.obs.trace` — nested spans with a context-manager API,
  serializable to JSONL and Chrome-trace JSON; the service coordinator
  merges its workers' span buffers into its own tracer, so a
  multi-process run yields one coherent trace.
* :mod:`repro.obs.metrics` — named counters / gauges / histograms with
  cheap in-process increments and child-process delta merging.
  :class:`~repro.camodel.stats.GenerationStats` is a view over this
  registry.
* :mod:`repro.obs.events` — structured events with pluggable sinks
  (stderr text, JSONL file, silent).

Metric/event namespaces: ``camodel.*`` (generation cost accounting),
``cache.*`` / ``hybrid.*`` (flow layers), and ``resilience.*`` —
retries, timeouts, quarantines and resume reuse counted by the
run-directory coordinator (:mod:`repro.service.coordinator`), which
merges each worker's counters through :meth:`Metrics.merge_counters`
exactly once per completed cell.

State model: one process-wide :class:`ObsState` (tracer + metrics +
event log), read through :func:`tracer` / :func:`metrics` /
:func:`events`.  Tracing is **off by default** (the null tracer adds no
measurable overhead, see ``benchmarks/test_bench_obs.py``); a CLI run
installs a real one via :func:`session`, and each service worker
attempt installs a fresh scope via :func:`scoped` so forked copies of
the parent state are never written to.

Typical embedding::

    from repro import obs

    with obs.session(trace_path="run.json", verbosity=1) as state:
        generate_ca_model(cell)
    # run.json now holds the Chrome-trace timeline of the run
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.obs.events import (
    Event,
    EventLog,
    JsonlSink,
    LEVELS,
    ListSink,
    NullSink,
    TeeSink,
    TextSink,
)
from repro.obs.metrics import Metrics
from repro.obs.trace import (
    E_ORPHAN_SPANS,
    NULL_SPAN,
    Span,
    Tracer,
    chrome_payload,
    orphan_parents,
)

__all__ = [
    "E_ORPHAN_SPANS",
    "Event",
    "EventLog",
    "JsonlSink",
    "LEVELS",
    "ListSink",
    "Metrics",
    "NULL_SPAN",
    "NullSink",
    "ObsState",
    "Span",
    "TeeSink",
    "TextSink",
    "Tracer",
    "chrome_payload",
    "configure",
    "events",
    "metrics",
    "min_level_for",
    "orphan_parents",
    "scoped",
    "session",
    "tracer",
]


class ObsState:
    """One process-wide instrumentation scope."""

    __slots__ = ("tracer", "metrics", "events")

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[Metrics] = None,
        events: Optional[EventLog] = None,
    ):
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.metrics = metrics if metrics is not None else Metrics()
        self.events = events if events is not None else EventLog()


_state = ObsState()


def tracer() -> Tracer:
    """The active tracer (disabled null tracer by default)."""
    return _state.tracer


def metrics() -> Metrics:
    """The active metrics registry."""
    return _state.metrics


def events() -> EventLog:
    """The active event log."""
    return _state.events


def configure(state: ObsState) -> ObsState:
    """Install *state* globally; returns the previous state."""
    global _state
    previous = _state
    _state = state
    return previous


@contextmanager
def scoped(
    tracer: Optional[Tracer] = None,
    metrics: Optional[Metrics] = None,
    events: Optional[EventLog] = None,
) -> Iterator[ObsState]:
    """Temporarily swap (parts of) the global scope; restores on exit.

    Pool workers use this with a fresh tracer/metrics so the state forked
    from the parent is never mutated; tests use it for isolation.
    """
    state = ObsState(
        tracer if tracer is not None else _state.tracer,
        metrics if metrics is not None else _state.metrics,
        events if events is not None else _state.events,
    )
    previous = configure(state)
    try:
        yield state
    finally:
        configure(previous)


def min_level_for(verbosity: int) -> str:
    """Map a CLI verbosity (-1 = quiet .. 2 = -vv) to an event level."""
    if verbosity <= -1:
        return "error"
    if verbosity == 0:
        return "warning"
    if verbosity == 1:
        return "info"
    return "debug"


@contextmanager
def session(
    trace_path: Optional[Union[str, Path]] = None,
    log_json: Optional[Union[str, Path]] = None,
    verbosity: int = 0,
    root: Optional[str] = "run",
    trace_enabled: Optional[bool] = None,
    **root_attrs,
) -> Iterator[ObsState]:
    """One observed run: fresh tracer + metrics + sinks, torn down cleanly.

    * ``trace_path`` enables tracing and, on exit, writes the merged span
      buffer there (Chrome-trace JSON, or JSONL when the name ends in
      ``.jsonl``).  ``trace_enabled=True`` enables tracing without a file
      (spans stay readable on the yielded state — used by tests).
    * ``log_json`` appends every event to a JSONL file, regardless of the
      console verbosity.
    * ``verbosity`` filters the stderr text sink
      (:func:`min_level_for`: -1 quiet, 0 default, 1 ``-v``, 2 ``-vv``).
    * ``root`` opens a run-scoped root span every other span nests under.
    """
    enabled = bool(trace_path) if trace_enabled is None else trace_enabled
    run_tracer = Tracer(enabled=enabled)
    sinks = [TextSink(min_level=min_level_for(verbosity))]
    if log_json:
        sinks.append(JsonlSink(log_json))
    log = EventLog(TeeSink(sinks) if len(sinks) > 1 else sinks[0])
    state = ObsState(run_tracer, Metrics(), log)
    previous = configure(state)
    root_span = run_tracer.span(root, **root_attrs) if root else None
    if root_span is not None:
        root_span.__enter__()
    try:
        yield state
    finally:
        if root_span is not None:
            root_span.__exit__(None, None, None)
        configure(previous)
        log.close()
        if trace_path:
            run_tracer.write(trace_path)
