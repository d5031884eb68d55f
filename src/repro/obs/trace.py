"""Run-scoped tracing: nested spans, JSONL and Chrome-trace export.

A :class:`Tracer` produces :class:`Span` records — name, attributes,
wall-clock start, duration, parent — through a context-manager API::

    with tracer.span("camodel.generate", cell="NAND2") as sp:
        ...
        sp.set("defects", 40)

Nesting is tracked per tracer (the active-span stack), so spans opened
inside a ``with`` block parent automatically.  A disabled tracer hands out
a shared no-op span, which keeps the instrumented hot paths free of
measurable overhead when tracing is off (the default).

Cross-process merging: service workers run their own tracer, export
the finished spans as plain dicts, and the coordinator re-parents them
under the span that owned the fan-out (:meth:`Tracer.absorb`).  Span ids embed the
producing PID, so ids never collide across workers, and span start times
are wall-clock (``time.time``), so one merged timeline stays coherent.

Export formats:

* :meth:`Tracer.export` / :meth:`Tracer.write_jsonl` — one span dict per
  line, stable keys, diff-friendly.
* :meth:`Tracer.chrome_payload` / :meth:`Tracer.write_chrome` — the Chrome
  trace-viewer JSON (load in ``chrome://tracing`` or https://ui.perfetto.dev);
  each worker process shows as its own track.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

#: Event emitted when :meth:`Tracer.absorb` detects incoming spans whose
#: parents exist in neither the absorbed buffer nor this tracer.
E_ORPHAN_SPANS = "trace.orphan_spans"


class _NullSpan:
    """Shared no-op span handed out by a disabled tracer."""

    __slots__ = ()

    name = None
    span_id = None
    parent_id = None
    start = 0.0
    duration = 0.0
    attrs: Dict[str, object] = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, key: str, value: object) -> None:
        return None


NULL_SPAN = _NullSpan()


class Span:
    """One finished (or in-flight) trace span.

    Also its own context manager: entering records start time and parent,
    exiting records the duration and files the span with its tracer.
    """

    __slots__ = ("name", "span_id", "parent_id", "start", "duration",
                 "attrs", "pid", "_tracer", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]):
        self.name = name
        self.attrs = attrs
        self.pid = os.getpid()
        self.span_id = f"{self.pid}-{next(tracer._ids)}"
        self.parent_id: Optional[str] = None
        self.start = 0.0
        self.duration = 0.0
        self._tracer = tracer
        self._t0 = 0.0

    def set(self, key: str, value: object) -> None:
        """Attach (or overwrite) one attribute."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer._stack:
            self.parent_id = tracer._stack[-1]
        tracer._stack.append(self.span_id)
        self.start = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.duration = time.perf_counter() - self._t0
        tracer = self._tracer
        if tracer._stack and tracer._stack[-1] == self.span_id:
            tracer._stack.pop()
        tracer._spans.append(self.to_dict())
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "pid": self.pid,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Collects spans for one run (or one worker process).

    ``enabled=False`` (the default state installed at import time) makes
    :meth:`span` return the shared :data:`NULL_SPAN`; no allocation, no
    clock reads, no buffering.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._spans: List[Dict[str, object]] = []
        self._stack: List[str] = []
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> Union[Span, _NullSpan]:
        """Open a span; use as a context manager."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, attrs)

    # ------------------------------------------------------------------
    def export(self) -> List[Dict[str, object]]:
        """Finished spans as plain dicts (what crosses a worker pipe)."""
        return list(self._spans)

    def mark(self) -> int:
        """Position in the span buffer, for later :meth:`export_since`."""
        return len(self._spans)

    def export_since(self, mark: int) -> List[Dict[str, object]]:
        """Spans finished after :meth:`mark` was taken."""
        return list(self._spans[mark:])

    def absorb(
        self,
        spans: Iterable[Dict[str, object]],
        parent_id: Optional[str] = None,
    ) -> None:
        """Merge spans exported by another tracer (typically a service worker).

        Worker-side root spans (``parent_id is None``) are re-parented
        under *parent_id*, so a multi-process run yields one tree; ids embed
        the worker PID and never collide with local ones.  Incoming spans
        whose parents exist in neither the absorbed buffer nor this
        tracer would silently break the tree, so they raise a
        ``trace.orphan_spans`` warning event instead.
        """
        incoming = [dict(span) for span in spans]
        if not incoming:
            return
        known = {record["span_id"] for record in incoming}
        known.update(span["span_id"] for span in self._spans)
        known.update(self._stack)
        if parent_id is not None:
            known.add(parent_id)
        orphans = sorted(
            {
                str(record["parent_id"])
                for record in incoming
                if record.get("parent_id") is not None
                and record["parent_id"] not in known
            }
        )
        if orphans:
            from repro import obs  # local import: obs package imports us

            obs.events().warning(
                E_ORPHAN_SPANS,
                orphans=orphans,
                spans=len(incoming),
                parent_id=parent_id,
            )
        for record in incoming:
            if record.get("parent_id") is None and parent_id is not None:
                record["parent_id"] = parent_id
            self._spans.append(record)

    # ------------------------------------------------------------------
    def write_jsonl(self, path: Union[str, Path]) -> None:
        """One span dict per line."""
        lines = [json.dumps(span, sort_keys=True) for span in self._spans]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))

    def chrome_payload(self) -> Dict[str, object]:
        """Chrome trace-viewer JSON object (``traceEvents`` format)."""
        return chrome_payload(self._spans, main_pid=os.getpid())

    def write_chrome(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.chrome_payload()))

    def write(self, path: Union[str, Path]) -> None:
        """Write by extension: ``.jsonl`` spans, anything else Chrome JSON."""
        if str(path).endswith(".jsonl"):
            self.write_jsonl(path)
        else:
            self.write_chrome(path)


def chrome_payload(
    spans: Sequence[Dict[str, object]],
    main_pid: Optional[int] = None,
) -> Dict[str, object]:
    """Chrome trace-viewer JSON for a span list (``traceEvents`` format).

    *main_pid* names which process track is labelled ``main`` — the live
    tracer passes its own PID; the run-directory store passes the PID
    recorded in the session shard, so offline merges label processes the
    way the run saw them.  The canonical span list rides along under the
    ``reproSpans`` key (trace viewers ignore unknown keys), which is what
    makes an exported trace load back losslessly.
    """
    events: List[Dict[str, object]] = []
    pids: List[int] = []
    for span in spans:
        if span["pid"] not in pids:
            pids.append(span["pid"])  # type: ignore[arg-type]
        args = dict(span["attrs"])  # type: ignore[call-overload]
        args["span_id"] = span["span_id"]
        if span["parent_id"] is not None:
            args["parent_id"] = span["parent_id"]
        events.append(
            {
                "name": span["name"],
                "ph": "X",
                "ts": span["start"] * 1e6,  # type: ignore[operator]
                "dur": span["duration"] * 1e6,  # type: ignore[operator]
                "pid": span["pid"],
                "tid": span["pid"],
                "cat": str(span["name"]).split(".", 1)[0],
                "args": args,
            }
        )
    if main_pid is None:
        main_pid = os.getpid()
    for pid in pids:
        label = "main" if pid == main_pid else f"worker {pid}"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": pid,
                "args": {"name": label},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "reproSpans": [dict(span) for span in spans],
    }


def orphan_parents(spans: Sequence[Dict[str, object]]) -> List[str]:
    """Parent ids referenced by *spans* but not present — [] for a good merge."""
    ids = {span["span_id"] for span in spans}
    return sorted(
        {
            str(span["parent_id"])
            for span in spans
            if span["parent_id"] is not None and span["parent_id"] not in ids
        }
    )
