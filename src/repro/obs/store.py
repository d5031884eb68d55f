"""Durable run-directory telemetry: per-attempt shards + merged reader.

The in-process :mod:`repro.obs` state (tracer / metrics / events)
evaporates when a worker exits, so a finished library run used to leave
no queryable record of where its time went.  This module makes the
``run_dir`` of a service run (:func:`repro.service.serve`) an
*observability* substrate as well as a coordination one::

    run-dir/
      obs/
        <cell>-<key>.a<NNN>.json   # one shard per worker attempt
        session-<NNN>.json         # one shard per coordinator session
        worker-<owner>.json        # one shard per worker process

Attempt shards are **content-keyed consistent with the ledger**: the
``<key>`` is the same :func:`repro.resilience.ledger.content_key` the
artifact uses, and ``<NNN>`` is the *lifetime* attempt index the ledger
hands out (it persists across resumed sessions), so a killed-and-resumed
run can never collide with — or double-write — a shard a previous
session already produced.  Every shard is written atomically
(:func:`repro.atomic.write_text_atomic`), so a SIGKILL mid-write never
leaves a torn shard.

An attempt shard carries everything one worker attempt observed: its
span buffer, metric counters, buffered events, wall-clock window and
outcome; the coordinator writes the shard of an attempt that died
before writing its own.  A session shard carries the coordinator side:
its spans of that session, coordinator-only counters (worker counters
are excluded — the ledger is their single source of truth, merged
exactly once per ``done`` cell), and its event stream.  The
coordinator always writes shards: the next attempt index of a cell is
numbered from them.

:class:`RunTelemetry` is the merged read side: it joins the ledger with
every shard into one run view — winning attempts per done cell, a
whole-run multi-process span list, and counter reconciliation against
:meth:`~repro.resilience.ledger.RunLedger.metrics_total`.  Chrome-trace
export embeds the canonical span list under the ``reproSpans`` key
(viewers ignore unknown keys), which is what makes ``export → load →
re-export`` byte-identical: microsecond float conversion never has to
round-trip.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.atomic import write_text_atomic
from repro.obs.trace import chrome_payload

OBS_FORMAT = 1

# obs metric/event names (registered in repro.lint.catalog)
M_SHARDS_WRITTEN = "obs.shards_written"
M_SHARDS_READ = "obs.shards_read"
E_SHARD_CORRUPT = "obs.shard_corrupt"

#: outcome values an attempt shard may carry (``ok`` plus the failure
#: kinds the coordinator classifies)
OUTCOMES = ("ok", "exception", "crash", "timeout", "corrupt-artifact")


def _shard_json(payload: Mapping[str, object]) -> str:
    """The one serialization of every file this module writes."""
    return json.dumps(payload, sort_keys=True, default=str)


def attempt_shard_name(cell: str, key: str, attempt: int) -> str:
    """Shard filename for one (cell, content key, lifetime attempt)."""
    return f"{cell}-{key}.a{attempt:03d}.json"


def write_attempt_shard(
    path: Union[str, Path],
    *,
    cell: str,
    key: str,
    attempt: int,
    outcome: str,
    pid: int,
    started: float,
    seconds: float,
    counters: Mapping[str, float],
    spans: Sequence[Mapping[str, object]],
    events: Sequence[Mapping[str, object]],
    error: Optional[str] = None,
) -> Path:
    """Atomically persist one attempt's telemetry (worker or coordinator side)."""
    path = Path(path)
    shard = {
        "format": OBS_FORMAT,
        "kind": "attempt",
        "cell": cell,
        "key": key,
        "attempt": int(attempt),
        "outcome": outcome,
        "pid": int(pid),
        "started": float(started),
        "seconds": float(seconds),
        "counters": dict(counters),
        "spans": [dict(span) for span in spans],
        "events": [dict(event) for event in events],
        "error": error,
    }
    write_text_atomic(path, _shard_json(shard))
    from repro import obs

    obs.metrics().inc(M_SHARDS_WRITTEN)
    return path


def write_worker_shard(
    path: Union[str, Path],
    *,
    owner: str,
    pid: int,
    started: float,
    seconds: float,
    cells: Sequence[str],
    counters: Mapping[str, float],
    spans: Sequence[Mapping[str, object]],
    events: Sequence[Mapping[str, object]],
) -> Path:
    """Atomically persist one service worker's lifetime telemetry.

    A worker shard is the service-mode sibling of a session shard: one
    per :func:`repro.service.worker.worker_loop` process, carrying the
    worker's process-level counters (lease traffic, cells committed —
    attempt-scoped generation counters flow through the sidecars and the
    ledger instead) and its buffered
    event stream, so ``python -m repro inspect RUN_DIR workers`` can
    reconstruct who did what after every process is gone.
    """
    path = Path(path)
    shard = {
        "format": OBS_FORMAT,
        "kind": "worker",
        "owner": owner,
        "pid": int(pid),
        "started": float(started),
        "seconds": float(seconds),
        "cells": list(cells),
        "counters": dict(counters),
        "spans": [dict(span) for span in spans],
        "events": [dict(event) for event in events],
    }
    write_text_atomic(path, _shard_json(shard))
    from repro import obs

    obs.metrics().inc(M_SHARDS_WRITTEN)
    return path


class ObsStore:
    """Writer-side handle on a run directory's ``obs/`` shard store."""

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.run_dir = Path(run_dir)
        self.obs_dir = self.run_dir / "obs"
        self.obs_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def attempt_shard_path(self, cell: str, key: str, attempt: int) -> Path:
        return self.obs_dir / attempt_shard_name(cell, key, attempt)

    def has_attempt(self, cell: str, key: str, attempt: int) -> bool:
        return self.attempt_shard_path(cell, key, attempt).exists()

    def worker_shard_path(self, owner: str) -> Path:
        """Shard path for one service worker's lifetime telemetry.

        Owner ids are pid-derived (unique per worker process per run),
        so the path never collides and a scan is race-free.
        """
        return self.obs_dir / f"worker-{owner}.json"

    # ------------------------------------------------------------------
    def next_session_path(self) -> Path:
        """Allocate the next ``session-<NNN>.json`` path.

        Only the single parent process of a session allocates, so a scan
        is race-free; resumed sessions of one run dir number onward.
        """
        taken = []
        for existing in self.obs_dir.glob("session-*.json"):
            stem = existing.stem.rpartition("-")[2]
            if stem.isdigit():
                taken.append(int(stem))
        return self.obs_dir / f"session-{(max(taken) + 1 if taken else 0):03d}.json"

    def write_session(
        self,
        *,
        pid: int,
        started: float,
        seconds: float,
        root_span_id: Optional[str],
        counters: Mapping[str, float],
        spans: Sequence[Mapping[str, object]],
        events: Sequence[Mapping[str, object]],
    ) -> Path:
        """Atomically persist one parent session's telemetry.

        *counters* must be parent-only (the caller subtracts the worker
        counters it merged); worker numbers live in the ledger and the
        attempt shards, and the reader treats the ledger as their single
        source of truth.
        """
        path = self.next_session_path()
        shard = {
            "format": OBS_FORMAT,
            "kind": "session",
            "session": path.stem,
            "pid": int(pid),
            "started": float(started),
            "seconds": float(seconds),
            "root_span_id": root_span_id,
            "counters": dict(counters),
            "spans": [dict(span) for span in spans],
            "events": [dict(event) for event in events],
        }
        write_text_atomic(path, _shard_json(shard))
        from repro import obs

        obs.metrics().inc(M_SHARDS_WRITTEN)
        return path


# ----------------------------------------------------------------------
# Read side
# ----------------------------------------------------------------------

class RunTelemetry:
    """Merged view over a run directory's ledger + telemetry shards."""

    def __init__(
        self,
        run_dir: Path,
        ledger,
        attempts: List[Dict[str, object]],
        sessions: List[Dict[str, object]],
        workers: Optional[List[Dict[str, object]]] = None,
    ) -> None:
        self.run_dir = run_dir
        self.ledger = ledger
        #: every attempt shard, sorted by (cell, attempt)
        self.attempts = attempts
        #: every session shard, sorted by start time
        self.sessions = sessions
        #: every service worker shard, sorted by start time
        self.workers = workers if workers is not None else []

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, run_dir: Union[str, Path]) -> "RunTelemetry":
        """Read the ledger and every shard; corrupt shards are reported
        (``obs.shard_corrupt`` event) and skipped, never fatal."""
        from repro import obs
        from repro.resilience.ledger import RunLedger

        run_dir = Path(run_dir)
        ledger = RunLedger.load(run_dir)
        attempts: List[Dict[str, object]] = []
        sessions: List[Dict[str, object]] = []
        workers: List[Dict[str, object]] = []
        obs_dir = run_dir / "obs"
        shard_paths = sorted(obs_dir.glob("*.json")) if obs_dir.is_dir() else []
        for path in shard_paths:
            try:
                data = json.loads(path.read_text())
            except (ValueError, OSError) as exc:
                obs.events().warning(
                    E_SHARD_CORRUPT,
                    path=str(path),
                    kind=type(exc).__name__,
                    error=str(exc),
                    msg=f"unreadable telemetry shard {path}; skipping it",
                )
                continue
            if data.get("format") != OBS_FORMAT or "kind" not in data:
                obs.events().warning(
                    E_SHARD_CORRUPT,
                    path=str(path),
                    kind="format",
                    error=str(data.get("format")),
                    msg=f"unsupported telemetry shard format in {path}",
                )
                continue
            if data["kind"] == "attempt":
                attempts.append(data)
            elif data["kind"] == "session":
                sessions.append(data)
            elif data["kind"] == "worker":
                workers.append(data)
        attempts.sort(key=lambda a: (str(a["cell"]), int(a["attempt"])))
        sessions.sort(key=lambda s: float(s["started"]))
        workers.sort(key=lambda w: (float(w["started"]), str(w["owner"])))
        obs.metrics().inc(
            M_SHARDS_READ, len(attempts) + len(sessions) + len(workers)
        )
        return cls(run_dir, ledger, attempts, sessions, workers)

    # ------------------------------------------------------------------
    def attempts_for(self, cell: str) -> List[Dict[str, object]]:
        return [a for a in self.attempts if a["cell"] == cell]

    def winning_attempts(self) -> Dict[str, Dict[str, object]]:
        """The ``ok`` shard that produced each done cell's artifact.

        Matched on the cell's *current* content key (a resumed run with a
        changed cell re-keys, orphaning old shards) and, among matching
        ``ok`` shards, the highest lifetime attempt wins.
        """
        from repro.resilience.ledger import DONE

        out: Dict[str, Dict[str, object]] = {}
        for name, record in self.ledger.cells.items():
            if record["state"] != DONE:
                continue
            matching = [
                a
                for a in self.attempts
                if a["cell"] == name
                and a["key"] == record["key"]
                and a["outcome"] == "ok"
            ]
            if matching:
                out[name] = max(matching, key=lambda a: int(a["attempt"]))
        return out

    def failed_attempts(self) -> List[Dict[str, object]]:
        return [a for a in self.attempts if a["outcome"] != "ok"]

    # ------------------------------------------------------------------
    def main_pid(self) -> Optional[int]:
        """PID of the most recent parent session (the trace's ``main``)."""
        if not self.sessions:
            return None
        return int(self.sessions[-1]["pid"])

    def merged_spans(self) -> List[Dict[str, object]]:
        """One whole-run span list across every process and session.

        Sessions contribute their parent-process spans; winning and
        failed attempts contribute worker spans (a failed worker's
        partial spans are part of what the run paid for).  Superseded
        ``ok`` shards of re-keyed cells are excluded.  Deterministic
        order: (start, span_id).
        """
        spans: List[Dict[str, object]] = []
        for session in self.sessions:
            spans.extend(session.get("spans", []))
        winning = self.winning_attempts()
        winning_paths = {id(shard) for shard in winning.values()}
        for shard in self.attempts:
            if shard["outcome"] != "ok" or id(shard) in winning_paths:
                spans.extend(shard.get("spans", []))
        spans.sort(key=lambda s: (float(s["start"]), str(s["span_id"])))
        return spans

    def chrome(self) -> Dict[str, object]:
        return chrome_payload(self.merged_spans(), main_pid=self.main_pid())

    def write_chrome(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        write_text_atomic(path, _shard_json(self.chrome()))
        return path

    # ------------------------------------------------------------------
    def merged_events(self) -> List[Dict[str, object]]:
        """Every event of every shard, ordered by wall-clock time."""
        events: List[Dict[str, object]] = []
        for shard in self.sessions + self.attempts + self.workers:
            events.extend(shard.get("events", []))
        events.sort(key=lambda e: float(e.get("time", 0.0)))
        return events

    def worker_counters(self) -> Dict[str, float]:
        """Process-level counters summed across service worker shards.

        Lease and service traffic only — attempt-scoped generation
        counters are deliberately absent (they flow through the sidecars
        into the ledger, the single source of truth
        :meth:`reconcile` checks), so these never overlap
        :meth:`counters_by_cell`.
        """
        total: Dict[str, float] = {}
        for shard in self.workers:
            for name, value in shard.get("counters", {}).items():
                total[name] = total.get(name, 0.0) + float(value)
        return total

    def counters_by_cell(self) -> Dict[str, Dict[str, float]]:
        """Per-done-cell counters, straight from the ledger.

        The ledger is the single source of truth for worker counters
        (merged exactly once per done transition, resume-safe), so the
        sum over cells here equals ``ledger.metrics_total()`` *exactly* —
        the reconciliation property the inspect reports rely on.
        """
        from repro.resilience.ledger import DONE

        return {
            name: {k: float(v) for k, v in record.get("metrics", {}).items()}
            for name, record in self.ledger.cells.items()
            if record["state"] == DONE
        }

    def session_counters(self) -> Dict[str, float]:
        """Parent-side counters summed across sessions (no worker numbers)."""
        total: Dict[str, float] = {}
        for session in self.sessions:
            for name, value in session.get("counters", {}).items():
                total[name] = total.get(name, 0.0) + float(value)
        return total

    def reconcile(self) -> List[Dict[str, object]]:
        """Cross-check winning-shard counters against the ledger.

        Returns one record per divergence (missing shard counters are
        only a divergence when the ledger recorded some — a shardless
        promoted cell still reconciles through its sidecar).  An empty
        list is the healthy state.
        """
        diffs: List[Dict[str, object]] = []
        winning = self.winning_attempts()
        for name, ledger_counters in self.counters_by_cell().items():
            shard = winning.get(name)
            if shard is None:
                continue
            shard_counters = {
                k: float(v) for k, v in shard.get("counters", {}).items()
            }
            if shard_counters != ledger_counters:
                diffs.append(
                    {
                        "cell": name,
                        "ledger": ledger_counters,
                        "shard": shard_counters,
                    }
                )
        return diffs


def load_chrome_spans(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Canonical span list back out of an exported Chrome trace.

    Reads the ``reproSpans`` sidecar key, so the lossy float µs
    conversion in ``traceEvents`` never has to round-trip; re-exporting
    the returned spans with :func:`write_chrome_spans` is byte-identical.
    """
    data = json.loads(Path(path).read_text())
    return list(data.get("reproSpans", []))


def write_chrome_spans(
    path: Union[str, Path],
    spans: Sequence[Dict[str, object]],
    main_pid: Optional[int] = None,
) -> Path:
    """Write a Chrome trace for *spans* (same writer the store uses)."""
    path = Path(path)
    write_text_atomic(path, _shard_json(chrome_payload(spans, main_pid=main_pid)))
    return path
