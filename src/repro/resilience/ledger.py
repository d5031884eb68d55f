"""Persistent per-cell run state for resumable library characterization.

A run directory is the unit of resumability::

    run-dir/
      ledger.json     # run config + one record per cell (atomic writes)
      failures.json   # machine-readable failure report (quarantined cells)
      models/
        <cell>-<key>.json           # completed model artifact (canonical)
        <cell>-<key>.obs.json       # worker obs sidecar (spans + metrics)
        <cell>-<key>.error.json     # structured record of the last failure
      obs/
        <cell>-<key>.a<NNN>.json    # per-attempt telemetry shard
        session-<NNN>.json          # per-session parent telemetry shard

    (the ``obs/`` telemetry store is owned by :mod:`repro.obs.store`;
    ``python -m repro inspect RUN_DIR`` reads it merged with this ledger)

Artifacts are **content-keyed** like the experiment cache: ``<key>`` is a
hash over the cell netlist text and every generation option, so a resume
with changed options (or a changed cell) can never reuse a stale model.
Artifacts are **canonical** — wall-clock fields are zeroed, the real
timings live in the ledger — so a killed-and-resumed run assembles a
library byte-identical to an uninterrupted one.

Every state transition rewrites ``ledger.json`` through the repo-wide
atomic writer (:func:`repro.atomic.write_text_atomic`), so a SIGKILL at
any instant leaves either the previous or the next consistent state,
never a torn file.  :meth:`RunLedger.recover` reconciles after a crash:
cells left ``running`` (or ``failed``) whose artifact landed on disk are
promoted to ``done`` — the worker finished, only the parent died before
recording it — and stale temp files are purged.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.atomic import write_text_atomic

LEDGER_FORMAT = 1

PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
QUARANTINED = "quarantined"

STATES = (PENDING, RUNNING, DONE, FAILED, QUARANTINED)


class RunDirError(RuntimeError):
    """A run directory cannot be (re)used as requested."""


def content_key(cell_text: str, options: Mapping[str, object]) -> str:
    """Content hash of (cell netlist, generation options) — artifact key."""
    blob = json.dumps(
        {"cell_text": cell_text, "options": options}, sort_keys=True
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def config_key(options: Mapping[str, object]) -> str:
    """Content hash of the run-level generation options alone."""
    blob = json.dumps(dict(options), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class RunLedger:
    """Atomic, resumable record of one library characterization run."""

    def __init__(self, run_dir: Union[str, Path]) -> None:
        self.run_dir = Path(run_dir)
        self.path = self.run_dir / "ledger.json"
        self.models_dir = self.run_dir / "models"
        self.failures_path = self.run_dir / "failures.json"
        self.config: Dict[str, object] = {}
        self.config_key = ""
        self.cells: Dict[str, Dict[str, object]] = {}
        self.created = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        run_dir: Union[str, Path],
        options: Mapping[str, object],
        cells: Sequence[Tuple[str, str]],
        resume: bool = False,
    ) -> "RunLedger":
        """Create or reopen the ledger for *cells* (``(name, key)`` pairs).

        A fresh directory starts every cell ``pending``.  Reopening an
        existing ledger requires ``resume=True`` and the same generation
        options; cells whose content key changed since the previous
        session are reset to ``pending`` (their old artifact can no
        longer be trusted), new cells are added, and cells missing from
        the new set are dropped from the ledger.
        """
        ledger = cls(run_dir)
        ledger.config = dict(options)
        ledger.config_key = config_key(options)
        if ledger.path.exists():
            if not resume:
                raise RunDirError(
                    f"{ledger.run_dir} already holds a run ledger; pass "
                    "resume=True (--resume) to continue it or use a fresh "
                    "directory"
                )
            data = json.loads(ledger.path.read_text())
            if data.get("format") != LEDGER_FORMAT:
                raise RunDirError(
                    f"unsupported ledger format {data.get('format')!r} "
                    f"in {ledger.path}"
                )
            if data.get("config_key") != ledger.config_key:
                raise RunDirError(
                    f"{ledger.run_dir} was started with different "
                    "generation options; resuming would mix incompatible "
                    "models (use a fresh --run-dir)"
                )
            ledger.created = float(data.get("created", 0.0))
            previous = data.get("cells", {})
            for name, key in cells:
                record = previous.get(name)
                if record is not None and record.get("key") == key:
                    ledger.cells[name] = record
                else:
                    ledger.cells[name] = ledger._fresh_record(key)
        else:
            # resume=True on a directory without a ledger simply starts
            # fresh, so `--resume` is always safe to pass.
            ledger.created = time.time()
            for name, key in cells:
                ledger.cells[name] = ledger._fresh_record(key)
        ledger.models_dir.mkdir(parents=True, exist_ok=True)
        ledger.save()
        return ledger

    @staticmethod
    def _fresh_record(key: str) -> Dict[str, object]:
        return {
            "state": PENDING,
            "key": key,
            "attempts": 0,
            "seconds": 0.0,
            "errors": [],
            "metrics": {},
        }

    def save(self) -> None:
        payload = {
            "format": LEDGER_FORMAT,
            "created": self.created,
            "config_key": self.config_key,
            "config": self.config,
            "cells": self.cells,
        }
        write_text_atomic(self.path, json.dumps(payload))

    @classmethod
    def load(cls, run_dir: Union[str, Path]) -> "RunLedger":
        """Read an existing ledger without reconciling a cell set."""
        ledger = cls(run_dir)
        if not ledger.path.exists():
            raise RunDirError(f"{ledger.run_dir} has no ledger")
        data = json.loads(ledger.path.read_text())
        if data.get("format") != LEDGER_FORMAT:
            raise RunDirError(
                f"unsupported ledger format {data.get('format')!r}"
            )
        ledger.created = float(data.get("created", 0.0))
        ledger.config = dict(data.get("config", {}))
        ledger.config_key = str(data.get("config_key", ""))
        ledger.cells = dict(data.get("cells", {}))
        return ledger

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def artifact_path(self, name: str) -> Path:
        return self.models_dir / f"{name}-{self.cells[name]['key']}.json"

    def sidecar_path(self, name: str) -> Path:
        return self.models_dir / f"{name}-{self.cells[name]['key']}.obs.json"

    def error_path(self, name: str) -> Path:
        return self.models_dir / f"{name}-{self.cells[name]['key']}.error.json"

    # ------------------------------------------------------------------
    # Transitions (each persists atomically)
    # ------------------------------------------------------------------
    def state(self, name: str) -> str:
        return str(self.cells[name]["state"])

    def mark_running(self, name: str, attempt: Optional[int] = None) -> int:
        """Record an attempt start; returns the 0-based attempt index.

        *attempt* pins the lifetime index when the caller learned it out
        of band (the service coordinator observes a worker's lease after
        the worker already chose its index): the attempt count is floored
        to ``attempt + 1`` instead of blindly incremented, so a
        coordinator that polls a lease twice never inflates the count.
        """
        record = self.cells[name]
        attempt = int(record["attempts"] if attempt is None else attempt)
        self._count_attempt(name, attempt)
        record["state"] = RUNNING
        self.save()
        return attempt

    def _count_attempt(self, name: str, attempt: int) -> None:
        """Floor the attempt count to ``attempt + 1``: an attempt seen
        twice is counted once."""
        record = self.cells[name]
        record["attempts"] = max(int(record["attempts"]), int(attempt) + 1)

    def mark_done(
        self,
        name: str,
        seconds: float,
        metrics: Optional[Mapping[str, float]] = None,
    ) -> None:
        record = self.cells[name]
        record["state"] = DONE
        record["seconds"] = float(seconds)
        if metrics:
            record["metrics"] = {k: float(v) for k, v in metrics.items()}
        self.save()

    def record_failure(
        self,
        name: str,
        error: Mapping[str, object],
        attempt: int,
        quarantine: bool = False,
    ) -> None:
        """Record failed attempt *attempt* and the cell's final state in
        one save.

        The attempt count is floored as in :meth:`mark_running`;
        *quarantine* ends the cell ``quarantined`` instead of ``failed``.
        A single save matters to concurrent readers: a worker's claim
        scan treats a ``failed`` cell as claimable, so a cell that has
        exhausted its retries must never be saved ``failed`` first.
        """
        self._count_attempt(name, attempt)
        record = self.cells[name]
        record["state"] = QUARANTINED if quarantine else FAILED
        record["errors"] = list(record.get("errors", [])) + [dict(error)]
        self.save()

    # ------------------------------------------------------------------
    # Recovery / queries
    # ------------------------------------------------------------------
    def validate_artifact(self, name: str) -> bool:
        """True when the cell's artifact exists and parses as its model."""
        path = self.artifact_path(name)
        if not path.exists():
            return False
        from repro.camodel.io import model_from_dict

        try:
            data = json.loads(path.read_text())
            if data.get("cell") != name:
                return False
            model_from_dict(data)
        except Exception as exc:
            # Classify and surface the rejection instead of silently
            # dropping it (the original silent swallow here is RPL008's
            # motivating instance): recover() deletes the artifact next,
            # so this event is the only trace of *why* a checkpointed
            # cell was thrown back to pending.
            from repro import obs

            obs.events().warning(
                "resilience.artifact_invalid",
                cell=name,
                path=str(path),
                kind=type(exc).__name__,
                error=str(exc),
                msg=(
                    f"artifact for {name} failed validation "
                    f"({type(exc).__name__}: {exc}); discarding it"
                ),
            )
            return False
        return True

    def recover(self) -> List[str]:
        """Reconcile after a killed session; returns promoted cell names.

        * ``running`` / ``failed`` cells with a valid artifact on disk
          become ``done`` (worker finished; parent died before recording
          it).  Their obs sidecar, when present, supplies the metrics.
        * ``running`` cells without an artifact go back to ``pending``
          (the attempt count keeps what was started).
        * Invalid (corrupt) artifacts of non-``done`` cells are removed.
        * Orphaned temp files from interrupted atomic writes are purged.
        """
        promoted: List[str] = []
        for name, record in self.cells.items():
            state = record["state"]
            if state not in (RUNNING, FAILED):
                continue
            if self.validate_artifact(name):
                metrics: Dict[str, float] = {}
                seconds = 0.0
                sidecar = self.sidecar_path(name)
                if sidecar.exists():
                    try:
                        side = json.loads(sidecar.read_text())
                        metrics = {
                            k: float(v)
                            for k, v in side.get("counters", {}).items()
                        }
                        seconds = float(side.get("seconds", 0.0))
                    except (ValueError, json.JSONDecodeError):
                        pass
                record["state"] = DONE
                record["seconds"] = seconds
                record["metrics"] = metrics
                promoted.append(name)
            else:
                artifact = self.artifact_path(name)
                if artifact.exists():
                    artifact.unlink()
                if state == RUNNING:
                    record["state"] = PENDING
        for stray in self.models_dir.glob(".*.tmp*"):
            try:
                stray.unlink()
            except OSError:
                pass
        if promoted:
            self.save()
        elif any(r["state"] == PENDING for r in self.cells.values()):
            self.save()
        return promoted

    def requeue_quarantined(self) -> List[str]:
        """Re-admit quarantined cells (a resumed session retries them).

        Error history and lifetime attempt counts are kept; only the
        state returns to ``pending`` so the new session's retry budget
        applies afresh.
        """
        requeued = []
        for name, record in self.cells.items():
            if record["state"] == QUARANTINED:
                record["state"] = PENDING
                requeued.append(name)
        if requeued:
            self.save()
        return requeued

    def names_in(self, *states: str) -> List[str]:
        return [n for n, r in self.cells.items() if r["state"] in states]

    def metrics_total(self) -> Dict[str, float]:
        """Aggregate of every done cell's counters, each counted once.

        Recomputed from the per-cell records rather than accumulated
        incrementally, so resuming a run can never double-count the work
        a previous session already recorded.
        """
        total: Dict[str, float] = {}
        for record in self.cells.values():
            if record["state"] != DONE:
                continue
            for name, value in record.get("metrics", {}).items():
                total[name] = total.get(name, 0.0) + float(value)
        return total

    # ------------------------------------------------------------------
    # Failure report
    # ------------------------------------------------------------------
    def failure_report(self) -> Dict[str, object]:
        """Machine-readable report of quarantined cells and error records."""
        quarantined = [
            {
                "cell": name,
                "attempts": record["attempts"],
                "errors": record.get("errors", []),
            }
            for name, record in self.cells.items()
            if record["state"] == QUARANTINED
        ]
        counts: Dict[str, int] = {state: 0 for state in STATES}
        for record in self.cells.values():
            counts[str(record["state"])] += 1
        return {
            "format": LEDGER_FORMAT,
            "run_dir": str(self.run_dir),
            "config_key": self.config_key,
            "counts": counts,
            "quarantined": quarantined,
        }

    def write_failure_report(self) -> Path:
        write_text_atomic(self.failures_path, json.dumps(self.failure_report()))
        return self.failures_path


def quarantined_cells(run_dir: Union[str, Path]) -> List[str]:
    """Names of quarantined cells of a run, for the hybrid flow's
    simulation lane (reads ``failures.json``, falling back to the ledger)."""
    run_dir = Path(run_dir)
    failures = run_dir / "failures.json"
    if failures.exists():
        try:
            report = json.loads(failures.read_text())
            return [str(q["cell"]) for q in report.get("quarantined", [])]
        except (ValueError, KeyError, json.JSONDecodeError):
            pass
    if (run_dir / "ledger.json").exists():
        return RunLedger.load(run_dir).names_in(QUARANTINED)
    return []


def purge_stale_tmp(directory: Path) -> int:
    """Remove temp files an interrupted atomic write may have left."""
    removed = 0
    for stray in Path(directory).glob(".*.tmp*"):
        try:
            stray.unlink()
            removed += 1
        except OSError:
            pass
    return removed
