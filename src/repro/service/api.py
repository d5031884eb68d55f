"""Thin job API over a service run directory.

The coordination substrate of :mod:`repro.service` is the run directory
itself, so the job API is deliberately thin: :func:`submit_library`
materializes everything a worker needs — the cell netlist texts, the
option fingerprint, per-cell content keys, the lease TTL, the retry
budget and the per-attempt ``cell_timeout`` — into an atomic
``job.json`` manifest next to the
:class:`~repro.resilience.ledger.RunLedger`, and every later call
(``status`` / ``stream`` / ``fetch_models``) is a pure read over the
ledger, the lease directory and the checkpoint artifacts.  Any number
of clients can therefore poll one run concurrently, from any process or
machine that sees the directory:

>>> job = submit_library(cells, "runs/lib")           # doctest: +SKIP
>>> serve(job.run_dir, workers=4)                     # doctest: +SKIP
>>> for status in job.stream():                       # doctest: +SKIP
...     print(status.render())
>>> models = job.fetch_models()                       # doctest: +SKIP

The content keys hash the option fingerprint
(:func:`repro.resilience.runner._options_fingerprint`) with each cell's
netlist text, so every session of a run — killed, resumed, served by
any number of workers — checkpoints the same canonical artifacts, and
the assembled library equals the in-process
:func:`repro.camodel.generate_library` models byte for byte (the
guarantee the chaos suites enforce).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro import obs
from repro.atomic import write_text_atomic
from repro.camodel.batch import ensure_unique_cell_names
from repro.camodel.generate import DEFAULT_SLOW_FACTOR
from repro.camodel.io import model_from_dict
from repro.camodel.model import CAModel
from repro.defects.model import Defect
from repro.library.technology import ElectricalParams
from repro.resilience import faults
from repro.resilience.ledger import (
    DONE,
    QUARANTINED,
    RunDirError,
    RunLedger,
    STATES,
    content_key,
)
from repro.resilience.runner import _options_fingerprint
from repro.service.lease import DEFAULT_TTL, LeaseStore
from repro.spice.netlist import CellNetlist
from repro.spice.writer import write_cell

#: ``job.json`` layout version (2: ``kwargs`` carry ``packed`` only, no
#: ``batched``; 3: ``kwargs`` and the fingerprint drop the defect-level
#: worker count; 4: ``kwargs`` drop ``phase_cache``)
MANIFEST_FORMAT = 4
MANIFEST_NAME = "job.json"

# service event names (registered in repro.lint.catalog)
E_SUBMIT = "service.submit"


@dataclass
class JobManifest:
    """Everything a stateless worker needs to replay one library job."""

    policy: str
    options: Dict[str, object]
    #: JSON-safe generation kwargs (params/universe serialized)
    kwargs: Dict[str, object]
    #: per-cell records: name, netlist text, technology, content key
    cells: List[Dict[str, object]] = field(default_factory=list)
    lease_ttl: float = DEFAULT_TTL
    retries: int = 1
    fault_plan: Optional[Dict[str, object]] = None
    #: wall-clock seconds per attempt before the coordinator reaps it
    cell_timeout: Optional[float] = None

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return [str(record["name"]) for record in self.cells]

    def keyed(self) -> List[tuple]:
        return [
            (str(record["name"]), str(record["key"]))
            for record in self.cells
        ]

    def cell_record(self, name: str) -> Dict[str, object]:
        for record in self.cells:
            if record["name"] == name:
                return record
        raise KeyError(name)

    def generation_kwargs(self) -> Dict[str, object]:
        """The kwargs dict :func:`generate_ca_model` expects, rebuilt."""
        kwargs = dict(self.kwargs)
        params = kwargs.get("params")
        if params is not None:
            kwargs["params"] = ElectricalParams(**params)  # type: ignore[arg-type]
        universe = kwargs.get("universe")
        if universe is not None:
            kwargs["universe"] = [
                Defect(
                    name=str(d["name"]),
                    kind=str(d["kind"]),
                    location=tuple(d["location"]),
                )
                for d in universe  # type: ignore[union-attr]
            ]
        return kwargs

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "format": MANIFEST_FORMAT,
            "policy": self.policy,
            "options": self.options,
            "kwargs": self.kwargs,
            "cells": self.cells,
            "lease_ttl": self.lease_ttl,
            "retries": self.retries,
            "fault_plan": self.fault_plan,
            "cell_timeout": self.cell_timeout,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobManifest":
        if data.get("format") != MANIFEST_FORMAT:
            raise RunDirError(
                f"unsupported job manifest format {data.get('format')!r}"
            )
        return cls(
            policy=str(data["policy"]),
            options=dict(data["options"]),  # type: ignore[call-overload]
            kwargs=dict(data["kwargs"]),  # type: ignore[call-overload]
            cells=[dict(c) for c in data.get("cells", [])],  # type: ignore[union-attr]
            lease_ttl=float(data.get("lease_ttl", DEFAULT_TTL)),  # type: ignore[arg-type]
            retries=int(data.get("retries", 1)),  # type: ignore[arg-type]
            fault_plan=(
                dict(data["fault_plan"])  # type: ignore[call-overload]
                if data.get("fault_plan") is not None
                else None
            ),
            cell_timeout=(
                float(data["cell_timeout"])  # type: ignore[arg-type]
                if data.get("cell_timeout") is not None
                else None
            ),
        )


@dataclass
class JobStatus:
    """One poll of a job: ledger state counts plus live lease view."""

    counts: Dict[str, int]
    total: int
    leased: Dict[str, str]  # cell -> owner
    quarantined: List[str]

    @property
    def done(self) -> int:
        return self.counts.get(DONE, 0)

    @property
    def complete(self) -> bool:
        return self.done + self.counts.get(QUARANTINED, 0) >= self.total

    def render(self) -> str:
        parts = [f"{state}={self.counts.get(state, 0)}" for state in STATES]
        leased = ", ".join(
            f"{cell}@{owner}" for cell, owner in sorted(self.leased.items())
        )
        return (
            f"[{self.done}/{self.total}] "
            + " ".join(parts)
            + (f"  leases: {leased}" if leased else "")
        )


class Job:
    """Handle on one submitted library characterization job."""

    def __init__(self, run_dir: Union[str, Path], manifest: JobManifest):
        self.run_dir = Path(run_dir)
        self.manifest = manifest

    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.run_dir / MANIFEST_NAME

    @classmethod
    def attach(cls, run_dir: Union[str, Path]) -> "Job":
        """Open the job of an existing run directory (worker entry)."""
        path = Path(run_dir) / MANIFEST_NAME
        if not path.exists():
            raise RunDirError(
                f"{run_dir} has no {MANIFEST_NAME}; submit a library first "
                "(python -m repro serve NETLIST --run-dir ...)"
            )
        return cls(run_dir, JobManifest.from_dict(json.loads(path.read_text())))

    # ------------------------------------------------------------------
    def ledger(self) -> RunLedger:
        return RunLedger.load(self.run_dir)

    def lease_store(self) -> LeaseStore:
        return LeaseStore(self.run_dir, ttl=self.manifest.lease_ttl)

    def status(self) -> JobStatus:
        ledger = self.ledger()
        counts: Dict[str, int] = {state: 0 for state in STATES}
        for record in ledger.cells.values():
            counts[str(record["state"])] += 1
        leases = {
            cell: str(record.get("owner", "?"))
            for cell, record in self.lease_store().held().items()
        }
        return JobStatus(
            counts=counts,
            total=len(ledger.cells),
            leased=leases,
            quarantined=ledger.names_in(QUARANTINED),
        )

    def stream(
        self, interval: float = 0.5, timeout: Optional[float] = None
    ) -> Iterator[JobStatus]:
        """Yield status snapshots until the job completes (or times out)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status()
            yield status
            if status.complete:
                return
            if deadline is not None and time.monotonic() > deadline:
                return
            time.sleep(interval)

    # ------------------------------------------------------------------
    def fetch_models(self) -> Dict[str, CAModel]:
        """Every completed cell's model, parsed from its checkpoint."""
        ledger = self.ledger()
        out: Dict[str, CAModel] = {}
        for name in self.manifest.names():
            record = ledger.cells.get(name)
            if record is not None and record["state"] == DONE:
                data = json.loads(ledger.artifact_path(name).read_text())
                out[name] = model_from_dict(data)
        return out


def submit_library(
    cells: Sequence[CellNetlist],
    run_dir: Union[str, Path],
    policy: str = "auto",
    resume: bool = False,
    retries: int = 1,
    lease_ttl: float = DEFAULT_TTL,
    cell_timeout: Optional[float] = None,
    fault_plan: Optional[faults.FaultPlan] = None,
    params: Optional[ElectricalParams] = None,
    universe: Optional[Sequence[Defect]] = None,
    delay_detection: bool = True,
    slow_factor: float = DEFAULT_SLOW_FACTOR,
    packed: bool = True,
) -> Job:
    """Materialize a library job into *run_dir* and return its handle.

    Creates (or, with ``resume=True``, reopens) the run ledger — one
    content key per cell from the option fingerprint — then writes the
    ``job.json`` manifest workers read.  No worker is started; pair with
    :func:`repro.service.coordinator.serve` or external
    ``python -m repro worker RUN_DIR`` processes.

    ``retries`` failed attempts are allowed per cell beyond the first
    before it is quarantined.  ``cell_timeout`` bounds each attempt's
    wall-clock seconds: the coordinator stops an over-deadline local
    worker, reaps the lease of any holder and charges a ``timeout``
    failure.  ``fault_plan`` scripts failures for chaos testing
    (:mod:`repro.resilience.faults`).  ``packed`` is forwarded to
    :func:`~repro.camodel.generate.generate_ca_model` in every worker.
    ``retries``, ``lease_ttl``, ``cell_timeout`` and
    ``fault_plan`` shape how a run proceeds, not its artifacts, so a
    resumed submission may change them.
    """
    names = [cell.name for cell in cells]
    ensure_unique_cell_names(names)
    options = _options_fingerprint(
        policy, params, universe, delay_detection, slow_factor, packed
    )
    texts = {cell.name: write_cell(cell) for cell in cells}
    keyed = [(name, content_key(texts[name], options)) for name in names]
    RunLedger.open(run_dir, options, keyed, resume=resume)
    manifest = JobManifest(
        policy=policy,
        options=dict(options),
        kwargs={
            "params": options["params"],
            "universe": options["universe"],
            "delay_detection": delay_detection,
            "slow_factor": slow_factor,
            "packed": packed,
        },
        cells=[
            {
                # technology rides verbatim (may be None/""): the worker
                # must rebuild the cell with exactly its own technology,
                # or model bytes diverge from the in-process path's.
                "name": name,
                "text": texts[name],
                "technology": cells[i].technology,
                "key": key,
            }
            for i, (name, key) in enumerate(keyed)
        ],
        lease_ttl=float(lease_ttl),
        retries=int(retries),
        fault_plan=fault_plan.to_dict() if fault_plan is not None else None,
        cell_timeout=float(cell_timeout) if cell_timeout is not None else None,
    )
    job = Job(run_dir, manifest)
    write_text_atomic(job.manifest_path, json.dumps(manifest.to_dict()))
    obs.events().info(
        E_SUBMIT,
        run_dir=str(run_dir),
        cells=len(names),
        resume=resume,
        msg=f"submitted {len(names)} cell(s) to {run_dir}",
    )
    return job
