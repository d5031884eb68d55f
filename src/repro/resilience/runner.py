"""Run-directory results shared by the job API and the coordinator.

A run directory (:class:`~repro.resilience.ledger.RunLedger`) is filled
by :func:`repro.service.submit_library` and driven to completion by
:func:`repro.service.serve`.  This module holds what both sides agree
on:

* :func:`canonical_model_dict` — the checkpoint serialization with
  wall-clock fields zeroed, which is what makes a resumed library
  byte-identical to an uninterrupted one;
* :func:`_options_fingerprint` — every option that shapes an artifact,
  hashed into each cell's content key;
* :class:`RunResult`, :func:`read_sidecar` and
  :func:`assemble_run_result` — the ``done``-transition reader and the
  final assembly of models, quarantine records, ``failures.json`` and
  the optional library JSON;
* the ``resilience.*`` metric names the coordinator counts retries,
  timeouts, crashes and quarantines under.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.atomic import write_text_atomic
from repro.camodel.io import FORMAT_VERSION, model_from_dict, model_to_dict
from repro.camodel.model import CAModel
from repro.defects.model import Defect
from repro.library.technology import ElectricalParams
from repro.resilience.ledger import DONE, QUARANTINED, RunLedger

# Metric names of the resilience layer (repro.obs registry).
M_CELLS_DONE = "resilience.cells_done"
M_CELLS_RESUMED = "resilience.cells_resumed"
M_RETRIES = "resilience.retries"
M_TIMEOUTS = "resilience.timeouts"
M_CRASHES = "resilience.crashes"
M_EXCEPTIONS = "resilience.exceptions"
M_CORRUPT = "resilience.corrupt_artifacts"
M_QUARANTINED = "resilience.quarantined"


def canonical_model_dict(model: CAModel) -> Dict[str, object]:
    """Serialized model with wall-clock fields zeroed.

    Checkpoint artifacts must be reproducible: two runs of the same cell
    under the same options produce identical detection tables and solver
    counters, but never identical wall times.  Zeroing the timing fields
    here (the real timings are kept in the run ledger) is what makes a
    resumed library byte-identical to an uninterrupted one.
    """
    data = model_to_dict(model)
    data["generation_seconds"] = 0.0
    stats = data.get("stats")
    if isinstance(stats, dict):
        for key in (
            "golden_seconds",
            "defect_seconds",
            "merge_seconds",
            "total_seconds",
        ):
            stats[key] = 0.0
    return data


def _options_fingerprint(
    policy: str,
    params: Optional[ElectricalParams],
    universe: Optional[Sequence[Defect]],
    delay_detection: bool,
    slow_factor: float,
    packed: bool,
) -> Dict[str, object]:
    """JSON-stable fingerprint of every option that shapes an artifact.

    ``packed`` shapes ``stats.batched_phases`` (0 under the scalar
    solver); it is stored under its older name, ``"batched"``.
    """
    return {
        "format": FORMAT_VERSION,
        "policy": policy,
        "params": asdict(params) if params is not None else None,
        "universe": (
            None
            if universe is None
            else [
                {"name": d.name, "kind": d.kind, "location": list(d.location)}
                for d in universe
            ]
        ),
        "delay_detection": delay_detection,
        "slow_factor": slow_factor,
        "batched": packed,
    }


@dataclass
class RunResult:
    """Outcome of one (possibly resumed) run-directory session."""

    run_dir: Path
    models: Dict[str, CAModel] = field(default_factory=dict)
    quarantined: Dict[str, List[Dict[str, object]]] = field(default_factory=dict)
    #: cells whose model was reused from a previous session of this run
    resumed: List[str] = field(default_factory=list)
    #: failure report also persisted as ``<run_dir>/failures.json``
    report: Dict[str, object] = field(default_factory=dict)
    #: aggregate worker metric counters, each cell counted exactly once
    metrics: Dict[str, float] = field(default_factory=dict)
    library_path: Optional[Path] = None

    @property
    def complete(self) -> bool:
        return not self.quarantined


def read_sidecar(
    ledger: RunLedger, name: str
) -> Tuple[float, Dict[str, float], List[Dict[str, object]]]:
    """(seconds, counters, spans) from a cell's obs sidecar, if readable.

    The sidecar is the worker-side record of a successful attempt; the
    coordinator consumes it at the ``done`` transition, so the per-cell
    counters that feed ``metrics_total()`` come from one reader whichever
    worker ran the cell.  Missing or torn sidecars degrade to zeros,
    never raise.
    """
    sidecar = ledger.sidecar_path(name)
    if sidecar.exists():
        try:
            side = json.loads(sidecar.read_text())
            return (
                float(side.get("seconds", 0.0)),
                {k: float(v) for k, v in side.get("counters", {}).items()},
                list(side.get("spans", [])),
            )
        except (ValueError, json.JSONDecodeError):
            pass
    return 0.0, {}, []


def assemble_run_result(
    ledger: RunLedger,
    names: Sequence[str],
    result: RunResult,
    output: Optional[Union[str, Path]] = None,
) -> List[Dict[str, object]]:
    """Fill *result* from the checkpoints; returns the artifact dicts.

    The tail of every coordinated session: the models, quarantine
    records, aggregate counters, failure report and (optional) assembled
    library JSON all come from the ledger and the canonical artifacts,
    which is what makes an N-worker run, a resumed run and an
    uninterrupted one byte-identical.
    """
    artifact_dicts: List[Dict[str, object]] = []
    for name in names:
        record = ledger.cells[name]
        if record["state"] == DONE:
            data = json.loads(ledger.artifact_path(name).read_text())
            artifact_dicts.append(data)
            result.models[name] = model_from_dict(data)
        elif record["state"] == QUARANTINED:
            result.quarantined[name] = list(record.get("errors", []))
    result.metrics = ledger.metrics_total()
    result.report = ledger.failure_report()
    ledger.write_failure_report()
    if output is not None:
        result.library_path = Path(output)
        write_text_atomic(
            result.library_path,
            json.dumps({"format": FORMAT_VERSION, "models": artifact_dicts}),
        )
    return artifact_dicts
