"""CA model file format (read / write).

A simple self-describing JSON format: portable, diff-friendly, and compact
enough for library-scale caches (detection rows are stored as '0'/'1'
strings).  This stands in for the commercial tools' proprietary CA model
file formats the paper's flow parses ("the output information is then
parsed to the desired file format", Section V.C).

Versioning rules: optional additive keys (e.g. ``stats``) do not bump
``FORMAT_VERSION`` — readers ignore keys they do not know and tolerate
missing optional ones; any change to the meaning of existing keys does.
Writes go through :func:`repro.atomic.write_text_atomic` (a
same-directory temporary file, then ``os.replace``) so a crash (or a
concurrent writer) can never leave a torn file behind.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from repro.atomic import write_text_atomic
from repro.camodel.model import CAModel
from repro.camodel.stats import GenerationStats
from repro.defects.model import Defect
from repro.logic.fourval import V4, parse_word

FORMAT_VERSION = 1


def model_to_dict(model: CAModel) -> Dict:
    """Serializable representation of a CA model."""
    out = {
        "format": FORMAT_VERSION,
        "cell": model.cell_name,
        "technology": model.technology,
        "inputs": list(model.inputs),
        "output": model.output,
        "stimuli": model.stimulus_strings(),
        "golden": "".join(str(v) for v in model.golden),
        "defects": [
            {"name": d.name, "kind": d.kind, "location": list(d.location)}
            for d in model.defects
        ],
        "detection": [
            "".join(str(int(v)) for v in row) for row in model.detection
        ],
        "simulation_count": model.simulation_count,
        "generation_seconds": model.generation_seconds,
    }
    if model.stats is not None:
        out["stats"] = model.stats.to_dict()
    return out


def model_from_dict(data: Dict) -> CAModel:
    """Inverse of :func:`model_to_dict`."""
    if data.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported CA model format {data.get('format')!r}")
    stimuli = [parse_word(s) for s in data["stimuli"]]
    golden = [V4.from_string(c) for c in data["golden"]]
    defects = [
        Defect(d["name"], d["kind"], tuple(d["location"])) for d in data["defects"]
    ]
    for index, row in enumerate(data["detection"]):
        # A row is exactly one '0'/'1' per stimulus: anything else is a
        # corrupt artifact, never a model (CAModel checks the row count).
        if not isinstance(row, str) or len(row) != len(stimuli) or row.strip("01"):
            raise ValueError(
                f"detection row {index} must be {len(stimuli)} characters "
                f"from {{0,1}} (one per stimulus)"
            )
    detection = np.array(
        [[int(c) for c in row] for row in data["detection"]], dtype=np.int8
    )
    if detection.size == 0:
        detection = detection.reshape(len(defects), len(stimuli))
    stats = None
    if isinstance(data.get("stats"), dict):
        stats = GenerationStats.from_dict(data["stats"])
    return CAModel(
        cell_name=data["cell"],
        technology=data.get("technology", ""),
        inputs=tuple(data["inputs"]),
        output=data["output"],
        stimuli=stimuli,
        golden=golden,
        defects=defects,
        detection=detection,
        simulation_count=int(data.get("simulation_count", 0)),
        generation_seconds=float(data.get("generation_seconds", 0.0)),
        stats=stats,
    )


def save_model(model: CAModel, path: Union[str, Path]) -> Path:
    """Write one CA model to *path* (JSON, atomic)."""
    path = Path(path)
    write_text_atomic(path, json.dumps(model_to_dict(model)))
    return path


def load_model(path: Union[str, Path]) -> CAModel:
    """Read one CA model from *path*."""
    return model_from_dict(json.loads(Path(path).read_text()))


def save_models(models: List[CAModel], path: Union[str, Path]) -> Path:
    """Write a list of CA models into one file (a 'CA model library').

    The write is atomic (temp file + ``os.replace``): a crash mid-write
    or two concurrent writers can never leave a torn library file that
    poisons every later cache load.
    """
    path = Path(path)
    payload = {"format": FORMAT_VERSION, "models": [model_to_dict(m) for m in models]}
    write_text_atomic(path, json.dumps(payload))
    return path


def load_models(path: Union[str, Path]) -> List[CAModel]:
    """Read a CA model library file."""
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported CA library format {payload.get('format')!r}")
    return [model_from_dict(d) for d in payload["models"]]
