"""Disk cache of generated CA model libraries.

Conventional generation is the expensive step (it is the very problem the
paper attacks), so experiment drivers generate each (technology, preset,
policy) library once and reuse the CA models from disk afterwards.  Cache
entries are invalidated by a version tag that changes whenever the
simulator or defect semantics change; the stimulus policy is part of the
file name, so models generated under different policies can never be
confused for one another.  Writes go through the atomic
:func:`~repro.camodel.io.save_models` (temp file + ``os.replace``), so a
crash or two concurrent runs cannot leave a torn file that poisons every
later run; an unreadable cache file is treated as absent and regenerated.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.camodel.generate import generate_ca_model
from repro.camodel.io import load_models, save_models
from repro.camodel.model import CAModel
from repro.library.builder import Library, build_preset
from repro.library.technology import get as get_technology
from repro.spice.netlist import CellNetlist

#: bump when generation semantics change (invalidates caches)
CACHE_VERSION = "v3"

DEFAULT_CACHE_DIR = Path(
    os.environ.get("REPRO_CACHE_DIR", Path(__file__).resolve().parents[3] / ".cache")
)

#: scale used by the benchmark harness; override with REPRO_SCALE=small etc.
DEFAULT_SCALE = os.environ.get("REPRO_SCALE", "bench")


def cache_path(
    tech_name: str,
    preset: str,
    cache_dir: Optional[Path] = None,
    policy: str = "auto",
) -> Path:
    directory = Path(cache_dir) if cache_dir else DEFAULT_CACHE_DIR
    return directory / (
        f"camodels-{tech_name}-{preset}-{policy}-{CACHE_VERSION}.json"
    )


def _load_cached_models(path: Path) -> List[CAModel]:
    """Load a cache file, treating any unreadable content as a miss."""
    if not path.exists():
        return []
    try:
        return load_models(path)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        obs.events().warning(
            "cache.unreadable",
            path=str(path),
            error=str(exc),
            msg=f"ignoring unreadable CA model cache {path}: {exc}",
        )
        return []


def library_with_models(
    tech_name: str,
    preset: str = DEFAULT_SCALE,
    cache_dir: Optional[Path] = None,
    verbose: bool = False,
    policy: str = "auto",
) -> Tuple[Library, Dict[str, CAModel]]:
    """Build a preset library and its CA models (cached on disk)."""
    library = build_preset(tech_name, preset)
    path = cache_path(tech_name, preset, cache_dir, policy=policy)
    models: Dict[str, CAModel] = {}
    for model in _load_cached_models(path):
        models[model.cell_name] = model
    missing = [cell for cell in library if cell.name not in models]
    if missing:
        params = get_technology(tech_name).electrical
        for i, cell in enumerate(missing):
            # verbose=True marks progress callers opted into (shown at -v);
            # the rest is debug-level chatter.
            obs.events().emit(
                "cache.generate",
                level="info" if verbose else "debug",
                technology=tech_name,
                preset=preset,
                cell=cell.name,
                index=i + 1,
                total=len(missing),
                msg=(
                    f"[{tech_name}/{preset}] generating {cell.name} "
                    f"({i + 1}/{len(missing)})"
                ),
            )
            models[cell.name] = generate_ca_model(
                cell, params=params, policy=policy
            )
        save_models(
            [models[cell.name] for cell in library if cell.name in models], path
        )
        obs.events().debug(
            "cache.write",
            path=str(path),
            models=len(models),
            msg=f"wrote CA model cache {path} ({len(models)} models)",
        )
    return library, models


def paired(library: Library, models: Dict[str, CAModel]) -> List[Tuple[CellNetlist, CAModel]]:
    """(cell, model) pairs for every cached cell of a library."""
    return [(cell, models[cell.name]) for cell in library if cell.name in models]
