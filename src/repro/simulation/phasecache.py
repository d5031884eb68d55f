"""On-disk phase-cache store: solved phases persisted across runs.

The in-memory caches of :class:`~repro.simulation.switchgraph.PhaseState`
die with the process, so every library run re-solves the same golden and
defect phases of the same cells.  A :class:`PhaseCacheStore` persists
them: one JSON file per (cell netlist, electrical params, driver
resistance, effect signature), addressed by a content hash over exactly
those inputs — a changed netlist or changed parameters can never be
served stale phases, they simply hash to a different file.

Loading is **prefetch, not cache-fill**: persisted phases land in the
``prefetch_*`` dicts of the signature's
:class:`~repro.simulation.switchgraph.PhaseState`, and the engine pops
them at the exact point the solver would otherwise have run — with the
same counter increments.  A warm-store run therefore produces models
*and* cost accounting byte-identical to a cold run, which is what lets
resumed library runs keep the PR 4 canonical-artifact guarantee while
skipping the solves entirely.

Writes go through the repo-wide atomic writer
(:func:`repro.atomic.write_text_atomic`), and the payload is canonically
ordered, so concurrent writers of the same signature race benignly: they
write byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.atomic import write_text_atomic
from repro.simulation.solver import SolveResult
from repro.simulation.switchgraph import CellTopology, PhaseState
from repro.spice.writer import write_cell

PHASECACHE_FORMAT = 1

# obs metric names (registered in repro.lint.catalog)
M_PHASECACHE_LOADS = "phasecache.loads"
M_PHASECACHE_MISSES = "phasecache.misses"
M_PHASECACHE_STORES = "phasecache.stores"

#: JSON stand-in for ``float("inf")`` drive resistances (strict JSON has
#: no Infinity literal; None round-trips through every parser).
_INF = None


class PhaseCacheError(RuntimeError):
    """A phase-cache directory cannot be used as requested."""


def _encode_resistance(value: float):
    return _INF if value == float("inf") else value


def _decode_resistance(value) -> float:
    return float("inf") if value is None else float(value)


def signature_fingerprint(
    topology: CellTopology, signature: tuple
) -> str:
    """Content hash addressing one (topology, effect signature) file.

    Hashes the written netlist text, the electrical params, the driver
    resistance and the canonicalized signature — everything a solved
    phase depends on.
    """
    removed, gate_open, bridges = signature
    blob = json.dumps(
        {
            "format": PHASECACHE_FORMAT,
            "cell_text": write_cell(topology.cell),
            "params": asdict(topology.params),
            "driver_resistance": topology.driver_resistance,
            "removed": sorted(removed),
            "gate_open": sorted(gate_open),
            # Order preserved: it is part of the signature (float
            # summation order in contention solves).
            "bridges": [[a, b, r] for a, b, r in bridges],
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


class PhaseCacheStore:
    """Directory of persisted solved phases, content-keyed per signature.

    Attach to a topology with
    :meth:`CellTopology.attach_phase_store`; call :meth:`save` after a
    cell's characterization to persist what the run solved (merged with
    anything the store already held for the signature).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise PhaseCacheError(
                f"phase-cache path {self.root} exists and is not a directory"
            )
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def path_for(self, topology: CellTopology, signature: tuple) -> Path:
        digest = signature_fingerprint(topology, signature)
        return self.root / f"{topology.cell.name}-{digest}.json"

    # ------------------------------------------------------------------
    def _read_payload(
        self, path: Path
    ) -> Optional[Tuple[Dict, Dict, Dict]]:
        """Parse one store file into (memoryless, history, drive) dicts.

        Corrupt files are reported (``phasecache.corrupt`` event) and
        treated as absent — the run simply solves from scratch and
        overwrites them on save.
        """
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (ValueError, OSError) as exc:
            obs.events().warning(
                "phasecache.corrupt",
                path=str(path),
                kind=type(exc).__name__,
                error=str(exc),
                msg=f"unreadable phase-cache file {path}; ignoring it",
            )
            return None
        if data.get("format") != PHASECACHE_FORMAT:
            obs.events().warning(
                "phasecache.corrupt",
                path=str(path),
                kind="format",
                error=str(data.get("format")),
                msg=f"unsupported phase-cache format in {path}; ignoring it",
            )
            return None
        memoryless: Dict[tuple, SolveResult] = {}
        history: Dict[tuple, List[int]] = {}
        drive: Dict[tuple, float] = {}
        try:
            for vector, codes, retention in data["memoryless"]:
                memoryless[tuple(vector)] = SolveResult(
                    [int(c) for c in codes], bool(retention)
                )
            for vector, observed, codes in data["history"]:
                key = (tuple(vector), tuple(observed))
                history[key] = [int(c) for c in codes]
            for first, second, out, resistance in data["drive"]:
                key = (tuple(first), tuple(second), int(out))
                drive[key] = _decode_resistance(resistance)
        except (KeyError, TypeError, ValueError) as exc:
            obs.events().warning(
                "phasecache.corrupt",
                path=str(path),
                kind=type(exc).__name__,
                error=str(exc),
                msg=f"malformed phase-cache payload in {path}; ignoring it",
            )
            return None
        return memoryless, history, drive

    def load_into(
        self,
        topology: CellTopology,
        signature: tuple,
        state: PhaseState,
    ) -> bool:
        """Prefetch one signature's persisted phases into *state*.

        Returns True when a valid file was loaded.
        """
        path = self.path_for(topology, signature)
        payload = self._read_payload(path)
        if payload is None:
            obs.metrics().inc(M_PHASECACHE_MISSES)
            return False
        memoryless, history, drive = payload
        state.prefetch_memoryless.update(memoryless)
        state.prefetch_history.update(history)
        state.prefetch_drive.update(drive)
        obs.metrics().inc(M_PHASECACHE_LOADS)
        return True

    # ------------------------------------------------------------------
    def save(self, topology: CellTopology) -> List[Path]:
        """Persist every signature the topology solved phases for.

        The written payload is the union of what the file already holds,
        any prefetched-but-unused entries, and the settled caches, so
        repeated save/load cycles are lossless and concurrent writers
        (service workers sharing one store) converge to the union.
        Entries are canonically sorted, so equal content always produces
        equal bytes.  A signature whose file parsed and already holds
        the whole union is left untouched: a warm run that solved
        nothing new writes no file.
        """
        written: List[Path] = []
        for signature, state in topology._phase_states.items():
            path = self.path_for(topology, signature)
            existing = self._read_payload(path)
            memoryless: Dict[tuple, SolveResult] = (
                dict(existing[0]) if existing else {}
            )
            history: Dict[tuple, List[int]] = (
                dict(existing[1]) if existing else {}
            )
            drive: Dict[tuple, float] = dict(existing[2]) if existing else {}
            memoryless.update(state.prefetch_memoryless)
            memoryless.update(state.memoryless)
            history.update(state.prefetch_history)
            history.update(state.history)
            drive.update(state.prefetch_drive)
            drive.update(state.drive)
            if not (memoryless or history or drive):
                continue
            if existing is not None and existing == (memoryless, history, drive):
                continue
            payload = {
                "format": PHASECACHE_FORMAT,
                "cell": topology.cell.name,
                "memoryless": [
                    [list(vector), list(result.codes), result.retention_used]
                    for vector, result in sorted(memoryless.items())
                ],
                "history": [
                    [list(vector), list(observed), list(codes)]
                    for (vector, observed), codes in sorted(history.items())
                ],
                "drive": [
                    [
                        list(first),
                        list(second),
                        out,
                        _encode_resistance(resistance),
                    ]
                    for (first, second, out), resistance in sorted(
                        drive.items()
                    )
                ],
            }
            write_text_atomic(path, json.dumps(payload, sort_keys=True))
            written.append(path)
        if written:
            obs.metrics().inc(M_PHASECACHE_STORES, len(written))
        return written


def attach_store(
    topology: CellTopology,
    phase_cache: Optional[Union[str, Path, PhaseCacheStore]],
) -> Optional[PhaseCacheStore]:
    """Normalize a path-or-store argument and attach it to *topology*."""
    if phase_cache is None:
        return None
    store = (
        phase_cache
        if isinstance(phase_cache, PhaseCacheStore)
        else PhaseCacheStore(phase_cache)
    )
    topology.attach_phase_store(store)
    return store
