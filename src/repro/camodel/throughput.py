"""Whole-library characterization through the one conventional engine.

:func:`run_throughput` hands every cell of a library to the generation
engine (:mod:`repro.camodel.generate`) in one call.  The pending phase
batches of *every* cell and *every* defect are then packed into shared
multi-topology :func:`~repro.simulation.packed.solve_packed` kernel
calls, while the per-cell golden assembly and detection loops — the
code that defines the semantics — run afterwards against the staged
results.  For small cells the per-call NumPy overhead would otherwise
dominate.

Identity guarantee: for every cell the produced :class:`CAModel` is
byte-identical (canonical form) to ``generate_ca_model(cell)``, counters
included.  Both run the same engine; the packed planner charges each
simulator the solve/cache-hit/batched increments a one-cell call would
(:func:`~repro.simulation.engine.solve_words_across`), and assembly runs
in cell-major, defect-minor order.

A failing cell never discards its completed siblings: the raised
:class:`~repro.camodel.batch.LibraryGenerationError` carries them as
``.completed``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro import obs
from repro.camodel.batch import (
    LibraryGenerationError,
    ensure_unique_cell_names,
)
from repro.camodel.generate import (
    DEFAULT_SLOW_FACTOR,
    PhaseCacheArg,
    _characterize,
)
from repro.camodel.model import CAModel
from repro.defects.model import Defect
from repro.library.technology import ElectricalParams
from repro.spice.netlist import CellNetlist

# Kept for the end-to-end benchmark's span recorder, which patches these
# names in this module (benchmarks/e2e/recorder.py, TARGETS); the engine
# looks them up in repro.camodel.generate.
from repro.defects.universe import default_universe  # noqa: F401
from repro.simulation.engine import solve_words_across  # noqa: F401

#: obs metric name (registered in repro.lint.catalog)
M_THROUGHPUT_CELLS = "throughput.cells"


def run_throughput(
    cells: Sequence[CellNetlist],
    policy: str = "auto",
    params: Optional[ElectricalParams] = None,
    universe: Optional[Sequence[Defect]] = None,
    keep_responses: bool = False,
    delay_detection: bool = True,
    slow_factor: float = DEFAULT_SLOW_FACTOR,
    packed: bool = True,
    phase_cache: PhaseCacheArg = None,
) -> Dict[str, CAModel]:
    """Characterize a whole library in one engine call.

    Returns ``{cell name: CAModel}`` (each cell's first output) with
    every model byte-identical (canonical form, counters included) to a
    ``generate_ca_model(cell, ...)`` run with the same options; see
    there for the options.  ``packed=False`` selects the scalar
    reference solver for every cell.  Duplicate cell names are an error.

    Each shared phase's wall time is split across the cells as
    :class:`~repro.camodel.stats.GenerationStats` documents; canonical
    artifact comparison zeroes the seconds anyway.
    """
    ensure_unique_cell_names([cell.name for cell in cells])
    jobs = [(cell, [cell.outputs[0]]) for cell in cells]
    models, failures = _characterize(
        jobs,
        params=params,
        policy=policy,
        universe=universe,
        keep_responses=keep_responses,
        delay_detection=delay_detection,
        slow_factor=slow_factor,
        packed=packed,
        phase_cache=phase_cache,
    )
    out = {
        cell.name: models[cell.name][ports[0]]
        for cell, ports in jobs
        if cell.name in models
    }
    obs.metrics().inc(M_THROUGHPUT_CELLS, len(out))
    if failures:
        raise LibraryGenerationError(
            [
                {
                    "cell": name,
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": trace,
                }
                for name, exc, trace in failures
            ],
            completed=out,
        )
    return out
