"""In-process library characterization.

:func:`generate_library` characterizes a library in one call of the
generation engine (through
:func:`~repro.camodel.throughput.run_throughput`), so the phases of all
its cells share packed kernel calls; ``packed=False`` selects the
scalar reference solver instead.  It runs in this one process.

This is one of the two ways to characterize a library.  The other is
the run-directory service (:func:`repro.service.submit_library` +
:func:`repro.service.serve`): checkpointed, resumable, retried and
quarantined per cell, with a per-attempt ``cell_timeout`` and N local
or external worker processes ("CPU requirements" are one of the costs
the paper lists, and the conventional flow is embarrassingly parallel
over cells).  The service is the repo's one multi-process path.  Both
produce the same canonical models.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

from repro.camodel.generate import DEFAULT_SLOW_FACTOR
from repro.camodel.model import CAModel
from repro.defects.model import Defect
from repro.library.technology import ElectricalParams
from repro.spice.netlist import CellNetlist


def ensure_unique_cell_names(names: Sequence[str]) -> None:
    """Reject duplicate cell names in one counting pass.

    A later model would silently shadow the earlier one in the returned
    ``{name: model}`` dict, so every library path treats duplicates as an
    error.  Shared by :func:`generate_library`, the cross-cell
    throughput engine and :func:`repro.service.submit_library` (the old
    per-path ``names.count(n)`` guards were O(n^2) over large
    libraries).
    """
    duplicates = sorted(
        name for name, count in Counter(names).items() if count > 1
    )
    if duplicates:
        raise ValueError(
            f"duplicate cell names in library: {', '.join(duplicates)}"
        )


class LibraryGenerationError(RuntimeError):
    """One or more cells failed; every completed sibling is attached.

    ``completed`` holds the models of every cell that finished before
    (or while) the failures happened, so a caller can keep partial
    results instead of losing the whole run; ``failures`` is a list of
    ``{"cell", "error", "traceback"}`` records.  For retry / quarantine
    / resume semantics on top of this, use the run-directory service
    (:func:`repro.service.submit_library` + :func:`repro.service.serve`).
    """

    def __init__(
        self,
        failures: List[Dict[str, str]],
        completed: Dict[str, CAModel],
    ) -> None:
        self.failures = failures
        self.completed = completed
        names = ", ".join(sorted(f["cell"] for f in failures))
        super().__init__(
            f"{len(failures)} cell(s) failed during library generation "
            f"({names}); {len(completed)} completed model(s) attached as "
            ".completed"
        )


def generate_library(
    cells: Sequence[CellNetlist],
    policy: str = "auto",
    params: Optional[ElectricalParams] = None,
    universe: Optional[Sequence[Defect]] = None,
    delay_detection: bool = True,
    slow_factor: float = DEFAULT_SLOW_FACTOR,
    packed: bool = True,
) -> Dict[str, CAModel]:
    """Characterize many cells in this process.

    Returns ``{cell name: CAModel}``; duplicate cell names are an error
    (the later model would silently shadow the earlier one).  If any
    cell fails, the completed siblings are never discarded: the raised
    :class:`LibraryGenerationError` carries them as ``.completed``.

    Every cell goes through one engine call
    (:func:`~repro.camodel.throughput.run_throughput`), so the phases
    of all cells share kernel calls.  ``packed=False`` selects the
    scalar reference solver, which is identity-preserving: detection
    tables, golden responses and solve/cache-hit counts are identical
    either way (the scalar solver reports zero ``batched_phases``).

    Checkpointing, retries, quarantine, resume, cell timeouts and
    multi-process runs belong to the run-directory service:
    :func:`repro.service.submit_library` then
    :func:`repro.service.serve`.
    """
    from repro.camodel.throughput import run_throughput

    return run_throughput(
        cells,
        policy=policy,
        params=params,
        universe=universe,
        delay_detection=delay_detection,
        slow_factor=slow_factor,
        packed=packed,
    )
