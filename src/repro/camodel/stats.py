"""Library-level CA model statistics.

Aggregates the quantities the paper's motivation section argues about:
how many simulations a library costs, how defect types distribute, how
redundant the defect universe is, and how all of this scales with cell
complexity.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Iterable, List, Mapping, Tuple

import numpy as np

from repro.camodel.model import CAModel, DYNAMIC, STATIC, UNDETECTED
from repro.spice.netlist import CellNetlist

# ----------------------------------------------------------------------
# Metric names (repro.obs registry) GenerationStats is a view over.
# ----------------------------------------------------------------------
M_SOLVES = "camodel.sim.solves"
M_CACHE_HITS = "camodel.sim.cache_hits"
M_BATCHED = "camodel.sim.batched_phases"
M_SIMULATED = "camodel.defects.simulated"
M_SKIPPED = "camodel.defects.skipped"
M_GOLDEN_SECONDS = "camodel.seconds.golden"
M_DEFECT_SECONDS = "camodel.seconds.defects"
M_TOTAL_SECONDS = "camodel.seconds.total"
#: histogram (one sample per finished cell) — p50/p95/p99 of per-cell
#: generation wall time in ``--stats`` / inspect output
M_CELL_SECONDS = "camodel.seconds.per_cell"


@dataclass
class GenerationStats:
    """Cost accounting of one cell's conventional generation.

    Extends the engine's per-simulator ``solve_count`` into a whole-run
    record: how many solver phases actually ran, how many were served
    from the memoization caches, and how the wall time split across the
    golden pass and the defect pass.  Attached to
    :class:`~repro.camodel.model.CAModel` and serialized with it.

    The counters are the cell's own.  The seconds are timed once per
    engine call (:mod:`repro.camodel.generate`): the golden phase (setup
    and golden pass), the defect phase (defect pass and assembly) and
    the whole call.  A one-cell call
    (:func:`~repro.camodel.generate.generate_ca_model`,
    :func:`~repro.camodel.generate.generate_multi`) gets those wall
    times as they are.  A library call
    (:func:`~repro.camodel.throughput.run_throughput`,
    :func:`~repro.camodel.batch.generate_library`) packs all its cells
    into shared kernel calls, so each of the three times is split
    across the cells that complete, in proportion to their
    ``simulation_count`` (stimuli x (1 + simulated defects)); the
    per-cell seconds of one call then add up to its timed phases.
    Canonical artifacts zero every seconds field.

    ``workers`` and ``merge_seconds`` stay in the serialized record so
    the model JSON keeps its shape: generation runs in one process, so
    a new model carries 1 and 0.0, and files written with more workers
    still load.
    """

    #: worker processes the defect loop used (always 1 since generation
    #: runs in one process; older files may hold more)
    workers: int = 1
    #: solver phase solves actually performed (golden pass included)
    solves: int = 0
    #: memoized phase lookups answered without a solve
    cache_hits: int = 0
    #: phase solves that ran through the vectorized batch kernel (a
    #: subset of ``solves``; 0 when the scalar path was forced)
    batched_phases: int = 0
    #: defects that went through the simulator
    simulated_defects: int = 0
    #: benign / golden-equivalent defects short-circuited before any solver
    skipped_defects: int = 0
    #: wall time of the golden pass (stimuli + reference resistances)
    golden_seconds: float = 0.0
    #: wall time of the defect pass and per-defect assembly
    defect_seconds: float = 0.0
    #: wall time spent merging per-worker results (0.0 in one process)
    merge_seconds: float = 0.0
    #: end-to-end wall time of the generation call
    total_seconds: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of phase lookups served from a cache."""
        lookups = self.solves + self.cache_hits
        return self.cache_hits / lookups if lookups else 0.0

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "GenerationStats":
        known = {f.name for f in fields(cls)}
        unknown = sorted(k for k in data if k not in known)
        if unknown:
            # A newer writer added fields this reader does not know; the
            # load still succeeds, but say which keys were dropped instead
            # of silently ignoring them.
            from repro import obs

            obs.events().warning(
                "stats.unknown_keys",
                keys=unknown,
                msg=(
                    "GenerationStats ignoring unknown keys from a newer "
                    f"writer: {', '.join(unknown)}"
                ),
            )
        return cls(**{k: v for k, v in data.items() if k in known})

    @classmethod
    def from_metrics(cls, counters: Mapping[str, float]) -> "GenerationStats":
        """Build the stats record from a run's metric counter deltas.

        The generation flow accounts everything into the
        :mod:`repro.obs` metrics registry and derives the attached stats
        from it, so the registry is the single source of truth — there is
        no parallel bookkeeping path that could drift.
        """
        return cls(
            solves=int(counters.get(M_SOLVES, 0)),
            cache_hits=int(counters.get(M_CACHE_HITS, 0)),
            batched_phases=int(counters.get(M_BATCHED, 0)),
            simulated_defects=int(counters.get(M_SIMULATED, 0)),
            skipped_defects=int(counters.get(M_SKIPPED, 0)),
            golden_seconds=float(counters.get(M_GOLDEN_SECONDS, 0.0)),
            defect_seconds=float(counters.get(M_DEFECT_SECONDS, 0.0)),
            total_seconds=float(counters.get(M_TOTAL_SECONDS, 0.0)),
        )

    def summary(self) -> Dict[str, object]:
        """Compact description used by reports and the CLI."""
        return {
            "workers": self.workers,
            "solves": self.solves,
            "cache_hits": self.cache_hits,
            "batched_phases": self.batched_phases,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "simulated_defects": self.simulated_defects,
            "skipped_defects": self.skipped_defects,
            "golden_seconds": round(self.golden_seconds, 4),
            "defect_seconds": round(self.defect_seconds, 4),
            "merge_seconds": round(self.merge_seconds, 4),
            "total_seconds": round(self.total_seconds, 4),
        }


@dataclass
class CellStats:
    """Summary of one cell's CA model."""

    cell_name: str
    function: str
    n_inputs: int
    n_transistors: int
    n_defects: int
    n_stimuli: int
    n_classes: int
    coverage: float
    simulations: int
    types: Dict[str, int]


@dataclass
class LibraryStats:
    """Aggregate over a library's CA models."""

    cells: List[CellStats] = field(default_factory=list)

    def add(self, cell: CellNetlist, model: CAModel) -> None:
        self.cells.append(
            CellStats(
                cell_name=cell.name,
                function=cell.function,
                n_inputs=cell.n_inputs,
                n_transistors=cell.n_transistors,
                n_defects=model.n_defects,
                n_stimuli=model.n_stimuli,
                n_classes=len(model.equivalence()),
                coverage=model.coverage(),
                simulations=model.simulation_count,
                types=model.type_counts(),
            )
        )

    # ------------------------------------------------------------------
    def total_simulations(self) -> int:
        return sum(c.simulations for c in self.cells)

    def mean_coverage(self) -> float:
        if not self.cells:
            return 0.0
        return float(np.mean([c.coverage for c in self.cells]))

    def type_totals(self) -> Dict[str, int]:
        totals = {STATIC: 0, DYNAMIC: 0, UNDETECTED: 0}
        for c in self.cells:
            for key, value in c.types.items():
                totals[key] += value
        return totals

    def redundancy(self) -> float:
        """Fraction of defects removed by equivalence collapsing."""
        defects = sum(c.n_defects for c in self.cells)
        classes = sum(c.n_classes for c in self.cells)
        return 1.0 - classes / defects if defects else 0.0

    def by_function(self) -> Dict[str, Dict[str, float]]:
        """Per-function means of coverage and redundancy."""
        out: Dict[str, Dict[str, float]] = {}
        groups: Dict[str, List[CellStats]] = {}
        for c in self.cells:
            groups.setdefault(c.function, []).append(c)
        for function, items in groups.items():
            out[function] = {
                "cells": len(items),
                "coverage": float(np.mean([c.coverage for c in items])),
                "classes": float(np.mean([c.n_classes for c in items])),
                "simulations": float(np.mean([c.simulations for c in items])),
            }
        return out

    def simulations_by_size(self) -> List[Tuple[int, float]]:
        """(transistor count, mean simulations) series — the scaling curve
        behind the paper's months-per-library complaint."""
        groups: Dict[int, List[int]] = {}
        for c in self.cells:
            groups.setdefault(c.n_transistors, []).append(c.simulations)
        return [
            (size, float(np.mean(values)))
            for size, values in sorted(groups.items())
        ]


def library_stats(
    pairs: Iterable[Tuple[CellNetlist, CAModel]]
) -> LibraryStats:
    """Build :class:`LibraryStats` from (cell, model) pairs."""
    stats = LibraryStats()
    for cell, model in pairs:
        stats.add(cell, model)
    return stats
