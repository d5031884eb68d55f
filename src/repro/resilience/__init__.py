"""repro.resilience — checkpointed, fault-tolerant library runs.

Three layers under the run-directory service (:mod:`repro.service`;
see ``docs/resilience.md``):

* :mod:`repro.resilience.faults` — deterministic fault injection: a
  :class:`FaultPlan` scripts crashes, hangs, raised exceptions and
  corrupt checkpoints per (cell, attempt), so recovery behaviour is
  testable without real failures.
* :mod:`repro.resilience.ledger` — :class:`RunLedger`: per-cell run
  state (pending / running / done / failed / quarantined) and
  content-keyed model artifacts persisted atomically to a run
  directory; crash recovery promotes finished-but-unrecorded work.
* :mod:`repro.resilience.runner` — what the job API and the
  coordinator share: canonical (wall-clock-free) model artifacts, the
  option fingerprint behind each content key, and the assembly of a
  :class:`RunResult`, which is why a killed run resumed with
  ``resume=True`` yields a library byte-identical to an uninterrupted
  one.

Import discipline: :mod:`~repro.resilience.faults` is standard-library
only and imported eagerly (``repro.camodel.generate`` fires its solver
seam), while the ledger and runner — which depend on
:mod:`repro.camodel` — are re-exported lazily to keep the import graph
acyclic.
"""

from __future__ import annotations

from repro.resilience.faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
)

__all__ = [
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "RunDirError",
    "RunLedger",
    "RunResult",
    "canonical_model_dict",
    "quarantined_cells",
]

_LAZY = {
    "RunDirError": ("repro.resilience.ledger", "RunDirError"),
    "RunLedger": ("repro.resilience.ledger", "RunLedger"),
    "quarantined_cells": ("repro.resilience.ledger", "quarantined_cells"),
    "RunResult": ("repro.resilience.runner", "RunResult"),
    "canonical_model_dict": ("repro.resilience.runner", "canonical_model_dict"),
}


def __getattr__(name: str) -> object:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
