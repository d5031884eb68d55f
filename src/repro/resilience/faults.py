"""Deterministic fault injection for the resilient run layer.

Real crash-recovery bugs hide behind nondeterministic failures; this
module makes failure *scriptable* so the chaos suites can assert exact
recovery behaviour without real crashes.  A :class:`FaultPlan` is a list
of :class:`FaultRule`\\ s, each naming a cell, a failure mode and the
attempt indices it fires on.  The plan rides the ``job.json`` manifest
of :func:`repro.service.submit_library`; a service worker *activates*
it for each (cell, attempt) it claims and production code calls
:func:`fire` at a few well-known sites:

``worker.start``
    entered when the worker starts an attempt (``crash`` and ``hang``
    modes fire here: ``crash`` exits the whole worker process, ``hang``
    blocks until the coordinator's ``cell_timeout`` stops it)
``solver``
    inside :func:`repro.camodel.generate.generate_ca_model`, after the
    stimulus set and defect universe are built (``raise`` mode fires
    here — a real exception from deep inside generation)
``artifact.write``
    in the worker just before the model artifact is persisted
    (``corrupt-artifact`` and ``midwrite-kill`` fire here)

With no plan activated :func:`fire` is a single global ``is None`` check
— the seam costs nothing in production.  This module imports only the
standard library so :mod:`repro.camodel.generate` can depend on it
without a cycle.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

#: exit code of a ``crash``-mode fault (distinguishable from a worker
#: exception, which exits with :data:`EXCEPTION_EXIT`)
CRASH_EXIT = 70
#: exit code a worker uses after writing a structured error record
EXCEPTION_EXIT = 71
#: exit code of a ``midwrite-kill`` fault (mimics SIGKILL during a write)
MIDWRITE_EXIT = 73

#: any cell / any attempt wildcard
ANY = "*"

SITE_WORKER_START = "worker.start"
SITE_SOLVER = "solver"
SITE_ARTIFACT_WRITE = "artifact.write"

#: failure mode -> the site it fires at
MODE_SITES = {
    "crash": SITE_WORKER_START,
    "hang": SITE_WORKER_START,
    "raise": SITE_SOLVER,
    "corrupt-artifact": SITE_ARTIFACT_WRITE,
    "midwrite-kill": SITE_ARTIFACT_WRITE,
}


class InjectedFault(RuntimeError):
    """Exception raised by a ``raise``-mode fault rule."""


@dataclass(frozen=True)
class FaultRule:
    """One scripted failure: *mode* for *cell* on the given *attempts*.

    ``attempts`` is a tuple of 0-based attempt indices; empty means the
    rule fires on every attempt (a permanently broken cell).  ``cell``
    may be ``"*"`` to match any cell.
    """

    cell: str = ANY
    mode: str = "raise"
    attempts: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in MODE_SITES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; "
                f"choose from {sorted(MODE_SITES)}"
            )

    @property
    def site(self) -> str:
        return MODE_SITES[self.mode]

    def matches(self, site: str, cell: str, attempt: int) -> bool:
        if site != self.site:
            return False
        if self.cell != ANY and self.cell != cell:
            return False
        return not self.attempts or attempt in self.attempts

    def to_dict(self) -> Dict[str, object]:
        return {
            "cell": self.cell,
            "mode": self.mode,
            "attempts": list(self.attempts),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultRule":
        return cls(
            cell=str(data.get("cell", ANY)),
            mode=str(data.get("mode", "raise")),
            attempts=tuple(int(a) for a in data.get("attempts", ())),
        )


@dataclass
class FaultPlan:
    """A deterministic failure script: the first matching rule fires."""

    rules: List[FaultRule] = field(default_factory=list)

    def find(self, site: str, cell: str, attempt: int) -> Optional[FaultRule]:
        for rule in self.rules:
            if rule.matches(site, cell, attempt):
                return rule
        return None

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {"rules": [rule.to_dict() for rule in self.rules]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        return cls(
            rules=[FaultRule.from_dict(r) for r in data.get("rules", [])]
        )

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        # A fault plan is chaos-test *input* the user writes and hands to
        # --faults, not a run-dir artifact crash recovery must trust.
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")  # reprolint: disable=RPL102
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# Worker-side activation
# ----------------------------------------------------------------------

#: (plan, cell, attempt) the current process is scripted with, if any
_active: Optional[Tuple[FaultPlan, str, int]] = None


def activate(plan: Optional[FaultPlan], cell: str, attempt: int) -> None:
    """Arm *plan* for this process's (cell, attempt); ``None`` disarms."""
    global _active
    _active = None if plan is None else (plan, cell, attempt)


def deactivate() -> None:
    """Disarm any active plan (tests use this in teardown)."""
    global _active
    _active = None


def fire(site: str, cell: Optional[str] = None) -> Optional[FaultRule]:
    """Fire the active rule for *site*, if any.

    ``crash`` exits the process, ``hang`` sleeps until killed, ``raise``
    raises :class:`InjectedFault`.  The artifact-site modes return the
    matched rule so the artifact writer can enact them (it owns the file
    handles); all other callers treat a non-``None`` return as "a fault
    is scripted here".  *cell* lets a call site name the cell it is
    actually working on (inline runs characterize many cells in one
    process); by default the activated context's cell is matched.
    """
    if _active is None:
        return None
    plan, context_cell, attempt = _active
    cell = cell if cell is not None else context_cell
    rule = plan.find(site, cell, attempt)
    if rule is None:
        return None
    if rule.mode == "crash":
        os._exit(CRASH_EXIT)
    if rule.mode == "hang":
        while True:  # until the coordinator's cell_timeout stops us
            time.sleep(0.05)
    if rule.mode == "raise":
        raise InjectedFault(
            f"injected fault: cell={cell} attempt={attempt} site={site}"
        )
    return rule


def plan_from_payload(data: Optional[Dict[str, object]]) -> Optional[FaultPlan]:
    """Rebuild a plan shipped through a worker payload dict."""
    return None if data is None else FaultPlan.from_dict(data)


def enact_artifact_fault(
    rule: FaultRule,
    artifact: Path,
    data: Dict[str, object],
    cell: str,
) -> None:
    """Carry out an ``artifact.write``-site fault; exits when one fires.

    Called by the leased worker of :mod:`repro.service.worker` just
    before its commit; each mode tears the checkpoint the way a real
    failure would:

    * ``corrupt-artifact`` — a valid-looking path with unparseable
      content, written *without* the atomic rename (this fault exists to
      violate the write discipline), then a clean exit: the coordinator
      must detect the corruption itself.
    * ``midwrite-kill`` — a torn same-directory temp file and a hard
      exit before any rename, mimicking SIGKILL mid-write: the
      coordinator must see a crash and no artifact.
    """
    if rule.mode == "corrupt-artifact":
        artifact.write_text('{"format": 1, "cell": "' + cell)  # reprolint: disable=RPL102
        os._exit(0)
    if rule.mode == "midwrite-kill":
        stray = artifact.parent / f".{artifact.name}.partial.tmp"
        # Deliberately torn temp file (simulated mid-write SIGKILL).
        stray.write_text(json.dumps(data)[: max(1, len(cell))])  # reprolint: disable=RPL102
        os._exit(MIDWRITE_EXIT)
