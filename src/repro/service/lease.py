"""Atomic per-cell lease files — the claim substrate of the service.

A lease is one JSON file ``<run_dir>/leases/<cell>.json`` holding the
owner id, the attempt index, the acquire/heartbeat timestamps and the
expiry deadline.  Claiming is an **exclusive publish**: the complete
record goes to a private temp file in the lease directory, which is then
hardlinked to the lease path (``os.link`` fails when the path exists).
The filesystem serializes racing workers, exactly one claim per vacant
path succeeds, everyone else gets ``FileExistsError`` and moves on — and
no reader ever sees a claim before its record is whole.  Holding a lease
entitles a worker to characterize that cell; it does **not** decide
correctness — the single serialization point for completion is the
artifact commit (:func:`repro.service.worker.commit_artifact`'s
exclusive hardlink), so even a pathological lease race can only waste
work, never complete a cell twice or corrupt a byte.

Liveness comes from the heartbeat/expiry pair:

* the holder re-stamps ``heartbeat``/``expires`` (atomic temp-file +
  ``os.replace`` rewrite) every few seconds while it works; a holder
  that finds its file missing or owned by someone else has **lost** the
  lease and must discard its work before the commit point;
* the coordinator — and only the coordinator, so expiry has a single
  reaper and no steal races between workers — removes leases whose
  deadline passed (:meth:`LeaseStore.reap_expired`).  A SIGKILLed
  external worker's cell is therefore re-leased after at most one TTL,
  not lost.  The coordinator also reaps, without waiting for the TTL,
  the leases of its own local workers that died and of attempts past
  the job's ``cell_timeout``.

An unparseable lease file (torn by hand or by a foreign writer) is
treated as expired, so the reaper may take it immediately.

The lease state machine of one cell (see ``docs/resilience.md``)::

    pending ── claim (exclusive link) ──► leased
    leased  ── heartbeat ─────────────► leased      (deadline pushed)
    leased  ── release / commit ──────► done        (artifact committed)
    leased  ── worker failure ────────► pending     (error recorded)
    leased  ── TTL expiry, reaped ────► pending     (re-leased, not lost)
    leased  ── holder dead / timeout ─► pending     (reaped at once)
    pending ── retry budget exhausted ► quarantined
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Collection, Dict, List, Mapping, Optional, Union

from repro import obs
from repro.atomic import write_text_atomic

LEASE_FORMAT = 1

#: default seconds a lease stays valid without a heartbeat
DEFAULT_TTL = 15.0

# lease metric/event names (registered in repro.lint.catalog)
M_CLAIMS = "lease.claims"
M_CONFLICTS = "lease.conflicts"
M_HEARTBEATS = "lease.heartbeats"
M_LOST = "lease.lost"
M_RELEASES = "lease.releases"
M_REAPED = "lease.reaped"
E_EXPIRED = "lease.expired"


@dataclass
class Lease:
    """One held claim: the ticket a worker carries while characterizing."""

    cell: str
    owner: str
    attempt: int
    acquired: float
    heartbeat: float
    expires: float
    ttl: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": LEASE_FORMAT,
            "cell": self.cell,
            "owner": self.owner,
            "attempt": self.attempt,
            "acquired": self.acquired,
            "heartbeat": self.heartbeat,
            "expires": self.expires,
            "ttl": self.ttl,
        }


class LeaseStore:
    """Claim / heartbeat / release / reap over one run directory.

    *clock* is injectable so the property suite can drive expiry
    deterministically; production uses wall-clock time.
    """

    def __init__(
        self,
        run_dir: Union[str, Path],
        ttl: float = DEFAULT_TTL,
        clock: Callable[[], float] = time.time,
        registry: Optional[obs.Metrics] = None,
        events: Optional[obs.EventLog] = None,
    ) -> None:
        self.run_dir = Path(run_dir)
        self.lease_dir = self.run_dir / "leases"
        self.lease_dir.mkdir(parents=True, exist_ok=True)
        self.ttl = float(ttl)
        self.clock = clock
        # Pinned instrumentation: the heartbeat runs on a side thread
        # while the worker's main thread holds an attempt-scoped
        # obs.scoped() swap, and the attempt's counters must stay
        # byte-identical to a sequential run's — a heartbeat increment
        # leaking into them would diverge metrics_total().  Callers in
        # that position inject the process-level registry explicitly.
        self._registry = registry
        self._events = events

    def _metrics(self) -> obs.Metrics:
        return self._registry if self._registry is not None else obs.metrics()

    def _event_log(self) -> obs.EventLog:
        return self._events if self._events is not None else obs.events()

    # ------------------------------------------------------------------
    def path(self, cell: str) -> Path:
        return self.lease_dir / f"{cell}.json"

    def read(self, cell: str) -> Optional[Dict[str, object]]:
        """Current lease record of *cell*, or ``None`` when unleased.

        A present-but-unparseable file is returned as an empty dict so
        the reaper can distinguish "vacant" from "torn claim".
        """
        try:
            text = self.path(cell).read_text()
        except (FileNotFoundError, OSError):
            return None
        try:
            data = json.loads(text)
        except (ValueError, json.JSONDecodeError):
            return {}
        return data if isinstance(data, dict) else {}

    def held(self) -> Dict[str, Dict[str, object]]:
        """Every currently claimed cell and its lease record."""
        out: Dict[str, Dict[str, object]] = {}
        for path in sorted(self.lease_dir.glob("*.json")):
            record = self.read(path.stem)
            if record is not None:
                out[path.stem] = record
        return out

    # ------------------------------------------------------------------
    def claim(self, cell: str, owner: str, attempt: int) -> Optional[Lease]:
        """Try to claim *cell*; ``None`` when someone else holds it.

        The exclusive link is the whole protocol: exactly one racer per
        vacant path wins, and nobody ever overwrites a live claim.  The
        record is complete on disk before the link publishes it — a
        reaper reading an empty, just-created lease file would take it
        for a torn claim and reap a live lease.
        """
        now = self.clock()
        lease = Lease(
            cell=cell,
            owner=owner,
            attempt=int(attempt),
            acquired=now,
            heartbeat=now,
            expires=now + self.ttl,
            ttl=self.ttl,
        )
        blob = json.dumps(lease.to_dict(), sort_keys=True).encode()
        fd, tmp = tempfile.mkstemp(
            dir=self.lease_dir, prefix=f".{cell}.", suffix=".claim.tmp"
        )
        try:
            try:
                os.write(fd, blob)
            finally:
                os.close(fd)
            os.link(tmp, self.path(cell))
        except FileExistsError:
            self._metrics().inc(M_CONFLICTS)
            return None
        finally:
            os.unlink(tmp)
        self._metrics().inc(M_CLAIMS)
        return lease

    def heartbeat(self, lease: Lease) -> bool:
        """Re-stamp the holder's deadline; ``False`` when the lease is lost.

        Lost means the file is gone (reaped) or carries another owner
        (reaped and re-claimed).  A holder that sees ``False`` must
        discard its work before the commit point.
        """
        current = self.read(lease.cell)
        if not current or current.get("owner") != lease.owner:
            self._metrics().inc(M_LOST)
            return False
        now = self.clock()
        lease.heartbeat = now
        lease.expires = now + self.ttl
        write_text_atomic(
            self.path(lease.cell), json.dumps(lease.to_dict(), sort_keys=True)
        )
        self._metrics().inc(M_HEARTBEATS)
        return True

    def release(self, lease: Lease) -> bool:
        """Drop the holder's claim; ``False`` when it was already lost."""
        current = self.read(lease.cell)
        if not current or current.get("owner") != lease.owner:
            self._metrics().inc(M_LOST)
            return False
        try:
            self.path(lease.cell).unlink()
        except FileNotFoundError:  # pragma: no cover - benign race
            pass
        self._metrics().inc(M_RELEASES)
        return True

    # ------------------------------------------------------------------
    def expired(self, record: Mapping[str, object]) -> bool:
        """True when *record* (from :meth:`read`) is past its deadline."""
        if not record:
            return True  # torn record: nothing left to wait for
        try:
            return self.clock() > float(record["expires"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError):
            return True

    def reap_expired(
        self,
        before_unlink: Optional[
            Callable[[str, Dict[str, object]], None]
        ] = None,
        held: Optional[Mapping[str, Dict[str, object]]] = None,
        doomed: Collection[str] = (),
    ) -> List[Dict[str, object]]:
        """Remove every expired lease; returns the reaped records.

        Coordinator-only by convention: a single reaper per run means
        expiry can never race itself, and workers never steal — they
        just see a vacant path on their next claim scan.

        *before_unlink* runs per reaped lease while the claim file still
        blocks re-claiming — the coordinator uses it to persist the dead
        attempt's failure (shard + ledger record) first, so a worker that
        claims the vacant path immediately afterwards always sees the
        previous attempt on disk and can never reuse its attempt index.

        *held* is a snapshot from :meth:`held` to reap from instead of
        scanning the directory again; *doomed* names cells whose lease
        goes now whatever its deadline (a dead holder, an attempt past
        its timeout).
        """
        reaped: List[Dict[str, object]] = []
        snapshot = self.held() if held is None else held
        for cell, record in snapshot.items():
            if cell not in doomed and not self.expired(record):
                continue
            record = dict(record)
            record.setdefault("cell", cell)
            if before_unlink is not None:
                before_unlink(cell, record)
            try:
                self.path(cell).unlink()
            except FileNotFoundError:  # pragma: no cover - benign race
                continue
            reaped.append(record)
            self._metrics().inc(M_REAPED)
            self._event_log().warning(
                E_EXPIRED,
                cell=cell,
                owner=str(record.get("owner", "?")),
                attempt=int(record.get("attempt", -1))
                if str(record.get("attempt", "")).lstrip("-").isdigit()
                else -1,
                msg=(
                    f"lease on {cell} (owner "
                    f"{record.get('owner', '?')}) reaped; re-leasing"
                ),
            )
        return reaped
