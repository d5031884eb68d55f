"""Stateless leased characterization worker.

One worker process drains one run directory: it repeatedly loads a
read-only snapshot of the :class:`~repro.resilience.ledger.RunLedger`,
claims a claimable cell through the
:class:`~repro.service.lease.LeaseStore`, characterizes it in-process,
and commits the canonical artifact.  Workers never write the ledger —
state transitions are the coordinator's job
(:mod:`repro.service.coordinator`) — so any number of workers on any
number of machines can point at the same directory with no coordination
channel beyond the filesystem.

A cell is **claimable** when its ledger state is ``pending`` or
``failed``, its artifact is absent, no structured error record is
waiting for the coordinator, and its lease path is vacant.  The claim
itself (exclusive link) is the only serialization needed; everything
afterwards is belt-and-braces:

* a heartbeat thread re-stamps the lease at ``ttl/4``; if the lease is
  ever lost (the coordinator reaped it and the cell may already be
  re-leased), the attempt's results are **discarded before the commit
  point** — nothing is written;
* the commit itself (:func:`commit_artifact`) lands the canonical model
  bytes in the shared content-addressed store ``<run_dir>/cas/`` and
  exposes them via an **exclusive hardlink** at the ledger's artifact
  path, so even two workers racing the same cell can complete it at
  most once.

Replay identity: each attempt parses its cell and runs under a fresh
obs scope, and the generation engine keeps no state between calls, so a
warm long-lived worker records exactly the counters a cold one-attempt
process records — ``metrics_total()`` does not depend on which worker
ran which cell, or how many cells it ran before.

The lifetime attempt index is recovered from the run directory itself
(existing telemetry shards + the ledger's attempt count), not from any
in-memory state, so a worker that dies and a fresh one that takes over
continue one numbering across workers and resumed sessions.

A local worker (spawned by :func:`repro.service.coordinator.serve`)
leaves at its next claim scan once that coordinator has died; an
external ``python -m repro worker`` has no such parent and runs until
the job completes.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro import obs
from repro.atomic import write_text_atomic
from repro.obs import store as obs_store
from repro.camodel.generate import generate_ca_model
from repro.resilience import faults
from repro.resilience.ledger import (
    DONE,
    FAILED,
    PENDING,
    QUARANTINED,
    RunLedger,
)
from repro.resilience.runner import canonical_model_dict
from repro.service.api import Job, JobManifest
from repro.service.lease import Lease, LeaseStore
from repro.spice.parser import parse_cell

# service metric/event names (registered in repro.lint.catalog)
M_WORKER_CELLS = "service.cells"
M_WORKER_FAILURES = "service.failures"
M_COMMITS = "service.commits"
M_COMMIT_RACES = "service.commit_races"
M_DISCARDS = "service.discards"
E_WORKER_START = "service.worker_start"
E_WORKER_EXIT = "service.worker_exit"
E_DISCARD = "service.discard"

#: idle sleep between claim scans [s]
POLL_INTERVAL = 0.05


def commit_artifact(
    run_dir: Union[str, Path], artifact: Path, data: Dict[str, object]
) -> bool:
    """Commit one canonical model into the shared store; True on success.

    The bytes land once in the content-addressed store
    ``<run_dir>/cas/<sha256(bytes)>.json`` (atomic write; duplicate work
    by two attempts writes identical bytes, so re-writing is harmless),
    then surface at the ledger's artifact path via ``os.link`` — an
    **exclusive** operation: the first committer wins, a loser gets
    ``FileExistsError`` back as ``False`` and discards its attempt.
    This hardlink is the exactly-once point of the whole service; the
    lease protocol above it only exists to make losing rare.

    A blob is linked only when its bytes are the commit's: an artifact
    written in place (a corrupt checkpoint) rewrites its blob through
    the shared inode, so a name match alone proves nothing.  A stale
    blob is replaced atomically, which gives it a fresh inode.
    """
    blob = json.dumps(data)
    cas_dir = Path(run_dir) / "cas"
    digest = hashlib.sha256(blob.encode()).hexdigest()[:24]
    cas_path = cas_dir / f"{digest}.json"
    try:
        current: Optional[str] = cas_path.read_text()
    except FileNotFoundError:
        current = None
    if current != blob:
        write_text_atomic(cas_path, blob)
    try:
        os.link(cas_path, artifact)
    except FileExistsError:
        obs.metrics().inc(M_COMMIT_RACES)
        return False
    obs.metrics().inc(M_COMMITS)
    return True


def next_attempt_index(
    obs_dir: Path, cell: str, key: str, ledger_attempts: int
) -> int:
    """Lifetime attempt index for the next attempt of (cell, key).

    Every finished attempt leaves a shard ``<cell>-<key>.a<NNN>.json``
    *before* its lease goes vacant (workers write theirs before
    releasing; the coordinator writes a dead attempt's before unlinking
    the reaped lease), so scanning the shards at claim time is
    race-free.  The ledger's own attempt count is folded in as a floor
    for runs whose earlier sessions ran without telemetry shards.
    """
    highest = -1
    if obs_dir.is_dir():
        prefix = f"{cell}-{key}.a"
        for path in obs_dir.glob(f"{cell}-{key}.a*.json"):
            tail = path.name[len(prefix):].rpartition(".json")[0]
            if tail.isdigit():
                highest = max(highest, int(tail))
    return max(highest + 1, int(ledger_attempts))


class _Heartbeat:
    """Background lease renewal for one attempt; flags a lost lease."""

    def __init__(self, leases: LeaseStore, lease: Lease) -> None:
        self.leases = leases
        self.lease = lease
        self.stop = threading.Event()
        self.lost = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        interval = max(0.05, self.leases.ttl / 4.0)
        while not self.stop.wait(interval):
            if not self.leases.heartbeat(self.lease):
                self.lost.set()
                return

    def __enter__(self) -> "_Heartbeat":
        self.thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop.set()
        self.thread.join(timeout=2.0)

    def still_held(self) -> bool:
        """Final owner check at a decision point (also re-stamps)."""
        return not self.lost.is_set() and self.leases.heartbeat(self.lease)


def run_attempt(
    run_dir: Path,
    manifest: JobManifest,
    ledger: RunLedger,
    leases: LeaseStore,
    lease: Lease,
    store: obs_store.ObsStore,
    plan: Optional[faults.FaultPlan],
    events: obs.EventLog,
) -> bool:
    """Characterize one claimed cell; True when this attempt committed.

    The fault plan is armed for this (cell, attempt) first.  Results
    are only persisted while the lease is still held: the sidecar, then
    the artifact through the exclusive CAS commit, then the attempt's
    telemetry shard.  A clean failure leaves a structured error record
    for the coordinator instead.
    """
    name = lease.cell
    key = str(ledger.cells[name]["key"])
    record = manifest.cell_record(name)
    faults.activate(plan, cell=name, attempt=lease.attempt)
    worker_tracer = obs.Tracer(enabled=True)
    worker_metrics = obs.Metrics()
    worker_events = obs.ListSink()
    started_wall = time.time()
    shard_path = store.attempt_shard_path(name, key, lease.attempt)

    def write_shard(
        outcome: str, seconds: float, error: Optional[str] = None
    ) -> None:
        obs_store.write_attempt_shard(
            shard_path,
            cell=name,
            key=key,
            attempt=lease.attempt,
            outcome=outcome,
            pid=os.getpid(),
            started=started_wall,
            seconds=seconds,
            counters=worker_metrics.snapshot()["counters"],
            spans=worker_tracer.export(),
            events=[event.to_dict() for event in worker_events.events],
            error=error,
        )

    def discard(reason: str) -> None:
        leases._metrics().inc(M_DISCARDS)
        events.warning(
            E_DISCARD,
            cell=name,
            owner=lease.owner,
            attempt=lease.attempt,
            reason=reason,
            msg=f"{name}: discarding attempt {lease.attempt + 1} ({reason})",
        )

    try:
        with _Heartbeat(leases, lease) as beat:
            try:
                faults.fire(faults.SITE_WORKER_START)
                started = time.perf_counter()
                with obs.scoped(
                    tracer=worker_tracer,
                    metrics=worker_metrics,
                    events=obs.EventLog(worker_events),
                ):
                    cell = parse_cell(
                        record["text"], technology=record["technology"]
                    )
                    model = generate_ca_model(
                        cell,
                        policy=manifest.policy,
                        **manifest.generation_kwargs(),
                    )
                elapsed = time.perf_counter() - started
                data = canonical_model_dict(model)
                artifact = ledger.artifact_path(name)
                rule = faults.fire(faults.SITE_ARTIFACT_WRITE)
                if rule is not None:
                    # Torn/corrupt checkpoint faults exit the process
                    # inside, leaving the lease to expire — the same
                    # orphan a real mid-write SIGKILL leaves.
                    # fault injection *exists* to violate the write
                    # discipline the protocol rules enforce
                    faults.enact_artifact_fault(rule, artifact, data, name)  # reprolint: disable=RPL104
                if not beat.still_held():
                    discard("lease lost before commit")
                    return False
                # Sidecar strictly before the commit: the hardlink's
                # appearance is the coordinator's done signal, and it
                # reads the sidecar immediately after.
                sidecar = {
                    "seconds": elapsed,
                    "counters": worker_metrics.snapshot()["counters"],
                    "spans": worker_tracer.export(),
                }
                write_text_atomic(ledger.sidecar_path(name), json.dumps(sidecar))
                if not commit_artifact(run_dir, artifact, data):
                    discard("lost the commit race")
                    return False
                write_shard("ok", elapsed)
                leases.release(lease)
                return True
            except BaseException as exc:  # noqa: BLE001 - recorded for the coordinator
                error_text = f"{type(exc).__name__}: {exc}"
                if not beat.still_held():
                    # The coordinator already wrote this attempt off when
                    # it reaped the lease; recording it again would
                    # double-charge the retry budget.
                    discard(f"lease lost during failure ({error_text})")
                    return False
                error_record = {
                    "kind": "exception",
                    "error": error_text,
                    "traceback": traceback.format_exc(),
                }
                write_text_atomic(ledger.error_path(name), json.dumps(error_record))
                write_shard(
                    "exception", time.time() - started_wall, error=error_text
                )
                leases.release(lease)
                return False
    finally:
        faults.deactivate()


def _settled(run_dir: Path, name: str) -> bool:
    """Whether *name* needs no new attempt, judged afresh under its lease.

    A claim scan works from a ledger snapshot, and the coordinator may
    settle the cell between that load and the claim.  Once the lease is
    held, the disk is current: the coordinator saves a cell's final
    state before it unlinks the error record, and an attempt leaves its
    artifact or error record before it releases the lease.
    """
    ledger = RunLedger.load(run_dir)
    return (
        ledger.state(name) in (DONE, QUARANTINED)
        or ledger.artifact_path(name).exists()
        or ledger.error_path(name).exists()
    )


def worker_loop(
    run_dir: Union[str, Path],
    owner: Optional[str] = None,
    poll: float = POLL_INTERVAL,
    max_cells: Optional[int] = None,
) -> int:
    """Drain claimable cells of *run_dir* until the job completes.

    Returns the number of cells this worker committed.  ``max_cells``
    bounds the worker's share (tests use it to force interleaving).
    The worker exits when every cell is ``done`` or ``quarantined``, or
    when it was spawned by a coordinator that has since died — nothing
    would ever mark its cells done.  Quarantining is the coordinator's
    call, so an external worker whose coordinator died idles at the poll
    interval, not spinning, until one attaches again.
    """
    run_dir = Path(run_dir)
    job = Job.attach(run_dir)
    manifest = job.manifest
    if owner is None:
        owner = f"w{os.getpid()}"
    store = obs_store.ObsStore(run_dir)
    # Pinned process-level instrumentation: attempt scopes swap the
    # globals, and lease traffic must never leak into attempt counters.
    registry = obs.metrics()
    event_buffer = obs.ListSink()
    events = obs.EventLog(obs.TeeSink([obs.events().sink, event_buffer]))
    leases = LeaseStore(
        run_dir, ttl=manifest.lease_ttl, registry=registry, events=events
    )
    plan = faults.plan_from_payload(manifest.fault_plan)
    counter_mark = registry.checkpoint()
    started_wall = time.time()
    completed: List[str] = []
    failures = 0
    events.info(
        E_WORKER_START,
        owner=owner,
        run_dir=str(run_dir),
        pid=os.getpid(),
        msg=f"worker {owner} joining {run_dir}",
    )
    parent = multiprocessing.parent_process()
    try:
        while True:
            if parent is not None and not parent.is_alive():
                break  # our coordinator is gone
            ledger = RunLedger.load(run_dir)
            open_cells = [
                n
                for n in manifest.names()
                if n in ledger.cells
                and ledger.cells[n]["state"] not in (DONE, QUARANTINED)
            ]
            if not open_cells:
                break
            if max_cells is not None and len(completed) >= max_cells:
                break
            claimed = False
            for name in open_cells:
                record = ledger.cells[name]
                if record["state"] not in (PENDING, FAILED):
                    continue
                if str(record["key"]) != manifest.cell_record(name)["key"]:
                    continue  # resubmitted with different options
                if ledger.artifact_path(name).exists():
                    continue  # committed; coordinator will mark it done
                if ledger.error_path(name).exists():
                    continue  # failure awaiting the coordinator
                if leases.read(name) is not None:
                    continue
                attempt = next_attempt_index(
                    store.obs_dir, name, str(record["key"]),
                    int(record["attempts"]),
                )
                lease = leases.claim(name, owner, attempt)
                if lease is None:
                    continue
                if _settled(run_dir, name):
                    leases.release(lease)  # the snapshot was stale
                    continue
                claimed = True
                if run_attempt(
                    run_dir, manifest, ledger, leases, lease, store, plan,
                    events,
                ):
                    completed.append(name)
                    registry.inc(M_WORKER_CELLS)
                else:
                    failures += 1
                    registry.inc(M_WORKER_FAILURES)
                break  # rescan from a fresh ledger snapshot
            if not claimed:
                time.sleep(poll)
    finally:
        seconds = time.time() - started_wall
        events.info(
            E_WORKER_EXIT,
            owner=owner,
            cells=len(completed),
            failures=failures,
            seconds=round(seconds, 3),
            msg=(
                f"worker {owner} leaving after {len(completed)} cell(s), "
                f"{failures} failed attempt(s)"
            ),
        )
        obs_store.write_worker_shard(
            store.worker_shard_path(owner),
            owner=owner,
            pid=os.getpid(),
            started=started_wall,
            seconds=seconds,
            cells=list(completed),
            counters=registry.counter_delta(counter_mark),
            spans=[],
            events=[event.to_dict() for event in event_buffer.events],
        )
    return len(completed)
