"""Run coordinator: the single ledger writer of a service run.

:func:`serve` owns everything the stateless workers must not touch —
the :class:`~repro.resilience.ledger.RunLedger` state machine, lease
reaping (:meth:`~repro.service.lease.LeaseStore.reap_expired`), the
per-attempt deadline, the retry/quarantine budget, and the final
library assembly.  Workers only ever *read* the ledger and write their
own artifacts/shards; every state transition funnels through this one
process, which is what keeps an N-worker run's ledger — and therefore
``metrics_total()``, ``failures.json`` and the assembled library bytes
— identical whatever the number of workers, kills and resumes.

Each coordination tick reads the lease directory once and:

1. **Reaps** leases whose holder cannot finish: a local worker process
   that died (classified from its exit code, in the same tick), an
   attempt older than the job's ``cell_timeout`` (an over-deadline
   local holder is terminated, then killed; an external one only loses
   its lease), and any lease past its heartbeat TTL.  Inside the reap
   callback — while the dead lease still blocks re-claiming — the
   orphaned attempt is classified (a valid committed artifact means the
   worker finished and is no failure at all; an invalid artifact is a
   corrupt checkpoint; otherwise a crash or a timeout), its telemetry
   shard and ledger failure are persisted, and only then does the lease
   path go vacant.  Each (cell, attempt) is charged at most once, even
   when a hung external holder's heartbeat re-creates its reaped lease.
2. **Observes** live leases: cells whose lease is held are marked
   ``running`` with the worker's own attempt index (floored, so polling
   a lease twice never inflates the count).
3. **Collects** completions: a valid artifact for a non-``done`` cell
   is the worker's commit signal; the coordinator reads the obs sidecar
   and performs the exactly-once ``done`` transition + counter merge.
4. **Consumes** error records (written by workers that failed cleanly),
   charging the session retry budget and quarantining cells that
   exhaust it — quarantined cells stop being claimable immediately.

Local workers are plain ``multiprocessing.Process`` instances running
:func:`repro.service.worker.worker_loop`; a dead one is respawned while
claimable work remains, so even a fault plan that kills every worker
(``crash`` mode exits the whole process) cannot stall the run.  With
``workers=0`` the coordinator drives externally started workers only
(``python -m repro worker RUN_DIR`` on any machine sharing the
directory — see ``docs/resilience.md``).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from repro import obs
from repro.obs import store as obs_store
from repro.resilience import faults
from repro.resilience.ledger import (
    DONE,
    FAILED,
    PENDING,
    QUARANTINED,
    RunLedger,
    purge_stale_tmp,
)
from repro.resilience.runner import (
    M_CELLS_DONE,
    M_CELLS_RESUMED,
    M_CRASHES,
    M_CORRUPT,
    M_EXCEPTIONS,
    M_QUARANTINED,
    M_RETRIES,
    M_TIMEOUTS,
    RunResult,
    assemble_run_result,
    read_sidecar,
)
from repro.service.api import Job
from repro.service.lease import LeaseStore
from repro.service.worker import next_attempt_index, worker_loop

# service metric/event names (registered in repro.lint.catalog)
M_WORKERS_SPAWNED = "service.workers_spawned"
E_SERVE = "service.serve"

#: coordinator tick interval [s]
TICK_INTERVAL = 0.05


def _worker_entry(run_dir: str) -> None:
    """Local worker process entry (module-level for multiprocessing)."""
    worker_loop(run_dir)


def _owner(process: multiprocessing.Process) -> str:
    """Lease owner id of a local worker (``worker_loop``'s default)."""
    return f"w{process.pid}"


def _exit_detail(exitcode: Optional[int]) -> str:
    """Why a worker process died, from its exit code."""
    if exitcode == faults.CRASH_EXIT:
        return "injected crash"
    if exitcode is not None and exitcode < 0:
        return f"killed by signal {-exitcode}"
    return f"exit code {exitcode}"


def _stop(process: multiprocessing.Process) -> None:
    """Terminate *process*, killing it if it ignores the request."""
    process.terminate()
    process.join(timeout=1.0)
    if process.is_alive():
        process.kill()
        process.join()


def serve(
    run_dir: Union[str, Path],
    workers: int = 2,
    resume: bool = False,
    output: Optional[Union[str, Path]] = None,
    tick: float = TICK_INTERVAL,
) -> RunResult:
    """Coordinate a submitted job to completion; returns the run result.

    *run_dir* must hold a ``job.json`` written by
    :func:`repro.service.api.submit_library`.  *workers* local worker
    processes are spawned (0 means external workers drive the cells and
    this process only coordinates).  With ``resume=True`` quarantined
    cells are re-admitted with a fresh retry budget, and cells completed
    by an earlier session are reused.  *output*, when given, receives
    the (possibly partial) library JSON, written atomically from the
    checkpoint artifacts.
    """
    run_dir = Path(run_dir)
    job = Job.attach(run_dir)
    manifest = job.manifest
    names = manifest.names()
    retries = manifest.retries
    cell_timeout = manifest.cell_timeout
    ledger = RunLedger.load(run_dir)
    store = obs_store.ObsStore(run_dir)

    tracer = obs.tracer()
    if not tracer.enabled:
        # The session shard needs coordinator spans even when the CLI
        # ran untraced; a local enabled tracer keeps the global (null)
        # state untouched — only this coordinator writes through it.
        tracer = obs.Tracer(enabled=True)
    registry = obs.metrics()
    result = RunResult(run_dir=run_dir)

    # Session-shard bookkeeping: this session's own spans/events/
    # counters, with merged worker counters subtracted back out — the
    # ledger is their single source of truth.
    session_started = time.time()
    span_mark = tracer.mark()
    counter_mark = registry.checkpoint()
    merged_this_session: Dict[str, float] = {}
    session_events = obs.ListSink()
    events = obs.EventLog(obs.TeeSink([obs.events().sink, session_events]))
    # The tee'd log rides into the lease store so reap-time
    # ``lease.expired`` events persist in this session's shard.
    leases = LeaseStore(
        run_dir, ttl=manifest.lease_ttl, registry=registry, events=events
    )

    #: failed attempts charged per cell THIS session (the retry budget;
    #: lifetime attempt counts live in the ledger)
    session_failures: Dict[str, int] = {}
    #: (cell, attempt) pairs already charged: a hung external holder's
    #: heartbeat can re-create a lease just reaped, and the second reap
    #: must not charge the same attempt again
    charged: Set[Tuple[str, int]] = set()
    #: this tick's leases to reap now, with the failure each one charges
    doomed: Dict[str, Tuple[str, str]] = {}

    def complete() -> bool:
        return all(
            record["state"] in (DONE, QUARANTINED)
            for record in ledger.cells.values()
        )

    def last_attempt(name: str) -> int:
        """Best-known lifetime index of the attempt that just ended."""
        key = str(ledger.cells[name]["key"])
        nxt = next_attempt_index(
            store.obs_dir, name, key, int(ledger.cells[name]["attempts"])
        )
        return max(0, nxt - 1)

    def ensure_shard(
        name: str, attempt: int, outcome: str, error: str, started: float,
        seconds: float,
    ) -> None:
        """Parent-written shard for an attempt that died before its own."""
        key = str(ledger.cells[name]["key"])
        if store.has_attempt(name, key, attempt):
            return
        obs_store.write_attempt_shard(
            store.attempt_shard_path(name, key, attempt),
            cell=name,
            key=key,
            attempt=attempt,
            outcome=outcome,
            pid=0,
            started=started,
            seconds=seconds,
            counters={},
            spans=[],
            events=[],
            error=error,
        )

    def handle_failure(
        name: str, attempt: int, record: Dict[str, object], elapsed: float
    ) -> None:
        """Charge one failed attempt against the session retry budget."""
        if (name, attempt) in charged:
            return
        charged.add((name, attempt))
        record = dict(record)
        record["attempt"] = attempt
        record["elapsed"] = round(elapsed, 4)
        kind = str(record.get("kind", "crash"))
        registry.inc(
            {
                "timeout": M_TIMEOUTS,
                "exception": M_EXCEPTIONS,
                "corrupt-artifact": M_CORRUPT,
            }.get(kind, M_CRASHES)
        )
        artifact = ledger.artifact_path(name)
        if artifact.exists() and not ledger.validate_artifact(name):
            artifact.unlink()
        failures = session_failures.get(name, 0) + 1
        session_failures[name] = failures
        # One save floors the count and persists the final state: a
        # worker must never see an exhausted cell as failed (claimable).
        ledger.record_failure(
            name, record, attempt=attempt, quarantine=failures > retries
        )
        if failures <= retries:
            registry.inc(M_RETRIES)
            events.warning(
                "resilience.retry",
                cell=name,
                attempt=attempt,
                kind=kind,
                error=record.get("error"),
                msg=(
                    f"{name}: attempt {attempt + 1} failed ({kind}); "
                    "cell returns to the claimable pool"
                ),
            )
        else:
            registry.inc(M_QUARANTINED)
            events.error(
                "resilience.quarantine",
                cell=name,
                attempts=attempt + 1,
                kind=kind,
                error=record.get("error"),
                msg=(
                    f"{name}: quarantined after {attempt + 1} attempts "
                    f"({kind})"
                ),
            )

    def on_reap(name: str, lease_record: Dict[str, object]) -> None:
        """Classify a reaped lease while its file still blocks claims.

        *doomed* holds the verdict of a lease reaped for a dead local
        holder or a timeout; any other lease was reaped for its TTL.
        """
        if name not in ledger.cells:
            return
        if ledger.cells[name]["state"] in (DONE, QUARANTINED):
            return
        if ledger.validate_artifact(name):
            return  # worker committed, then died; the done path collects it
        if ledger.error_path(name).exists():
            return  # worker recorded its failure; the consume path charges it
        try:
            attempt = int(lease_record.get("attempt", -1))
        except (TypeError, ValueError):
            attempt = -1
        if attempt < 0:
            attempt = last_attempt(name)
        owner = str(lease_record.get("owner", "?"))
        try:
            started = float(lease_record.get("acquired", time.time()))
        except (TypeError, ValueError):
            started = time.time()
        elapsed = max(0.0, time.time() - started)
        if ledger.artifact_path(name).exists():
            kind = "corrupt-artifact"
            error = "worker left an unreadable checkpoint artifact" + (
                "" if name in doomed else " and its lease expired"
            )
        elif name in doomed:
            kind, error = doomed[name]
        else:
            kind = "crash"
            error = (
                f"lease expired without a result (owner {owner}, "
                f"attempt {attempt + 1})"
            )
        # Shard + ledger failure land BEFORE the lease path goes vacant,
        # so the next claimant always sees this attempt on disk and can
        # never reuse its index.
        ensure_shard(name, attempt, kind, error, started, elapsed)
        handle_failure(name, attempt, {"kind": kind, "error": error}, elapsed)

    def consume_error(name: str) -> None:
        """Charge a failure a worker recorded cleanly (lease now vacant).

        The error record keeps workers off the cell until the ledger
        holds its final state, so it is unlinked only after that save.
        """
        error_path = ledger.error_path(name)
        try:
            record = json.loads(error_path.read_text())
        except (ValueError, json.JSONDecodeError):
            record = {
                "kind": "crash",
                "error": "worker left an unreadable error record",
            }
        except (FileNotFoundError, OSError):
            return
        attempt = last_attempt(name)
        key = str(ledger.cells[name]["key"])
        seconds = 0.0
        started = time.time()
        shard = store.attempt_shard_path(name, key, attempt)
        if shard.exists():
            try:
                data = json.loads(shard.read_text())
                seconds = float(data.get("seconds", 0.0))
                started = float(data.get("started", started))
            except (ValueError, json.JSONDecodeError):
                pass
        ensure_shard(
            name, attempt, str(record.get("kind", "crash")),
            str(record.get("error", "")), started, seconds,
        )
        handle_failure(name, attempt, record, seconds)
        error_path.unlink(missing_ok=True)

    def collect_done(name: str) -> None:
        """Exactly-once done transition with the worker's counters."""
        seconds, metrics, spans = read_sidecar(ledger, name)
        if spans and tracer.enabled:
            tracer.absorb(spans, parent_id=run_span.span_id)
        attempt = last_attempt(name)
        ledger.mark_running(name, attempt=attempt)  # floor the count
        ledger.mark_done(name, seconds=seconds, metrics=metrics)
        registry.merge_counters(metrics)
        for key, value in metrics.items():
            merged_this_session[key] = (
                merged_this_session.get(key, 0.0) + float(value)
            )
        registry.inc(M_CELLS_DONE)
        events.debug(
            "resilience.cell_done",
            cell=name,
            attempt=attempt,
            seconds=round(seconds, 4),
            msg=f"{name}: done (attempt {attempt + 1})",
        )

    procs: List[multiprocessing.Process] = []

    def survey() -> Dict[str, Dict[str, object]]:
        """This tick's lease snapshot; fills *doomed* from it.

        Local workers are polled *before* the snapshot, so every lease a
        worker that exited since the last tick still holds is in it.  An
        attempt past ``cell_timeout`` is timed from its lease's
        ``acquired`` stamp; its holder is stopped first when it is a
        local worker.  If the holder finished the attempt just before
        the stop, ``on_reap`` finds the committed artifact or the error
        record and charges nothing.
        """
        doomed.clear()
        exited: Dict[str, Optional[int]] = {}
        for process in list(procs):
            if not process.is_alive():
                process.join()
                procs.remove(process)
                exited[_owner(process)] = process.exitcode
        local = {_owner(process): process for process in procs}
        held = leases.held()
        now = leases.clock()
        for name, lease_record in held.items():
            owner = str(lease_record.get("owner", ""))
            if owner in exited:
                doomed[name] = (
                    "crash",
                    "worker died without a result "
                    f"({_exit_detail(exited[owner])})",
                )
                continue
            if cell_timeout is None:
                continue
            try:
                age = now - float(lease_record["acquired"])  # type: ignore[arg-type]
            except (KeyError, TypeError, ValueError):
                continue  # torn record: the TTL reaper takes it
            if age <= cell_timeout:
                continue
            if owner in local:
                _stop(local[owner])
            doomed[name] = (
                "timeout",
                f"cell exceeded --cell-timeout {cell_timeout}s; "
                "worker terminated",
            )
        return held

    def spawn_worker() -> None:
        process = multiprocessing.Process(
            target=_worker_entry, args=(str(run_dir),)
        )
        process.start()
        procs.append(process)
        registry.inc(M_WORKERS_SPAWNED)

    with tracer.span(
        "service.serve", cells=len(names), workers=workers, resume=resume
    ) as run_span:
        recovered = ledger.recover()
        requeued = ledger.requeue_quarantined() if resume else []
        if requeued:
            events.info(
                "resilience.requeue",
                cells=len(requeued),
                msg=(
                    f"re-admitting {len(requeued)} quarantined cell(s) "
                    "with a fresh retry budget"
                ),
            )
        already_done = ledger.names_in(DONE)
        if resume and already_done:
            result.resumed = list(already_done)
            registry.inc(M_CELLS_RESUMED, len(already_done))
            events.info(
                "resilience.resume",
                run_dir=str(run_dir),
                reused=len(already_done),
                recovered=len(recovered),
                msg=(
                    f"resuming {run_dir}: reusing {len(already_done)} "
                    f"completed cells ({len(recovered)} recovered from a "
                    "killed session)"
                ),
            )
        events.info(
            E_SERVE,
            run_dir=str(run_dir),
            cells=len(names),
            workers=workers,
            msg=(
                f"serving {len(names)} cell(s) from {run_dir} with "
                f"{workers} local worker(s)"
            ),
        )

        try:
            for _ in range(max(0, workers)):
                spawn_worker()
            while not complete():
                held = survey()
                for record in leases.reap_expired(
                    before_unlink=on_reap, held=held, doomed=doomed
                ):
                    held.pop(str(record["cell"]), None)
                for name, lease_record in held.items():
                    if name not in ledger.cells:
                        continue
                    if ledger.cells[name]["state"] in (PENDING, FAILED):
                        try:
                            attempt = int(lease_record.get("attempt", -1))
                        except (TypeError, ValueError):
                            attempt = -1
                        if attempt >= 0:
                            ledger.mark_running(name, attempt=attempt)
                for name in names:
                    record = ledger.cells.get(name)
                    if record is None or record["state"] == DONE:
                        continue
                    if record["state"] == QUARANTINED:
                        continue
                    if ledger.validate_artifact(name):
                        collect_done(name)
                    elif (
                        ledger.error_path(name).exists()
                        and name not in held
                    ):
                        consume_error(name)
                if complete():
                    break
                while len(procs) < workers:
                    spawn_worker()
                time.sleep(tick)
        finally:
            deadline = time.monotonic() + 10.0
            for process in procs:
                process.join(timeout=max(0.1, deadline - time.monotonic()))
            for process in procs:
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=1.0)
                if process.is_alive():  # pragma: no cover - last resort
                    process.kill()
                    process.join()

        purge_stale_tmp(ledger.models_dir)
        purge_stale_tmp(store.obs_dir)
        assemble_run_result(ledger, names, result, output)
        run_span.set("done", len(result.models))
        run_span.set("quarantined", len(result.quarantined))
        run_span.set("resumed", len(result.resumed))

    own_pid = os.getpid()
    session_spans = [
        span
        for span in tracer.export_since(span_mark)
        if span["pid"] == own_pid
    ]
    counter_delta = registry.counter_delta(counter_mark)
    parent_counters: Dict[str, float] = {}
    for key, value in counter_delta.items():
        remainder = value - merged_this_session.get(key, 0.0)
        if remainder:
            parent_counters[key] = remainder
    store.write_session(
        pid=own_pid,
        started=session_started,
        seconds=time.time() - session_started,
        root_span_id=run_span.span_id,
        counters=parent_counters,
        spans=session_spans,
        events=[event.to_dict() for event in session_events.events],
    )
    return result
