"""Checkpointed, fault-tolerant library characterization.

:func:`run_library` is the resilient counterpart of
:func:`repro.camodel.batch.generate_library`: every cell is
characterized in its **own worker process** (one ``multiprocessing.Process``
per attempt, up to ``processes`` concurrently) so a crash, OOM kill, or
pathological hang in one cell can never take down the run or its
siblings.  Progress is persisted through a
:class:`~repro.resilience.ledger.RunLedger`; a killed run restarted with
``resume=True`` picks up exactly where it stopped and — because model
artifacts are canonical (wall-clock fields zeroed, timings kept in the
ledger) — assembles a library **byte-identical** to an uninterrupted run.

Failure handling per cell:

* a worker exception is caught in the worker, written as a structured
  error record, and reported with its traceback;
* a crash (any nonzero exit without an error record) and a wall-clock
  timeout (``cell_timeout``; the worker is terminated, then killed) are
  recorded the same way;
* each failure retries with exponential backoff up to ``retries`` times,
  after which the cell is **quarantined**: the run completes with a
  partial library plus a machine-readable failure report
  (``failures.json``) that the hybrid flow can route to the simulation
  lane (:func:`repro.resilience.ledger.quarantined_cells`).

Observability: workers export their span buffer and metric counters
through a sidecar file; the parent absorbs spans under the
``resilience.run`` span and merges counters exactly once, when the cell
transitions to ``done``.  Retries, timeouts and quarantines are counted
under the ``resilience.*`` metric namespace and emitted as structured
events.  With ``persist_telemetry=True`` (the default) every attempt
additionally writes a durable telemetry shard into ``<run_dir>/obs/``
(spans, counters, events, outcome — see :mod:`repro.obs.store`), the
parent writes one session shard per run, and crashed / timed-out
attempts get their shard written by the parent, so ``python -m repro
inspect RUN_DIR`` can reconstruct the whole run after the fact.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.atomic import write_text_atomic
from repro.obs import store as obs_store
from repro.camodel.batch import ensure_unique_cell_names
from repro.camodel.generate import (
    DEFAULT_SLOW_FACTOR,
    PhaseCacheArg,
    generate_ca_model,
)
from repro.camodel.io import FORMAT_VERSION, model_from_dict, model_to_dict
from repro.camodel.model import CAModel
from repro.defects.model import Defect
from repro.library.technology import ElectricalParams
from repro.resilience import faults
from repro.resilience.ledger import (
    DONE,
    FAILED,
    PENDING,
    QUARANTINED,
    RunLedger,
    content_key,
    purge_stale_tmp,
)
from repro.spice.netlist import CellNetlist
from repro.spice.writer import write_cell

# Metric names of the resilience layer (repro.obs registry).
M_CELLS_DONE = "resilience.cells_done"
M_CELLS_RESUMED = "resilience.cells_resumed"
M_RETRIES = "resilience.retries"
M_TIMEOUTS = "resilience.timeouts"
M_CRASHES = "resilience.crashes"
M_EXCEPTIONS = "resilience.exceptions"
M_CORRUPT = "resilience.corrupt_artifacts"
M_QUARANTINED = "resilience.quarantined"

#: parent poll interval while workers run [s]
POLL_INTERVAL = 0.02


def canonical_model_dict(model: CAModel) -> Dict[str, object]:
    """Serialized model with wall-clock fields zeroed.

    Checkpoint artifacts must be reproducible: two runs of the same cell
    under the same options produce identical detection tables and solver
    counters, but never identical wall times.  Zeroing the timing fields
    here (the real timings are kept in the run ledger) is what makes a
    resumed library byte-identical to an uninterrupted one.
    """
    data = model_to_dict(model)
    data["generation_seconds"] = 0.0
    stats = data.get("stats")
    if isinstance(stats, dict):
        for key in (
            "golden_seconds",
            "defect_seconds",
            "merge_seconds",
            "total_seconds",
        ):
            stats[key] = 0.0
    return data


def _options_fingerprint(
    policy: str,
    params: Optional[ElectricalParams],
    universe: Optional[Sequence[Defect]],
    delay_detection: bool,
    slow_factor: float,
    packed: bool,
    parallelism: Optional[int],
) -> Dict[str, object]:
    """JSON-stable fingerprint of every option that shapes an artifact.

    ``packed`` shapes ``stats.batched_phases`` (0 under the scalar
    solver); it is stored under the key ``"batched"`` so the content
    keys of existing run directories stay valid and they still resume.
    ``phase_cache`` is deliberately absent: it is identity-preserving,
    so changing it must not invalidate existing artifacts or block a
    resume.
    """
    return {
        "format": FORMAT_VERSION,
        "policy": policy,
        "params": asdict(params) if params is not None else None,
        "universe": (
            None
            if universe is None
            else [
                {"name": d.name, "kind": d.kind, "location": list(d.location)}
                for d in universe
            ]
        ),
        "delay_detection": delay_detection,
        "slow_factor": slow_factor,
        "batched": packed,
        "parallelism": parallelism,
    }


@dataclass
class RunResult:
    """Outcome of one (possibly resumed) resilient run."""

    run_dir: Path
    models: Dict[str, CAModel] = field(default_factory=dict)
    quarantined: Dict[str, List[Dict[str, object]]] = field(default_factory=dict)
    #: cells whose model was reused from a previous session of this run
    resumed: List[str] = field(default_factory=list)
    #: failure report also persisted as ``<run_dir>/failures.json``
    report: Dict[str, object] = field(default_factory=dict)
    #: aggregate worker metric counters, each cell counted exactly once
    metrics: Dict[str, float] = field(default_factory=dict)
    library_path: Optional[Path] = None

    @property
    def complete(self) -> bool:
        return not self.quarantined


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------

def _cell_worker(payload: Dict[str, object]) -> None:
    """Characterize one cell and persist its artifact; never returns data.

    All results flow through the filesystem (atomic writes), so the
    parent only needs the exit code: 0 plus a valid artifact is success,
    anything else is classified from the exit code and the optional
    error record.  The fault plan, when present, is armed for this
    (cell, attempt) before any work happens.
    """
    from repro.camodel.planstore import plan_store

    name = payload["name"]
    shard_path = payload.get("obs_shard")
    plan = faults.plan_from_payload(payload["fault_plan"])
    faults.activate(plan, cell=name, attempt=payload["attempt"])
    # Created before the try block so the exception path can still ship
    # whatever telemetry the attempt produced before dying.
    worker_tracer = obs.Tracer(enabled=payload["trace_enabled"])
    worker_metrics = obs.Metrics()
    worker_events = obs.ListSink()
    started_wall = time.time()

    def write_shard(outcome: str, seconds: float, error=None) -> None:
        if shard_path is None:
            return
        obs_store.write_attempt_shard(
            shard_path,
            cell=name,
            key=payload["content_key"],
            attempt=payload["attempt"],
            outcome=outcome,
            pid=os.getpid(),
            started=started_wall,
            seconds=seconds,
            counters=worker_metrics.snapshot()["counters"],
            spans=worker_tracer.export(),
            events=[event.to_dict() for event in worker_events.events],
            error=error,
        )

    try:
        faults.fire(faults.SITE_WORKER_START)
        started = time.perf_counter()
        with obs.scoped(
            tracer=worker_tracer,
            metrics=worker_metrics,
            events=obs.EventLog(
                worker_events if shard_path is not None else obs.NullSink()
            ),
        ):
            # Plan-once / replay-many: the store parses a cell text once
            # per worker process, however many attempts replay it.
            cell = plan_store().cell(payload["cell_text"], payload["technology"])
            model = generate_ca_model(
                cell, policy=payload["policy"], **payload["kwargs"]
            )
        elapsed = time.perf_counter() - started
        data = canonical_model_dict(model)
        artifact = Path(payload["artifact"])
        rule = faults.fire(faults.SITE_ARTIFACT_WRITE)
        if rule is not None:
            # Torn/corrupt checkpoint faults exit the process inside.
            faults.enact_artifact_fault(rule, artifact, data, name)
        write_text_atomic(artifact, json.dumps(data))
        sidecar = {
            "seconds": elapsed,
            "counters": worker_metrics.snapshot()["counters"],
            "spans": worker_tracer.export(),
        }
        write_text_atomic(Path(payload["sidecar"]), json.dumps(sidecar))
        write_shard("ok", elapsed)
    except BaseException as exc:  # noqa: BLE001 - classified for the parent
        error_text = f"{type(exc).__name__}: {exc}"
        record = {
            "kind": "exception",
            "error": error_text,
            "traceback": traceback.format_exc(),
        }
        try:
            write_text_atomic(Path(payload["error"]), json.dumps(record))
            # The partial spans/counters of a dying attempt are still
            # part of what the run paid for — persist them too.
            write_shard(
                "exception", time.time() - started_wall, error=error_text
            )
        finally:
            os._exit(faults.EXCEPTION_EXIT)


# ----------------------------------------------------------------------
# Parent orchestration
# ----------------------------------------------------------------------

@dataclass
class _Active:
    process: multiprocessing.Process
    name: str
    #: lifetime attempt index (persists across resumed sessions; what
    #: fault plans and error records are keyed on)
    attempt: int
    #: attempt index within this session (what the retry budget uses, so
    #: a resumed session retries previously failed cells afresh)
    session_attempt: int
    started: float
    #: wall-clock start (telemetry shards; `started` is monotonic)
    started_wall: float
    deadline: Optional[float]


def _classify_failure(
    ledger: RunLedger, name: str, exitcode: Optional[int]
) -> Dict[str, object]:
    """Build the structured error record for a failed attempt."""
    error_path = ledger.error_path(name)
    if error_path.exists():
        try:
            record = json.loads(error_path.read_text())
            error_path.unlink()
            return record
        except (ValueError, json.JSONDecodeError):
            error_path.unlink()
    if exitcode == faults.CRASH_EXIT:
        detail = "injected crash"
    elif exitcode is not None and exitcode < 0:
        detail = f"killed by signal {-exitcode}"
    else:
        detail = f"exit code {exitcode}"
    return {"kind": "crash", "error": f"worker died without a result ({detail})"}


def read_sidecar(
    ledger: RunLedger, name: str
) -> Tuple[float, Dict[str, float], List[Dict[str, object]]]:
    """(seconds, counters, spans) from a cell's obs sidecar, if readable.

    The sidecar is the worker-side record of a successful attempt; both
    the sequential parent and the service coordinator consume it at the
    ``done`` transition, so the per-cell counters that feed
    ``metrics_total()`` come from one reader regardless of who ran the
    cell.  Missing or torn sidecars degrade to zeros, never raise.
    """
    sidecar = ledger.sidecar_path(name)
    if sidecar.exists():
        try:
            side = json.loads(sidecar.read_text())
            return (
                float(side.get("seconds", 0.0)),
                {k: float(v) for k, v in side.get("counters", {}).items()},
                list(side.get("spans", [])),
            )
        except (ValueError, json.JSONDecodeError):
            pass
    return 0.0, {}, []


def assemble_run_result(
    ledger: RunLedger,
    names: Sequence[str],
    result: RunResult,
    output: Optional[Union[str, Path]] = None,
) -> List[Dict[str, object]]:
    """Fill *result* from the checkpoints; returns the artifact dicts.

    Shared tail of a sequential run and a coordinated service run: the
    models, quarantine records, aggregate counters, failure report and
    (optional) assembled library JSON all come from the same ledger
    reads and the same atomic writer, which is what makes an N-worker
    service run byte-identical to a sequential one.
    """
    artifact_dicts: List[Dict[str, object]] = []
    for name in names:
        record = ledger.cells[name]
        if record["state"] == DONE:
            data = json.loads(ledger.artifact_path(name).read_text())
            artifact_dicts.append(data)
            result.models[name] = model_from_dict(data)
        elif record["state"] == QUARANTINED:
            result.quarantined[name] = list(record.get("errors", []))
    result.metrics = ledger.metrics_total()
    result.report = ledger.failure_report()
    ledger.write_failure_report()
    if output is not None:
        result.library_path = Path(output)
        write_text_atomic(
            result.library_path,
            json.dumps({"format": FORMAT_VERSION, "models": artifact_dicts}),
        )
    return artifact_dicts


def run_library(
    cells: Sequence[CellNetlist],
    run_dir: Union[str, Path],
    policy: str = "auto",
    processes: Optional[int] = None,
    resume: bool = False,
    retries: int = 1,
    cell_timeout: Optional[float] = None,
    retry_backoff: float = 0.1,
    fault_plan: Optional[faults.FaultPlan] = None,
    persist_telemetry: bool = True,
    params: Optional[ElectricalParams] = None,
    universe: Optional[Sequence[Defect]] = None,
    delay_detection: bool = True,
    slow_factor: float = DEFAULT_SLOW_FACTOR,
    parallelism: Optional[int] = None,
    packed: bool = True,
    phase_cache: PhaseCacheArg = None,
    output: Optional[Union[str, Path]] = None,
) -> RunResult:
    """Characterize *cells* with checkpointing, retries, and quarantine.

    Parameters beyond :func:`~repro.camodel.batch.generate_library`'s:

    run_dir:
        Directory holding the ledger and per-cell model artifacts.
    resume:
        Continue a previous (killed or partial) run of the same cells
        and options; completed cells are reused from their artifacts.
    retries:
        Failed attempts allowed per cell beyond the first; exhausted
        cells are quarantined instead of aborting the run.
    cell_timeout:
        Wall-clock seconds per attempt; a worker past it is terminated
        and the attempt counts as a timeout failure.
    retry_backoff:
        Base delay before a retry (doubles per attempt); 0 disables.
    fault_plan:
        Deterministic failure script for chaos testing
        (:mod:`repro.resilience.faults`).
    persist_telemetry:
        Write durable telemetry shards into ``<run_dir>/obs/`` — one per
        attempt (worker spans forced on, counters, events, outcome) plus
        one session shard per run (:mod:`repro.obs.store`), feeding
        ``python -m repro inspect`` / ``watch``.  Purely additive: model
        artifacts and the ledger are byte-identical either way.
    output:
        When given, the (possibly partial) library JSON is written there
        atomically from the checkpoint artifacts — byte-identical across
        resumed and uninterrupted runs.
    packed / phase_cache:
        Forwarded to :func:`~repro.camodel.generate.generate_ca_model`
        in every worker.  ``packed=False`` selects the scalar reference
        solver (part of the option fingerprint, since it zeroes
        ``stats.batched_phases``).  ``phase_cache`` is a directory
        persisting solved phases so retried attempts and repeat runs
        skip already-solved work — identity-preserving and therefore not
        fingerprinted: counters are served through the counter-neutral
        prefetch path, keeping artifacts canonical.
    """
    names = [cell.name for cell in cells]
    ensure_unique_cell_names(names)
    options = _options_fingerprint(
        policy, params, universe, delay_detection, slow_factor, packed,
        parallelism,
    )
    texts = {cell.name: write_cell(cell) for cell in cells}
    technologies = {cell.name: cell.technology for cell in cells}
    keyed = [(name, content_key(texts[name], options)) for name in names]
    ledger = RunLedger.open(run_dir, options, keyed, resume=resume)
    store = obs_store.ObsStore(run_dir) if persist_telemetry else None

    tracer = obs.tracer()
    if store is not None and not tracer.enabled:
        # The session shard needs the parent-side spans even when the
        # CLI ran untraced; a local enabled tracer keeps the global
        # (null) state untouched — only this runner writes through it.
        tracer = obs.Tracer(enabled=True)
    registry = obs.metrics()
    events = obs.events()
    result = RunResult(run_dir=Path(run_dir))

    # Session-shard bookkeeping: parent spans/events/counters of THIS
    # session only, with merged worker counters subtracted back out (the
    # ledger is their single source of truth; double-storing them would
    # break the reader's exact reconciliation).
    session_started = time.time()
    span_mark = tracer.mark()
    counter_mark = registry.checkpoint()
    merged_this_session: Dict[str, float] = {}
    session_events = obs.ListSink() if store is not None else None
    if session_events is not None:
        # Local tee, not a global sink mutation: events this runner emits
        # reach both the configured sink and the session shard buffer.
        events = obs.EventLog(obs.TeeSink([events.sink, session_events]))

    kwargs = dict(
        params=params,
        universe=universe,
        delay_detection=delay_detection,
        slow_factor=slow_factor,
        parallelism=parallelism,
        packed=packed,
        phase_cache=(
            str(phase_cache)
            if isinstance(phase_cache, (str, Path))
            else phase_cache
        ),
    )
    plan_payload = fault_plan.to_dict() if fault_plan is not None else None

    with tracer.span(
        "resilience.run", cells=len(cells), resume=resume
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

        queue: List[str] = [
            n for n in names if ledger.state(n) in (PENDING, FAILED)
        ]
        max_workers = max(1, processes or 1)
        active: List[_Active] = []
        delayed: List[Tuple[float, str]] = []  # (ready time, name)
        session_attempts: Dict[str, int] = {}

        def spawn(name: str) -> None:
            attempt = ledger.mark_running(name)
            session_attempt = session_attempts.get(name, 0)
            session_attempts[name] = session_attempt + 1
            key = str(ledger.cells[name]["key"])
            payload = {
                "name": name,
                "cell_text": texts[name],
                "technology": technologies[name],
                "policy": policy,
                "kwargs": kwargs,
                "artifact": str(ledger.artifact_path(name)),
                "sidecar": str(ledger.sidecar_path(name)),
                "error": str(ledger.error_path(name)),
                # Persisted telemetry needs worker spans even when the
                # parent runs untraced — the shard is the whole point.
                "trace_enabled": tracer.enabled or store is not None,
                "fault_plan": plan_payload,
                "attempt": attempt,
                "content_key": key,
                "obs_shard": (
                    str(store.attempt_shard_path(name, key, attempt))
                    if store is not None
                    else None
                ),
            }
            process = multiprocessing.Process(
                target=_cell_worker, args=(payload,)
            )
            process.start()
            now = time.monotonic()
            active.append(
                _Active(
                    process=process,
                    name=name,
                    attempt=attempt,
                    session_attempt=session_attempt,
                    started=now,
                    started_wall=time.time(),
                    deadline=(
                        now + cell_timeout if cell_timeout is not None else None
                    ),
                )
            )

        def finish_success(slot: _Active) -> None:
            seconds, metrics, spans = read_sidecar(ledger, slot.name)
            if spans and tracer.enabled:
                # Workers trace unconditionally when telemetry is
                # persisted; only absorb into a live parent tracer.
                tracer.absorb(spans, parent_id=run_span.span_id)
            ledger.mark_done(slot.name, seconds=seconds, metrics=metrics)
            # Merge worker counters exactly once: at the done transition.
            # Resumed sessions read completed cells from the ledger and
            # never pass here again, so nothing is double-counted.
            registry.merge_counters(metrics)
            for key, value in metrics.items():
                merged_this_session[key] = (
                    merged_this_session.get(key, 0.0) + float(value)
                )
            registry.inc(M_CELLS_DONE)
            events.debug(
                "resilience.cell_done",
                cell=slot.name,
                attempt=slot.attempt,
                seconds=round(seconds, 4),
                msg=f"{slot.name}: done (attempt {slot.attempt + 1})",
            )

        def finish_failure(slot: _Active, record: Dict[str, object]) -> None:
            record = dict(record)
            record["attempt"] = slot.attempt
            record["elapsed"] = round(time.monotonic() - slot.started, 4)
            kind = str(record.get("kind", "crash"))
            registry.inc(
                {
                    "timeout": M_TIMEOUTS,
                    "exception": M_EXCEPTIONS,
                    "corrupt-artifact": M_CORRUPT,
                }.get(kind, M_CRASHES)
            )
            # A corrupt checkpoint must never be mistaken for a model by
            # a later recover(); drop it before recording the failure.
            artifact = ledger.artifact_path(slot.name)
            if artifact.exists() and not ledger.validate_artifact(slot.name):
                artifact.unlink()
            ledger.record_failure(slot.name, record)
            if store is not None:
                # A crashed / timed-out worker never reached its own
                # shard write; the parent records what it knows so the
                # failure timeline has one shard per attempt regardless.
                key = str(ledger.cells[slot.name]["key"])
                if not store.has_attempt(slot.name, key, slot.attempt):
                    obs_store.write_attempt_shard(
                        store.attempt_shard_path(slot.name, key, slot.attempt),
                        cell=slot.name,
                        key=key,
                        attempt=slot.attempt,
                        outcome=kind,
                        pid=slot.process.pid or 0,
                        started=slot.started_wall,
                        seconds=float(record["elapsed"]),
                        counters={},
                        spans=[],
                        events=[],
                        error=str(record.get("error", "")),
                    )
            if slot.session_attempt < retries:
                registry.inc(M_RETRIES)
                delay = (
                    retry_backoff * (2 ** slot.session_attempt)
                    if retry_backoff
                    else 0.0
                )
                delayed.append((time.monotonic() + delay, slot.name))
                events.warning(
                    "resilience.retry",
                    cell=slot.name,
                    attempt=slot.attempt,
                    kind=kind,
                    backoff=round(delay, 3),
                    error=record.get("error"),
                    msg=(
                        f"{slot.name}: attempt {slot.attempt + 1} failed "
                        f"({kind}); retrying in {delay:.2f}s"
                    ),
                )
            else:
                registry.inc(M_QUARANTINED)
                ledger.mark_quarantined(slot.name)
                events.error(
                    "resilience.quarantine",
                    cell=slot.name,
                    attempts=slot.attempt + 1,
                    kind=kind,
                    error=record.get("error"),
                    msg=(
                        f"{slot.name}: quarantined after "
                        f"{slot.attempt + 1} attempts ({kind})"
                    ),
                )

        while queue or active or delayed:
            now = time.monotonic()
            if delayed:
                ready = [n for t, n in delayed if t <= now]
                delayed = [(t, n) for t, n in delayed if t > now]
                queue.extend(ready)
            while queue and len(active) < max_workers:
                spawn(queue.pop(0))
            still: List[_Active] = []
            for slot in active:
                if not slot.process.is_alive():
                    slot.process.join()
                    code = slot.process.exitcode
                    if code == 0 and ledger.validate_artifact(slot.name):
                        finish_success(slot)
                    elif code == 0:
                        finish_failure(
                            slot,
                            {
                                "kind": "corrupt-artifact",
                                "error": (
                                    "worker exited cleanly but its "
                                    "checkpoint artifact is unreadable"
                                ),
                            },
                        )
                    else:
                        finish_failure(
                            slot, _classify_failure(ledger, slot.name, code)
                        )
                elif slot.deadline is not None and now > slot.deadline:
                    slot.process.terminate()
                    slot.process.join(timeout=1.0)
                    if slot.process.is_alive():
                        slot.process.kill()
                        slot.process.join()
                    finish_failure(
                        slot,
                        {
                            "kind": "timeout",
                            "error": (
                                f"cell exceeded --cell-timeout "
                                f"{cell_timeout}s; worker terminated"
                            ),
                        },
                    )
                else:
                    still.append(slot)
            active = still
            if active or delayed:
                time.sleep(POLL_INTERVAL)

        # All workers have exited: any temp file left in the models dir
        # or shard store belongs to an interrupted write of a failed
        # attempt.
        purge_stale_tmp(ledger.models_dir)
        if store is not None:
            purge_stale_tmp(store.obs_dir)

        # Assemble the (possibly partial) library from the checkpoints.
        assemble_run_result(ledger, names, result, output)
        run_span.set("done", len(result.models))
        run_span.set("quarantined", len(result.quarantined))
        run_span.set("resumed", len(result.resumed))
    if store is not None and session_events is not None:
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
