"""Library characterization: inline, pooled, or checkpointed.

Inline, :func:`generate_library` packs a library of two or more cells
through the cross-cell engine
(:func:`~repro.camodel.throughput.run_throughput`); ``packed=False``
selects the scalar reference solver instead.  The
conventional flow is also embarrassingly parallel over cells ("CPU
requirements" are one of the costs the paper lists), so ``processes=N``
fans :func:`~repro.camodel.generate.generate_ca_model` out over a process
pool; cells are rebuilt inside the workers from (technology, cell name)
so only small payloads cross the pipe.

Generation options (``params``, ``universe``, ``delay_detection``,
``slow_factor``) are forwarded through the worker payload, so the pooled
path produces models identical to the inline path.  For the
complementary *defect-level* fan-out (one large cell saturating all
cores), see the ``parallelism`` knob of
:func:`~repro.camodel.generate.generate_ca_model` — the two are
alternatives: pool workers are daemonic and run the defect loop serially.
"""

from __future__ import annotations

import multiprocessing
import traceback
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.camodel.generate import (
    DEFAULT_SLOW_FACTOR,
    PhaseCacheArg,
    generate_ca_model,
)
from repro.camodel.io import model_from_dict, model_to_dict
from repro.camodel.model import CAModel
from repro.camodel.planstore import plan_store
from repro.defects.model import Defect
from repro.library.technology import ElectricalParams
from repro.resilience.faults import FaultPlan
from repro.spice.netlist import CellNetlist
from repro.spice.writer import write_cell


def ensure_unique_cell_names(names: Sequence[str]) -> None:
    """Reject duplicate cell names in one counting pass.

    A later model would silently shadow the earlier one in the returned
    ``{name: model}`` dict, so every library path treats duplicates as an
    error.  Shared by the inline/pooled paths here, the cross-cell
    throughput engine and the resilient runner (the old per-path
    ``names.count(n)`` guards were O(n^2) over large libraries).
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
    / resume semantics on top of this, use the run-dir path
    (``run_dir=...`` or :func:`repro.resilience.run_library`).
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


def _characterize_worker(payload: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """Worker: parse the cell text, generate, return a serialized model.

    Runs under a fresh obs scope: the span buffer and metric snapshot ride
    back with the model so the parent can merge them into one coherent
    run-level trace and registry — on the error path too, so the work a
    failing cell did before dying (solver spans, cache counters) is not
    silently dropped from the run-level accounting.  Exceptions are
    returned as structured error tuples instead of propagating, so one
    bad cell cannot discard the pool's completed siblings.
    """
    name, cell_text, technology, policy, kwargs, trace_enabled = payload

    worker_tracer = obs.Tracer(enabled=trace_enabled)
    worker_metrics = obs.Metrics()
    try:
        with obs.scoped(
            tracer=worker_tracer,
            metrics=worker_metrics,
            events=obs.EventLog(obs.NullSink()),
        ):
            # Plan-once / replay-many: repeated payloads of one cell in
            # this worker process reuse the parsed netlist.
            cell = plan_store().cell(cell_text, technology)
            model = generate_ca_model(cell, policy=policy, **kwargs)
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        return (
            "error",
            name,
            f"{type(exc).__name__}: {exc}",
            traceback.format_exc(),
            worker_tracer.export(),
            worker_metrics.snapshot(),
        )
    return (
        "ok",
        cell.name,
        model_to_dict(model),
        worker_tracer.export(),
        worker_metrics.snapshot(),
    )


def generate_library(
    cells: Sequence[CellNetlist],
    policy: str = "auto",
    processes: Optional[int] = None,
    chunksize: int = 1,
    params: Optional[ElectricalParams] = None,
    universe: Optional[Sequence[Defect]] = None,
    delay_detection: bool = True,
    slow_factor: float = DEFAULT_SLOW_FACTOR,
    parallelism: Optional[int] = None,
    packed: bool = True,
    phase_cache: PhaseCacheArg = None,
    run_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    retries: int = 1,
    cell_timeout: Optional[float] = None,
    retry_backoff: float = 0.1,
    fault_plan: Optional[FaultPlan] = None,
    output: Optional[Union[str, Path]] = None,
    workers: Optional[int] = None,
) -> Dict[str, CAModel]:
    """Characterize many cells, optionally in parallel.

    ``processes=None`` or ``1`` runs inline (deterministic order, easier
    debugging); otherwise a ``multiprocessing`` pool is used.  All
    generation options are honored by both paths, so ``processes=4``
    returns the same models as ``processes=1``.  ``parallelism`` is the
    defect-level worker count forwarded to
    :func:`~repro.camodel.generate.generate_ca_model`; it only takes
    effect on the inline path (pool workers cannot fork further).
    Returns ``{cell name: CAModel}``; duplicate cell names are an error
    (the later model would silently shadow the earlier one).

    If any cell fails, the completed siblings are never discarded: the
    raised :class:`LibraryGenerationError` carries them as
    ``.completed``.  Passing ``run_dir`` switches to the checkpointed
    resilient runner (:func:`repro.resilience.run_library`): per-cell
    state and model artifacts persist to the directory, ``resume=True``
    continues a killed run, and failures are retried (``retries``,
    ``cell_timeout``, ``retry_backoff``) then quarantined — the dict
    returned is then the (possibly partial) set of completed models.
    ``fault_plan`` and ``output`` are likewise run-dir options, forwarded
    verbatim; passing any run-dir-only option *without* ``run_dir`` is an
    error (it used to be silently ignored).  ``workers`` (also run-dir
    only) routes through the leased coordinator/worker service instead
    (:mod:`repro.service`): ``workers=N`` submits the job and spawns N
    stateless worker processes coordinating purely through the run
    directory — models, ``failures.json`` and ``metrics_total()`` stay
    byte-identical to the sequential runner's.

    ``packed`` (the default) solves through the vectorized packed
    kernel: the inline path routes libraries of two or more cells
    through :func:`~repro.camodel.throughput.run_throughput` (every
    cell's phases share kernel calls), the other paths pack each cell's
    defect slice; ``packed=False`` selects the scalar reference solver.
    ``phase_cache`` persists solved phases across runs (see
    :func:`~repro.camodel.generate.generate_ca_model`).  Both knobs are
    identity-preserving: detection tables, golden responses and
    solve/cache-hit counts are identical either way (the scalar solver
    reports zero ``batched_phases``).
    """
    if run_dir is None:
        rundir_only = {
            "resume": (resume, False),
            "retries": (retries, 1),
            "cell_timeout": (cell_timeout, None),
            "retry_backoff": (retry_backoff, 0.1),
            "fault_plan": (fault_plan, None),
            "output": (output, None),
            "workers": (workers, None),
        }
        offending = sorted(
            option
            for option, (value, default) in rundir_only.items()
            if value != default
        )
        if offending:
            raise ValueError(
                f"{', '.join(offending)} require(s) run_dir=... — these "
                "options only apply to the checkpointed resilient runner"
            )
    elif workers is not None:
        # Leased coordinator/worker service: N stateless worker processes
        # drain the run directory, one coordinator owns the ledger.
        # Byte-identical to the run_library path below (the chaos suite
        # enforces it); cell_timeout is a sequential-runner-only knob.
        if cell_timeout is not None:
            raise ValueError(
                "cell_timeout is not supported by the worker service "
                "(leases have no per-cell wall clock); use processes=... "
                "instead of workers=..."
            )
        from repro.service import serve, submit_library

        submit_library(
            cells,
            run_dir=run_dir,
            policy=policy,
            resume=resume,
            retries=retries,
            fault_plan=fault_plan,
            params=params,
            universe=universe,
            delay_detection=delay_detection,
            slow_factor=slow_factor,
            parallelism=parallelism,
            packed=packed,
            phase_cache=phase_cache,
        )
        return serve(
            run_dir, workers=workers, resume=resume, output=output
        ).models
    else:
        from repro.resilience.runner import run_library

        result = run_library(
            cells,
            run_dir=run_dir,
            policy=policy,
            processes=processes,
            resume=resume,
            retries=retries,
            cell_timeout=cell_timeout,
            retry_backoff=retry_backoff,
            fault_plan=fault_plan,
            params=params,
            universe=universe,
            delay_detection=delay_detection,
            slow_factor=slow_factor,
            parallelism=parallelism,
            packed=packed,
            phase_cache=phase_cache,
            output=output,
        )
        return result.models

    ensure_unique_cell_names([cell.name for cell in cells])

    kwargs = dict(
        params=params,
        universe=universe,
        delay_detection=delay_detection,
        slow_factor=slow_factor,
        packed=packed,
        phase_cache=phase_cache,
    )
    tracer = obs.tracer()
    registry = obs.metrics()
    out: Dict[str, CAModel] = {}
    failures: List[Dict[str, str]] = []
    if processes is None or processes <= 1:
        if packed and len(cells) > 1 and (parallelism is None or parallelism <= 1):
            # Whole-library cross-cell packing: every cell's phase
            # batches share kernel calls (byte-identical models).  One
            # cell packs the same phases through generate_ca_model, which
            # keeps its per-cell span and golden/defect seconds.
            from repro.camodel.throughput import run_throughput

            with tracer.span(
                "camodel.generate_library", cells=len(cells), processes=1
            ):
                return run_throughput(
                    cells,
                    policy=policy,
                    params=params,
                    universe=universe,
                    delay_detection=delay_detection,
                    slow_factor=slow_factor,
                    phase_cache=phase_cache,
                )
        with tracer.span(
            "camodel.generate_library", cells=len(cells), processes=1
        ):
            for cell in cells:
                try:
                    out[cell.name] = generate_ca_model(
                        cell, policy=policy, parallelism=parallelism, **kwargs
                    )
                except Exception as exc:  # noqa: BLE001 - collected below
                    failures.append(
                        {
                            "cell": cell.name,
                            "error": f"{type(exc).__name__}: {exc}",
                            "traceback": traceback.format_exc(),
                        }
                    )
        if failures:
            raise LibraryGenerationError(failures, completed=out)
        return out

    payloads = [
        (
            cell.name,
            write_cell(cell),
            cell.technology,
            policy,
            kwargs,
            tracer.enabled,
        )
        for cell in cells
    ]
    with tracer.span(
        "camodel.generate_library", cells=len(cells), processes=processes
    ) as library_span:
        with multiprocessing.Pool(processes=processes) as pool:
            for item in pool.imap_unordered(
                _characterize_worker, payloads, chunksize=chunksize
            ):
                if item[0] == "error":
                    _, name, error, tb, spans, metric_snapshot = item
                    # The failing worker's partial work still happened:
                    # absorb its spans and counters like a success.
                    tracer.absorb(spans, parent_id=library_span.span_id)
                    registry.merge(metric_snapshot)
                    failures.append(
                        {"cell": name, "error": error, "traceback": tb}
                    )
                    continue
                _, name, data, spans, metric_snapshot = item
                tracer.absorb(spans, parent_id=library_span.span_id)
                registry.merge(metric_snapshot)
                out[name] = model_from_dict(data)
    if failures:
        raise LibraryGenerationError(failures, completed=out)
    return out
