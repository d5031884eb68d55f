"""The four workloads of the end-to-end benchmark (the paper's Fig. 7 flow).

Each workload has a *setup* (synthesis, training characterization and
samples for the hybrid workloads, and an in-process conventional
characterization of the target cells whose models every iteration must
reproduce), an *iteration* (the timed product path) and the checks that
make its output trustworthy.  Inputs come only from the
workload seed: seed 0 is library order, any other seed reorders the
cells.  The hybrid workloads keep the library order *within* each
(#inputs, #transistors) group and shuffle how the groups interleave:
feedback makes routing depend on the order of a group's own cells, so a
free permutation would change how much fitting a run does and the
seed would move the timing.  Across groups nothing is shared, so every
seed produces the same per-cell decisions and the same digest.

Scale is fixed here and never read from ``REPRO_SCALE`` or ``.cache/``.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.camodel.batch import LibraryGenerationError, generate_library
from repro.camodel.model import CAModel
from repro.flow import HybridFlow, HybridReport
from repro.learning import build_samples
from repro.library.builder import build_library
from repro.library.technology import get as get_technology
from repro.obs.store import RunTelemetry
from repro.resilience.runner import canonical_model_dict
from repro.service import serve, submit_library
from repro.spice.netlist import CellNetlist

from recorder import Recorder, installed

#: scratch space for service run directories, inside the working directory
SCRATCH = Path(".bench_e2e")
#: cells kept per workload by ``--smoke``
SMOKE_CELLS = 4
#: left out of the hybrid libraries: their (2, 12) and (2, 24) groups
#: alone would take ~3.5 s of fitting per iteration, too few iterations
#: per timed run for a steady median
HYBRID_SKIP = ("XOR2", "XNOR2")


def _library(
    tech: str, drives: Sequence[int], max_inputs: int, skip: Sequence[str] = (), flavors: int = 1
):
    """Cells of *tech* up to *max_inputs* inputs in its first *flavors* flavors."""
    technology = get_technology(tech)
    functions = [f for f in technology.functions if f not in skip]
    return build_library(
        technology, functions=functions, drives=drives,
        flavors=technology.flavors[:flavors], max_inputs=max_inputs,
    ).cells


def _hybrid_target() -> List[CellNetlist]:
    """C40 drives 1-2 in STD, and each drive-1 cell's HS twin, in library order.

    A twin follows its STD cell.  When the STD cell has no structural
    match it is simulated and fed back, and its twin then matches it, so
    the group's forest is fitted again: the feedback refit path.
    """
    technology = get_technology("c40")
    hs = technology.flavors[1]
    drive2_hs = {technology.cell_name(f, 2, hs) for f in technology.functions}
    cells = _library("c40", (1, 2), 2, skip=HYBRID_SKIP, flavors=2)
    return [cell for cell in cells if cell.name not in drive2_hs]


def remove_scratch() -> None:
    """Drop the scratch directory once nothing else is using it."""
    try:
        SCRATCH.rmdir()
    except OSError:
        pass


def shuffled(cells: Sequence[CellNetlist], seed: int) -> List[CellNetlist]:
    """Seed 0 keeps library order; other seeds permute the cells."""
    out = list(cells)
    if seed:
        random.Random(seed).shuffle(out)
    return out


def interleaved(cells: Sequence[CellNetlist], seed: int) -> List[CellNetlist]:
    """Shuffle how groups interleave, keeping each group's own order."""
    if not seed:
        return list(cells)
    queues: Dict[Any, List[CellNetlist]] = {}
    for cell in cells:
        queues.setdefault(cell.group_key, []).append(cell)
    slots = [key for key, queue in queues.items() for _ in queue]
    random.Random(seed).shuffle(slots)
    heads = {key: iter(queue) for key, queue in queues.items()}
    return [next(heads[key]) for key in slots]


def models_digest(models: Dict[str, CAModel]) -> str:
    payload = [[name, canonical_model_dict(models[name])] for name in sorted(models)]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def decisions_digest(report: HybridReport) -> str:
    payload = [
        [d.cell_name, d.match, d.route, canonical_model_dict(d.model)]
        for d in sorted(report.decisions, key=lambda d: d.cell_name)
    ]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _characterize(cells: Sequence[CellNetlist], params) -> Dict[str, CAModel]:
    """In-process packed conventional characterization; failures drop out."""
    try:
        return generate_library(cells, params=params, packed=True)
    except LibraryGenerationError as exc:
        return exc.completed


def _reference(cells: Sequence[CellNetlist], params) -> str:
    """Digest of the in-process conventional models of *cells*."""
    return models_digest(_characterize(cells, params))


def _check_reference(setup: Setup, models: Dict[str, CAModel], what: str) -> List[str]:
    digest = models_digest(models)
    if digest != setup.reference:
        return [
            f"{what} differ from the set-up's in-process characterization "
            f"({digest} != {setup.reference})"
        ]
    return []


@dataclass
class Setup:
    cells: List[CellNetlist]
    params: Any
    #: synthesis seconds (the ``library.build_s`` layer metric)
    build_s: float
    #: digest of the conventional models of ``cells`` made in-process by
    #: the set-up; every iteration's conventional models must equal it
    reference: str
    samples: list = field(default_factory=list)


@dataclass
class Outcome:
    """One iteration: its timed wall, its output and what it checked."""

    seconds: float
    digest: str
    failed: int
    problems: List[str] = field(default_factory=list)
    #: models produced by conventional simulation in the timed path
    simulated: List[CAModel] = field(default_factory=list)
    #: wall of the conventional baseline (hybrid workloads only)
    baseline_seconds: Optional[float] = None
    report: Optional[HybridReport] = None
    telemetry: Optional[RunTelemetry] = None


def _span(recorder: Optional[Recorder], name: str):
    """A span around the benchmark's own call, or nothing when untraced."""
    return nullcontext() if recorder is None else recorder.span(name)


def _timed(recorder: Optional[Recorder], fn: Callable[[], Any], patch: bool = True):
    """Run *fn*; traced, it runs in an ``iteration`` span (patches installed)."""
    if recorder is None:
        started = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - started
    with installed(recorder) if patch else nullcontext(), recorder.span("iteration") as root:
        result = fn()
    return result, root["end"] - root["start"]


# ----------------------------------------------------------------------
# characterize: packed in-process conventional flow (simulation-bound)
# ----------------------------------------------------------------------

def _setup_conventional(tech: str, drives: Sequence[int], max_inputs: int, seed: int, smoke: bool):
    started = time.perf_counter()
    cells = _library(tech, drives, max_inputs)
    build_s = time.perf_counter() - started
    cells = shuffled(cells[:SMOKE_CELLS] if smoke else cells, seed)
    params = get_technology(tech).electrical
    return Setup(cells, params, build_s, _reference(cells, params))


def setup_characterize(seed: int, smoke: bool) -> Setup:
    return _setup_conventional("soi28", (1,), 3, seed, smoke)


def run_characterize(setup: Setup, recorder: Optional[Recorder]) -> Outcome:
    def call():
        with _span(recorder, "generate_library"):
            return _characterize(setup.cells, setup.params)

    models, seconds = _timed(recorder, call)
    return Outcome(
        seconds=seconds,
        digest=models_digest(models),
        failed=len(setup.cells) - len(models),
        problems=_check_reference(setup, models, "models"),
        simulated=list(models.values()),
    )


# ----------------------------------------------------------------------
# characterize_service: the leased run-dir service with one worker
# ----------------------------------------------------------------------

def setup_service(seed: int, smoke: bool) -> Setup:
    return _setup_conventional("c40", (1, 2), 2, seed, smoke)


def run_service(setup: Setup, recorder: Optional[Recorder]) -> Outcome:
    SCRATCH.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="svc-", dir=SCRATCH))

    def call():
        with _span(recorder, "submit_library"):
            submit_library(setup.cells, run_dir=run_dir, params=setup.params, packed=True)
        with _span(recorder, "serve"):
            return serve(run_dir, workers=1)

    try:
        # The worker is a subprocess: its layers come from the run
        # directory's telemetry, not from patched functions.
        result, seconds = _timed(recorder, call, patch=False)
        telemetry = RunTelemetry.load(run_dir) if recorder is not None else None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        remove_scratch()
    return Outcome(
        seconds=seconds,
        digest=models_digest(result.models),
        failed=len(setup.cells) - len(result.models),
        # byte for byte: the canonical digests must be equal
        problems=_check_reference(setup, result.models, "service models"),
        simulated=list(result.models.values()),
        telemetry=telemetry,
    )


# ----------------------------------------------------------------------
# hybrid / hybrid_sparse: conventional baseline + HybridFlow.run on C40
# ----------------------------------------------------------------------

def _setup_hybrid(seed: int, smoke: bool, train_drives: Sequence[int]) -> Setup:
    started = time.perf_counter()
    train = _library("soi28", train_drives, 2, skip=HYBRID_SKIP)
    target = _hybrid_target()
    build_s = time.perf_counter() - started
    train_params = get_technology("soi28").electrical
    models = _characterize(train, train_params)
    samples = build_samples([(cell, models[cell.name]) for cell in train], train_params)
    target = interleaved(target[:SMOKE_CELLS] if smoke else target, seed)
    params = get_technology("c40").electrical
    return Setup(target, params, build_s, _reference(target, params), samples)


def setup_hybrid(seed: int, smoke: bool) -> Setup:
    return _setup_hybrid(seed, smoke, train_drives=(1, 2))


def setup_hybrid_sparse(seed: int, smoke: bool) -> Setup:
    return _setup_hybrid(seed, smoke, train_drives=(1,))


def run_hybrid(setup: Setup, recorder: Optional[Recorder]) -> Outcome:
    # (a) the conventional baseline, which also yields the references;
    # untraced, so the trace covers exactly the hybrid phase (b)
    started = time.perf_counter()
    references = _characterize(setup.cells, setup.params)
    baseline_seconds = time.perf_counter() - started

    flow = HybridFlow(setup.samples, params=setup.params)
    report, seconds = _timed(
        recorder, lambda: flow.run(setup.cells, references=references)
    )
    problems = _check_reference(setup, references, "conventional baseline models")
    simulated = []
    for decision in report.decisions:
        if decision.route != "simulate":
            continue
        simulated.append(decision.model)
        reference = references.get(decision.cell_name)
        if reference is None or canonical_model_dict(decision.model) != canonical_model_dict(
            reference
        ):
            problems.append(f"{decision.cell_name}: simulated model differs from the baseline")
    return Outcome(
        seconds=seconds,
        digest=decisions_digest(report),
        failed=len(setup.cells) - len(report.decisions) + len(problems),
        problems=problems,
        simulated=simulated,
        baseline_seconds=baseline_seconds,
        report=report,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, bool], Setup]
    run: Callable[[Setup, Optional[Recorder]], Outcome]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("characterize", setup_characterize, run_characterize),
        Workload("characterize_service", setup_service, run_service),
        Workload("hybrid", setup_hybrid, run_hybrid),
        Workload("hybrid_sparse", setup_hybrid_sparse, run_hybrid),
    )
}
