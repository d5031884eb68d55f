"""Hypothesis properties of the resilient run layer.

Two layers are exercised:

* **Ledger interleavings** — random per-cell outcome scripts (fail,
  timeout, killed-after-artifact, succeed) are replayed against a real
  :class:`~repro.resilience.ledger.RunLedger` on disk across simulated
  sessions (the ledger is reopened between each, exactly as a resumed
  process would).  Invariants: a completed model is never lost, metrics
  are counted exactly once per done cell no matter how many resumes
  happen, and attempt counts are monotonic.
* **Real service** — fault scripts whose failures stay within the retry
  budget never change the output library bytes.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.camodel import generate_ca_model
from repro.library import SOI28, build_cell
from repro.resilience.faults import FaultPlan, FaultRule
from repro.resilience.ledger import (
    DONE,
    FAILED,
    PENDING,
    QUARANTINED,
    RunLedger,
)
from repro.resilience.runner import canonical_model_dict
from repro.service import serve, submit_library

# ----------------------------------------------------------------------
# Ledger interleaving property
# ----------------------------------------------------------------------

OPTIONS = {"policy": "exhaustive", "delay_detection": True}

#: outcomes a scripted attempt can take before the cell finally succeeds
FAIL = "fail"
TIMEOUT = "timeout"
KILLED_AFTER_ARTIFACT = "killed-after-artifact"

#: retry budget per simulated session (mirrors the service's default of
#: ``retries=1`` → two attempts per session)
SESSION_ATTEMPTS = 2


@pytest.fixture(scope="module")
def model_dict():
    cell = build_cell(SOI28, "NAND2", 1)
    model = generate_ca_model(cell, params=SOI28.electrical)
    return canonical_model_dict(model)


def _artifact_for(model_dict, name):
    data = dict(model_dict)
    data["cell"] = name
    return data


outcome = st.sampled_from([FAIL, TIMEOUT, KILLED_AFTER_ARTIFACT])
scripts_strategy = st.dictionaries(
    keys=st.sampled_from(["C0", "C1", "C2", "C3"]),
    values=st.lists(outcome, max_size=3),
    min_size=1,
    max_size=4,
)


class _SessionKilled(Exception):
    """The simulated parent process died mid-session."""


def _simulate_session(run_dir, cells, scripts, cursor, model_dict, resume):
    """Replay one parent-process lifetime against the on-disk ledger."""
    ledger = RunLedger.open(run_dir, OPTIONS, cells, resume=resume)
    ledger.recover()
    if resume:
        ledger.requeue_quarantined()
    session_attempts = {name: 0 for name, _ in cells}
    try:
        for name, _ in cells:
            while ledger.state(name) in (PENDING, FAILED):
                attempt = ledger.mark_running(name)
                session_attempts[name] += 1
                exhausted = session_attempts[name] >= SESSION_ATTEMPTS
                script = scripts.get(name, [])
                step = cursor.get(name, 0)
                action = script[step] if step < len(script) else "ok"
                cursor[name] = step + 1
                if action == FAIL:
                    ledger.record_failure(
                        name, {"kind": "exception", "attempt": attempt},
                        attempt, quarantine=exhausted,
                    )
                elif action == TIMEOUT:
                    ledger.record_failure(
                        name, {"kind": "timeout", "attempt": attempt},
                        attempt, quarantine=exhausted,
                    )
                elif action == KILLED_AFTER_ARTIFACT:
                    # Worker finished and checkpointed; the parent died
                    # before it could record the done transition.
                    _write_artifact(ledger, name, model_dict)
                    raise _SessionKilled(name)
                else:
                    _write_artifact(ledger, name, model_dict)
                    ledger.mark_done(name, seconds=1.0, metrics={"work": 1.0})
    except _SessionKilled:
        return False
    return True


def _write_artifact(ledger, name, model_dict):
    artifact = _artifact_for(model_dict, name)
    ledger.artifact_path(name).write_text(json.dumps(artifact, indent=2))
    ledger.sidecar_path(name).write_text(
        json.dumps({"seconds": 1.0, "counters": {"work": 1.0}})
    )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(scripts=scripts_strategy)
def test_interleavings_never_lose_models_or_double_count(
    scripts, model_dict
):
    run_dir = Path(tempfile.mkdtemp(prefix="resilience-prop-"))
    try:
        names = sorted(scripts)
        cells = [(name, f"key-{name}") for name in names]
        cursor = {}
        ever_done = set()
        attempts_seen = {name: 0 for name in names}
        sessions = 0
        # Every session consumes at least one scripted outcome or
        # quarantines/completes a cell, so this terminates well inside
        # the bound.
        bound = sum(len(s) for s in scripts.values()) + len(names) + 4
        while sessions <= bound:
            finished = _simulate_session(
                run_dir, cells, scripts, cursor, model_dict,
                resume=sessions > 0,
            )
            sessions += 1
            ledger = RunLedger.load(run_dir)
            for name in names:
                record = ledger.cells[name]
                # attempts are monotonic across resumes
                assert int(record["attempts"]) >= attempts_seen[name]
                attempts_seen[name] = int(record["attempts"])
            # recovery promotes checkpointed-but-unrecorded cells, and
            # a model that ever completed is never lost afterwards
            probe = RunLedger.open(run_dir, OPTIONS, cells, resume=True)
            probe.recover()
            for name in names:
                if probe.state(name) == DONE:
                    ever_done.add(name)
                assert name not in ever_done or probe.state(name) == DONE
                if probe.state(name) == DONE:
                    assert probe.validate_artifact(name)
            if finished and not probe.names_in(PENDING, FAILED):
                break
        final = RunLedger.open(run_dir, OPTIONS, cells, resume=True)
        final.recover()
        done = set(final.names_in(DONE))
        quarantined = set(final.names_in(QUARANTINED))
        assert done | quarantined == set(names)
        # each done cell's counters are counted exactly once, no matter
        # how many sessions, retries, or recoveries happened
        totals = final.metrics_total()
        assert totals.get("work", 0.0) == float(len(done))
        # done artifacts are the canonical bytes a clean run would write
        for name in done:
            data = json.loads(final.artifact_path(name).read_text())
            assert data == _artifact_for(model_dict, name)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# Real-service property: in-budget faults never change the output bytes
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def service_cells():
    return [build_cell(SOI28, f, 1) for f in ("NAND2", "NOR2")]


@pytest.fixture(scope="module")
def service_baseline(tmp_path_factory, service_cells, reference_library):
    """In-process reference bytes; a clean service run must match them."""
    reference = reference_library(service_cells)
    run_dir = tmp_path_factory.mktemp("prop-clean")
    output = run_dir / "library.json"
    submit_library(service_cells, run_dir=run_dir)
    result = serve(run_dir, workers=2, output=output)
    assert result.complete
    assert output.read_bytes() == reference
    return reference


failing_attempts = st.sets(st.integers(min_value=0, max_value=2), max_size=3)


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    nand_fails=failing_attempts,
    nor_fails=failing_attempts,
)
def test_in_budget_faults_preserve_output_bytes(
    nand_fails, nor_fails, service_cells, service_baseline
):
    rules = []
    if nand_fails:
        rules.append(
            FaultRule(
                cell="S28_NAND2X1", mode="raise",
                attempts=tuple(sorted(nand_fails)),
            )
        )
    if nor_fails:
        rules.append(
            FaultRule(
                cell="S28_NOR2X1", mode="raise",
                attempts=tuple(sorted(nor_fails)),
            )
        )
    run_dir = Path(tempfile.mkdtemp(prefix="resilience-service-prop-"))
    try:
        output = run_dir / "library.json"
        submit_library(
            service_cells,
            run_dir=run_dir / "run",
            retries=3,  # 4 attempts/session > max 3 scripted failures
            fault_plan=FaultPlan(rules=rules),
        )
        result = serve(run_dir / "run", workers=2, output=output)
        assert result.complete
        assert output.read_bytes() == service_baseline
        ledger = RunLedger.load(run_dir / "run")
        for name, fails in (
            ("S28_NAND2X1", nand_fails),
            ("S28_NOR2X1", nor_fails),
        ):
            first_ok = min(i for i in range(4) if i not in fails)
            assert int(ledger.cells[name]["attempts"]) == first_ok + 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
