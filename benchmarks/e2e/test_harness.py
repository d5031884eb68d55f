"""Tests of the end-to-end benchmark harness itself (not of the program).

Run with ``python -m pytest benchmarks/e2e/test_harness.py``; they stay
outside the tier-1 ``testpaths`` and take a few seconds.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import check_e2e  # noqa: E402
import run  # noqa: E402  (also puts src/ on sys.path)
from recorder import Recorder, covered_length, installed, originals, self_times  # noqa: E402
from workloads import WORKLOADS, _timed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(span_id, parent, start, end):
    return {
        "id": span_id, "parent": parent, "name": "iteration",
        "start": start, "end": end, "run": "t", "attrs": {},
    }


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_self_time_of_nested_spans():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 5.0, 6.0),
    ]
    assert self_times(spans) == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 2.0, 6.0),
        _span(2, 0, 4.0, 8.0),  # overlaps its sibling
        _span(3, 0, 9.0, 12.0),  # runs past its parent's end
    ]
    # children cover [2, 8] and [9, 10] of the parent
    assert self_times(spans)[0] == pytest.approx(3.0)
    assert covered_length(0.0, 5.0, [(-1.0, 1.0), (4.0, 9.0)]) == pytest.approx(2.0)


def test_traced_run_restores_every_patch():
    before = originals()
    workload = WORKLOADS["hybrid_sparse"]
    setup = workload.setup(0, True)
    recorder = Recorder("test")
    workload.run(setup, recorder)
    after = originals()
    assert all(after[key] is before[key] for key in before)
    names = {span["name"] for span in recorder.spans}
    assert {"HybridFlow.run", "RandomForestClassifier.fit", "build_matrix"} <= names

    # untraced runs execute the shipped objects; traced ones the wrappers
    seen, _ = _timed(None, originals)
    assert all(seen[key] is before[key] for key in before)
    seen, _ = _timed(Recorder("test"), originals)
    assert not any(seen[key] is before[key] for key in before)

    with pytest.raises(RuntimeError):
        with installed(Recorder("test")):
            raise RuntimeError("boom")
    after = originals()
    assert all(after[key] is before[key] for key in before)


def test_hybrid_sparse_refits_after_feedback():
    # any seed keeps each group's order, so the refits do not depend on it
    workload = WORKLOADS["hybrid_sparse"]
    setup = workload.setup(5, False)
    recorder = Recorder("test")
    outcome = workload.run(setup, recorder)
    assert outcome.problems == [] and outcome.failed == 0
    metrics = run.layer_metrics(outcome.seconds, [], outcome, recorder, setup.build_s)
    assert metrics["learning.refit_frac"] > 0
    assert metrics["flow.routes_ml"] and metrics["flow.routes_sim"]
    assert metrics["trace.coverage"] >= 0.9


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    done = _run(["--workload", "characterize", "--smoke", "--trace", trace])
    assert done.returncode == 0, done.stdout + done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    assert all(
        result["metrics"][m["name"]]["unit"] == m["unit"] for m in SPEC[section]
    )


def test_smoke_run_of_every_workload(tmp_path):
    done = _run(["--smoke"], cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    bench = json.loads((tmp_path / "BENCH_e2e.json").read_text())
    assert list(bench["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    names = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, record in bench["workloads"].items():
        assert record["correct"], (name, record["problems"])
        assert record["failed"] == 0
        assert set(record["metrics"]) == names
    spans = (tmp_path / "BENCH_e2e_trace.jsonl").read_text().splitlines()
    assert {json.loads(line)["workload"] for line in spans} == set(bench["workloads"])
    assert not (tmp_path / ".bench_e2e").exists()


def test_tampered_expected_digest_fails(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / "src").symlink_to(ROOT / "src")
    expected = json.loads((bench / "expected.json").read_text())
    expected["characterize/smoke"] = "0" * 64
    (bench / "expected.json").write_text(json.dumps(expected))
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "characterize", "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    result = _last_json(done.stdout)
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_gate_fails_on_cells_per_min_drop(tmp_path):
    baseline = json.loads((HERE / "baseline.json").read_text())
    assert check_e2e.check(baseline, baseline, SPEC) == []
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "cells_per_min")
    fresh = copy.deepcopy(baseline)
    fresh["workloads"]["hybrid"]["metrics"]["cells_per_min"] *= 1.0 - bound + 0.05
    assert check_e2e.check(fresh, baseline, SPEC) == []
    fresh["workloads"]["hybrid"]["metrics"]["cells_per_min"] = (
        baseline["workloads"]["hybrid"]["metrics"]["cells_per_min"] * (1.0 - bound - 0.05)
    )
    failures = check_e2e.check(fresh, baseline, SPEC)
    assert len(failures) == 1 and "cells_per_min" in failures[0]
    fresh_path = tmp_path / "BENCH_e2e.json"
    fresh_path.write_text(json.dumps(fresh))
    assert check_e2e.main([str(fresh_path)]) == 1
    assert check_e2e.main([str(fresh_path), "--baseline", str(tmp_path / "none.json")]) == 1


def test_gate_pins_layer_counts():
    baseline = json.loads((HERE / "baseline.json").read_text())
    fresh = copy.deepcopy(baseline)
    fresh["workloads"]["characterize"]["metrics"]["simulation.solves"] += 1
    failures = check_e2e.check(fresh, baseline, SPEC)
    assert len(failures) == 1 and "simulation.solves" in failures[0]
