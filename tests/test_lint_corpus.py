"""Integration tests: `python -m repro lint` against the fixture corpus.

The corpus layout is documented in tests/lint_corpus/README.md:

- bad/         one fixture per rule family; golden.json pins the findings
- suppressed/  the same violations, silenced via every suppression form
- baseline/    a known-debt file, adopted through --write-baseline
- program/bad/ a miniature project for the chains the whole-program
               rules follow; program/golden.json pins the findings

These tests run the real CLI as a subprocess so exit codes, argument
parsing, and reporter plumbing are all exercised end to end.  Every run
passes --no-cache or a temporary --cache-dir, so none writes into the
repository.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path("tests") / "lint_corpus"


def run_cli(*argv, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    if "--cache-dir" not in argv:
        argv += ("--no-cache",)
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def test_bad_corpus_matches_golden():
    proc = run_cli(str(CORPUS / "bad"), "--format", "json")
    assert proc.returncode == 1, proc.stderr
    got = json.loads(proc.stdout)
    golden = json.loads((REPO_ROOT / CORPUS / "golden.json").read_text())
    assert got == golden, (
        "lint output drifted from tests/lint_corpus/golden.json; if the "
        "change is intentional, regenerate it (see tests/lint_corpus/README.md)"
    )


def test_bad_corpus_covers_every_rule_family():
    golden = json.loads((REPO_ROOT / CORPUS / "golden.json").read_text())
    fired = {f["rule"] for f in golden["findings"]}
    for rule_id in (
        "RPL001", "RPL002", "RPL003", "RPL006", "RPL008",
        "RPL101", "RPL102", "RPL103",
    ):
        assert rule_id in fired, f"no bad-corpus fixture triggers {rule_id}"
    # the corpus holds no chains: every whole-program finding over it is
    # a zero-length one (a direct site), as the retired RPL004/005/007 saw
    for finding in golden["findings"]:
        if finding["rule"] in ("RPL101", "RPL102", "RPL103"):
            assert len(finding["extra"]["chain"]) == 1, finding


def test_suppressed_corpus_is_clean():
    proc = run_cli(str(CORPUS / "suppressed"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "found 0 problem(s)" in proc.stdout


def test_baseline_round_trip(tmp_path):
    target = str(CORPUS / "baseline")
    baseline = tmp_path / "baseline.json"

    # Without a baseline the known-debt file fails the lint.
    proc = run_cli(target)
    assert proc.returncode == 1

    proc = run_cli(target, "--write-baseline", str(baseline))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(baseline.read_text())["fingerprints"]

    # With the baseline applied, the same tree is clean...
    proc = run_cli(target, "--baseline", str(baseline))
    assert proc.returncode == 0, proc.stdout + proc.stderr

    # ...but new findings still surface through it.
    proc = run_cli(str(CORPUS / "bad"), "--baseline", str(baseline))
    assert proc.returncode == 1


def test_select_and_ignore_cli():
    proc = run_cli(str(CORPUS / "bad"), "--select", "RPL001", "--format", "json")
    assert proc.returncode == 1
    rules = {f["rule"] for f in json.loads(proc.stdout)["findings"]}
    assert rules == {"RPL001"}

    proc = run_cli(str(CORPUS / "bad"), "--select", "RPL999")
    assert proc.returncode == 2
    assert "RPL999" in proc.stderr


def test_list_rules_and_explain():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    listed = [line.split()[0] for line in proc.stdout.splitlines()]
    assert listed == sorted(listed) and "RPL001" in listed
    assert "RPL101" in listed and "RPL008" in listed
    for retired in ("RPL004", "RPL005", "RPL007"):
        assert retired not in listed
        proc = run_cli("--explain", retired)
        assert proc.returncode == 2, retired

    proc = run_cli("--explain", "RPL101")
    assert proc.returncode == 0
    assert "wall-clock" in proc.stdout.lower()
    assert "RPL004" in proc.stdout  # the rationale names the retired id


@pytest.fixture(scope="module")
def src_cache(tmp_path_factory):
    """A cold `lint src` run and the cache directory it filled."""
    cache = tmp_path_factory.mktemp("reprolint-src")
    proc = run_cli("src", "--cache-dir", str(cache), "--timings")
    return proc, cache


def test_src_tree_is_lint_clean(src_cache):
    """The acceptance gate: the shipped source tree has zero findings."""
    proc, _ = src_cache
    assert proc.returncode == 0, (
        "`python -m repro lint src` must stay clean:\n" + proc.stdout + proc.stderr
    )


# ----------------------------------------------------------------------
# Whole-program chains (RPL101..RPL106)
# ----------------------------------------------------------------------

PROGRAM_CORPUS = CORPUS / "program"


def test_program_corpus_matches_golden():
    proc = run_cli(str(PROGRAM_CORPUS / "bad"), "--format", "json")
    assert proc.returncode == 1, proc.stderr
    got = json.loads(proc.stdout)
    golden = json.loads(
        (REPO_ROOT / PROGRAM_CORPUS / "golden.json").read_text()
    )
    assert got == golden, (
        "program-lint output drifted from tests/lint_corpus/program/"
        "golden.json; if intentional, regenerate it (see README.md)"
    )


def test_program_corpus_covers_every_program_rule():
    golden = json.loads(
        (REPO_ROOT / PROGRAM_CORPUS / "golden.json").read_text()
    )
    fired = {f["rule"] for f in golden["findings"]}
    for rule_id in (
        "RPL101", "RPL102", "RPL103", "RPL104", "RPL105", "RPL106",
    ):
        assert rule_id in fired, f"no program fixture triggers {rule_id}"
    # one report carries the module-local findings of the same run
    assert {"RPL002", "RPL008"} <= fired
    # merged rules: a direct site and a chain in one module are each
    # reported once, and a depth-0 handle field sits next to a nested one
    sites = {
        (f["rule"], f["path"].rsplit("/", 1)[-1], f["line"])
        for f in golden["findings"]
    }
    assert {("RPL102", "store.py", 21), ("RPL102", "store.py", 22)} <= sites
    assert {("RPL103", "payloads.py", 38), ("RPL103", "payloads.py", 39)} <= sites
    assert ("RPL101", "model.py", 12) in sites
    assert len(golden["findings"]) == len(
        {(f["rule"], f["path"], f["line"], f["col"]) for f in golden["findings"]}
    ), "a site was reported twice under one rule"


def test_program_good_twins_stay_clean():
    """Each rule's good twin must not appear in the golden findings."""
    golden = json.loads(
        (REPO_ROOT / PROGRAM_CORPUS / "golden.json").read_text()
    )
    flagged_lines = {
        (f["path"], f["line"]) for f in golden["findings"]
    }
    bad_root = REPO_ROOT / PROGRAM_CORPUS / "bad"
    for twin in (
        "safe_key", "canonical_key", "summarize", "CleanWorkItem",
        "good_commit", "def settle", "def peek", "def careful",
    ):
        hits = [
            (path, i)
            for path in sorted(bad_root.rglob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if twin in line and line.lstrip().startswith(("def ", "class "))
        ]
        assert hits, f"good twin {twin} missing from the corpus"
        for path, line in hits:
            rel = path.relative_to(REPO_ROOT).as_posix()
            assert (rel, line) not in flagged_lines, (
                f"good twin {twin} at {rel}:{line} was flagged"
            )


def test_program_src_tree_is_clean(src_cache):
    """A warm rerun over src stays clean and parses nothing.

    This is what the CI warm-run gate relies on: every facts and
    closure entry the cold run wrote is a hit, so the fixpoint is
    skipped.
    """
    cold, cache = src_cache
    warm = run_cli("src", "--cache-dir", str(cache), "--timings")
    assert warm.returncode == 0, warm.stdout + warm.stderr
    assert warm.stdout == cold.stdout
    stats = dict(
        part.split("=") for part in warm.stderr.split() if "=" in part
    )
    modules = stats["modules"]
    assert stats["parsed"] == "0"
    assert stats["facts_cache"] == stats["program_cache"] == f"{modules}/{modules}"


def test_program_cache_round_trip_and_corruption(tmp_path):
    cache = tmp_path / "cache"
    args = (
        str(PROGRAM_CORPUS / "bad"),
        "--cache-dir", str(cache), "--format", "json",
    )
    cold = run_cli(*args)
    assert cold.returncode == 1, cold.stderr
    warm = run_cli(*args)
    assert warm.returncode == 1
    assert json.loads(warm.stdout) == json.loads(cold.stdout)

    # corrupt every cache entry: the run must rebuild, not crash
    entries = list(cache.iterdir())
    assert entries, "cache directory is empty after a cold run"
    for entry in entries:
        entry.write_text("{ not json !")
    rebuilt = run_cli(*args)
    assert rebuilt.returncode == 1, rebuilt.stderr
    assert json.loads(rebuilt.stdout) == json.loads(cold.stdout)

    # valid JSON of the wrong shape is a miss too: it is rewritten, and
    # the run neither crashes nor reports differently
    for entry in cache.iterdir():
        data = json.loads(entry.read_text())
        data["findings"] = [{"x": 1}]
        entry.write_text(json.dumps(data))
    reshaped = run_cli(*args)
    assert reshaped.returncode == 1, reshaped.stderr
    assert json.loads(reshaped.stdout) == json.loads(cold.stdout)
    for entry in cache.iterdir():
        assert json.loads(entry.read_text())["findings"] != [{"x": 1}], entry


def test_program_syntax_error_module_degrades_gracefully(tmp_path):
    """One unparsable module: RPL000 for it, full analysis of the rest."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "broken.py").write_text("def oops(:\n")
    (pkg / "clock.py").write_text(
        "import time\n\ndef stamp():\n    return time.time()\n"
    )
    (pkg / "hasher.py").write_text(
        "import hashlib\n\nfrom pkg.clock import stamp\n\n\n"
        "def key(text):\n"
        "    return hashlib.sha256(f'{text}{stamp()}'.encode()).hexdigest()\n"
    )
    proc = run_cli(str(tmp_path), "--format", "json", cwd=REPO_ROOT)
    assert proc.returncode == 1, proc.stderr
    rules = {f["rule"] for f in json.loads(proc.stdout)["findings"]}
    assert "RPL000" in rules, "syntax error must surface as RPL000"
    assert "RPL101" in rules, "healthy modules must still be analyzed"


def test_program_jobs_matches_serial():
    serial = run_cli(str(PROGRAM_CORPUS / "bad"), "--format", "json")
    parallel = run_cli(
        str(PROGRAM_CORPUS / "bad"), "--jobs", "2", "--format", "json"
    )
    assert parallel.returncode == serial.returncode == 1
    assert json.loads(parallel.stdout) == json.loads(serial.stdout)


def test_jobs_perfile_matches_serial():
    serial = run_cli(str(CORPUS / "bad"), "--format", "json")
    parallel = run_cli(str(CORPUS / "bad"), "--jobs", "2", "--format", "json")
    assert parallel.returncode == serial.returncode == 1
    assert json.loads(parallel.stdout) == json.loads(serial.stdout)


def test_program_rule_selection_and_explain():
    proc = run_cli(
        str(PROGRAM_CORPUS / "bad"), "--select", "RPL104", "--format", "json"
    )
    assert proc.returncode == 1
    rules = {f["rule"] for f in json.loads(proc.stdout)["findings"]}
    assert rules == {"RPL104"}

    proc = run_cli(
        str(PROGRAM_CORPUS / "bad"), "--ignore", "RPL101,RPL102,RPL104",
        "--format", "json",
    )
    rules = {f["rule"] for f in json.loads(proc.stdout)["findings"]}
    assert rules == {"RPL002", "RPL008", "RPL103", "RPL105", "RPL106"}

    # every run is whole-program: the old opt-in flag is gone
    proc = run_cli(str(PROGRAM_CORPUS / "bad"), "--program")
    assert proc.returncode == 2
    assert "--program" in proc.stderr

    proc = run_cli("--explain", "RPL101")
    assert proc.returncode == 0
    assert "taint" in proc.stdout.lower()


def test_program_string_directive_fixture_still_flagged():
    """Satellite regression: directives inside strings do not suppress."""
    golden = json.loads((REPO_ROOT / CORPUS / "golden.json").read_text())
    flagged = {
        f["path"] for f in golden["findings"] if f["rule"] == "RPL001"
    }
    assert "tests/lint_corpus/bad/string_directive.py" in flagged
