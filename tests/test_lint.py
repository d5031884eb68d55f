"""Unit tests for the repro.lint framework (engine, rules, reporters).

The fixture-corpus integration tests live in tests/test_lint_corpus.py;
these tests exercise the framework mechanics on inline snippets, each
linted through the one driver (:func:`repro.lint.run_lint`) with the
cache off.
"""

import ast
import json
import tempfile
import tokenize
from pathlib import Path

import pytest

import repro.lint.driver as lint_driver
from repro.lint import (
    Finding,
    LintConfig,
    all_rules,
    apply_baseline,
    get_rule,
    load_baseline,
    render_json,
    render_sarif,
    run_lint,
    select_rules,
    write_baseline,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_snippet(source, rule_ids=None, path="pkg/mod.py", config=None):
    """Lint *source* saved as *path* (a relative path under a temp dir)."""
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        rules = select_rules(rule_ids) if rule_ids else None
        findings, _ = run_lint([target], rules, config)
    return findings


# ----------------------------------------------------------------------
# Registry / selection
# ----------------------------------------------------------------------

def test_registry_has_all_rule_families():
    ids = [rule.id for rule in all_rules()]
    assert ids == sorted(ids), "rules must come back ordered by id"
    assert ids == [
        "RPL001", "RPL002", "RPL003", "RPL006", "RPL008",
        "RPL101", "RPL102", "RPL103", "RPL104", "RPL105", "RPL106",
    ]
    # merged into RPL101/RPL102/RPL103; retired ids are never reused
    for retired in ("RPL004", "RPL005", "RPL007"):
        assert get_rule(retired) is None
    for rule in all_rules():
        assert rule.summary and rule.rationale, rule.id
    assert {r.id for r in all_rules() if r.program} == {
        "RPL101", "RPL102", "RPL103", "RPL104", "RPL105", "RPL106",
    }


def test_select_and_ignore():
    assert [r.id for r in select_rules(["RPL001"])] == ["RPL001"]
    remaining = {r.id for r in select_rules(None, ["RPL001", "RPL008"])}
    assert "RPL001" not in remaining and "RPL008" not in remaining
    with pytest.raises(ValueError):
        select_rules(["RPL999"])
    with pytest.raises(ValueError):
        select_rules(None, ["nope"])


def test_get_rule_and_parse_error(tmp_path):
    assert get_rule("RPL001") is not None
    assert get_rule("RPL999") is None
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    findings, _ = run_lint([bad])
    assert [f.rule_id for f in findings] == ["RPL000"]
    assert "does not parse" in findings[0].message


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------

def test_inline_suppression_same_line():
    src = "print('x')  # reprolint: disable=RPL001\n"
    assert lint_snippet(src, ["RPL001"]) == []


def test_suppression_next_line_and_multiple_ids():
    src = (
        "# reprolint: disable-next-line=RPL001, RPL003\n"
        "print('x')\n"
        "print('y')\n"
    )
    findings = lint_snippet(src, ["RPL001"])
    assert [f.line for f in findings] == [3]


def test_file_level_suppression_and_all():
    src = "# reprolint: disable-file=RPL001\nprint('x')\n"
    assert lint_snippet(src, ["RPL001"]) == []
    src_all = "print('x')  # reprolint: disable=all\n"
    assert lint_snippet(src_all, ["RPL001"]) == []


def test_suppression_of_other_rule_does_not_mask():
    src = "print('x')  # reprolint: disable=RPL102\n"
    findings = lint_snippet(src, ["RPL001"])
    assert [f.rule_id for f in findings] == ["RPL001"]


# ----------------------------------------------------------------------
# Individual rules: negatives that must NOT fire
# ----------------------------------------------------------------------

def test_rpl001_allows_sanctioned_sinks():
    src = "print('cli output')\n"
    assert lint_snippet(src, ["RPL001"], path="src/repro/cli.py") == []
    assert lint_snippet(src, ["RPL001"], path="x/mod.py")


def test_rpl002_registered_and_dynamic_names_pass():
    src = (
        "from repro import obs\n"
        "def f(name):\n"
        "    obs.metrics().inc('camodel.sim.solves')\n"
        "    obs.events().warning('cache.unreadable', path='p')\n"
        "    obs.metrics().inc(name)  # dynamic: out of scope\n"
    )
    assert lint_snippet(src, ["RPL002"]) == []


def test_rpl002_resolves_module_constants():
    src = (
        "from repro import obs\n"
        "M_TYPO = 'camodel.sim.sovles'\n"
        "def f():\n"
        "    obs.metrics().inc(M_TYPO)\n"
    )
    findings = lint_snippet(src, ["RPL002"])
    assert len(findings) == 1 and "did you mean" in findings[0].message


def test_rpl002_extra_names_config():
    src = "from repro import obs\nobs.events().info('cache.custom')\n"
    assert lint_snippet(src, ["RPL002"])
    cfg = LintConfig().with_extra_names("cache.custom")
    assert lint_snippet(src, ["RPL002"], config=cfg) == []


def test_rpl002_ignores_unrelated_methods():
    # .info()/.error() on arbitrary objects is not an obs emission
    src = "def f(logger):\n    logger.info('not.a.registered.name')\n"
    assert lint_snippet(src, ["RPL002"]) == []


def test_rpl003_seeded_generators_pass():
    src = (
        "import random\n"
        "import numpy as np\n"
        "def f(seed):\n"
        "    a = random.Random(seed).random()\n"
        "    b = np.random.default_rng(seed).random()\n"
        "    c = np.random.default_rng(seed=seed)\n"
        "    return a, b, c\n"
    )
    assert lint_snippet(src, ["RPL003"]) == []


def test_rpl003_explicit_none_seed_still_flagged():
    src = "import numpy as np\nrng = np.random.default_rng(None)\n"
    assert lint_snippet(src, ["RPL003"])


def test_rpl004_only_in_scoped_paths():
    """Retired RPL004's direct wall-clock reads are RPL101 findings now."""
    src = "import time\ndef f():\n    return time.time()\n"
    assert lint_snippet(src, ["RPL101"], path="x/utils.py") == []
    (finding,) = lint_snippet(src, ["RPL101"], path="x/camodel/io.py")
    assert (finding.line, finding.col) == (3, 12)
    assert "wall-clock read time.time()" in finding.message


def test_rpl004_from_import_datetime():
    src = (
        "from datetime import datetime\n"
        "def f():\n    return datetime.now()\n"
    )
    assert lint_snippet(src, ["RPL101"], path="x/camodel/io.py")


def test_rpl101_direct_read_and_sink_each_reported_once():
    # a read in a scoped module that also reaches a hash: one finding at
    # the read (zero-length chain), one at the sink (the flow)
    src = (
        "import hashlib\nimport time\n"
        "def key(text):\n"
        "    stamp = time.time()\n"
        "    return hashlib.sha256(f'{text}{stamp}'.encode()).hexdigest()\n"
    )
    findings = lint_snippet(src, ["RPL101"], path="x/camodel/io.py")
    assert [(f.line, f.col) for f in findings] == [(4, 13), (5, 12)]


def test_rpl005_reads_and_fdopen_pass():
    src = (
        "import os, json\n"
        "def read(path):\n"
        "    with open(path) as handle:\n"
        "        return json.load(handle)\n"
        "def via_fd(fd, payload):\n"
        "    with os.fdopen(fd, 'w') as handle:\n"
        "        json.dump(payload, handle)\n"
    )
    assert lint_snippet(src, ["RPL102"], path="x/resilience/mod.py") == []


def test_rpl005_allowlisted_writer_qualname():
    """The sanctioned writer needs no allowlist: it is outside the scope.

    Retired RPL005 exempted ``repro/atomic.py::write_text_atomic`` by a
    site allowlist; RPL102 scopes modules (atomic_paths) and the
    writer's module is not one of them.
    """
    src = (
        "def _write_json_atomic(path, payload):\n"
        "    with open(path, 'w') as handle:\n"
        "        handle.write(payload)\n"
    )
    assert lint_snippet(src, ["RPL102"], path="src/repro/atomic.py") == []
    assert lint_snippet(src, ["RPL102"], path="src/repro/resilience/mod.py")


def test_rpl102_direct_writes_found_in_every_scope_position():
    # lambda bodies, class bodies and default arguments run in their
    # enclosing scope; the direct sites there are reported like any other
    src = (
        "import json\n"
        "save = lambda p, d: p.write_text(d)\n"
        "class Checkpoint:\n"
        "    handle = open('ckpt.json', 'a')\n"
        "    def dump(self, path, log=open('log.txt', 'w')):\n"
        "        json.dump({}, log)\n"
    )
    findings = lint_snippet(src, ["RPL102"], path="x/resilience/mod.py")
    assert [(f.line, f.col) for f in findings] == [(2, 21), (4, 14), (5, 30)]


def test_rpl006_module_level_functions_pass():
    src = (
        "import multiprocessing\n"
        "import helpers\n"
        "def worker(x):\n    return x\n"
        "def run(items):\n"
        "    with multiprocessing.Pool() as pool:\n"
        "        a = pool.map(worker, items)\n"
        "        b = pool.imap_unordered(helpers.work, items)\n"
        "    return a, b\n"
    )
    assert lint_snippet(src, ["RPL006"]) == []


def test_rpl007_plain_payloads_pass():
    src = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class CellWorkPayload:\n"
        "    name: str\n"
        "    options: dict\n"
    )
    assert lint_snippet(src, ["RPL103"]) == []


def test_rpl103_one_finding_per_field():
    # a field holding a handle directly *and* through a nested type is
    # reported once, as the zero-length chain
    src = (
        "from dataclasses import dataclass\n"
        "from typing import Optional, TextIO\n"
        "@dataclass\n"
        "class Sink:\n"
        "    out: TextIO\n"
        "@dataclass\n"
        "class CellWorkItem:\n"
        "    log: TextIO\n"
        "    both: 'Optional[TextIO] | Sink'\n"
        "    nested: Sink\n"
    )
    findings = lint_snippet(src, ["RPL103"])
    assert [f.line for f in findings] == [8, 9, 10]
    assert "is annotated" in findings[1].message
    assert "nested types" in findings[2].message


def test_rpl008_specific_exceptions_out_of_scope():
    src = (
        "def f(path):\n"
        "    try:\n        path.unlink()\n"
        "    except OSError:\n        pass\n"
    )
    assert lint_snippet(src, ["RPL008"]) == []


def test_rpl008_classifying_handlers_pass():
    reraise = (
        "def f():\n    try:\n        g()\n"
        "    except Exception:\n        raise RuntimeError('ctx')\n"
    )
    classify = (
        "def f():\n    try:\n        g()\n"
        "    except Exception as exc:\n"
        "        return {'kind': 'exception', 'error': str(exc)}\n"
    )
    emit = (
        "from repro import obs\n"
        "def f():\n    try:\n        g()\n"
        "    except Exception:\n"
        "        obs.events().warning('cache.unreadable')\n"
        "        return False\n"
    )
    for src in (reraise, classify, emit):
        assert lint_snippet(src, ["RPL008"]) == [], src


# ----------------------------------------------------------------------
# Reporters / baseline
# ----------------------------------------------------------------------

def _sample_findings():
    return [
        Finding(
            rule_id="RPL001",
            rule_name="no-print",
            path="pkg/mod.py",
            line=3,
            col=5,
            message="bare print()",
            line_text="print('x')",
        )
    ]


def test_json_reporter_contract():
    data = json.loads(render_json(_sample_findings()))
    assert data["format"] == 1
    (finding,) = data["findings"]
    assert finding["rule"] == "RPL001"
    assert finding["path"] == "pkg/mod.py"
    assert finding["line"] == 3
    assert finding["fingerprint"]


def test_sarif_reporter_contract():
    sarif = json.loads(render_sarif(_sample_findings(), all_rules()))
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "reprolint"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert "RPL001" in rule_ids
    (result,) = run["results"]
    assert result["ruleId"] == "RPL001"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "pkg/mod.py"
    assert location["region"]["startLine"] == 3


def test_baseline_round_trip(tmp_path):
    findings = _sample_findings()
    path = write_baseline(tmp_path / "baseline.json", findings)
    fingerprints = load_baseline(path)
    fresh, suppressed = apply_baseline(findings, fingerprints)
    assert fresh == [] and suppressed == 1


def test_fingerprint_survives_line_shift(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("print('x')\n")
    (before,), _ = run_lint([mod], select_rules(["RPL001"]))
    mod.write_text("import sys\n\n\nprint('x')\n")
    (after,), _ = run_lint([mod], select_rules(["RPL001"]))
    assert before.line != after.line
    assert before.fingerprint == after.fingerprint


def test_fingerprint_distinguishes_identical_lines(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("print('x')\nprint('x')\n")
    findings, _ = run_lint([mod], select_rules(["RPL001"]))
    assert len(findings) == 2
    assert findings[0].fingerprint != findings[1].fingerprint


def test_fingerprint_survives_file_move(tmp_path):
    """Renaming/relocating a module must not churn the baseline."""
    before_dir = tmp_path / "before"
    before_dir.mkdir()
    (before_dir / "mod.py").write_text("print('x')\nprint('x')\n")
    before, _ = run_lint([before_dir], select_rules(["RPL001"]))

    after_dir = tmp_path / "after" / "deep" / "nested"
    after_dir.mkdir(parents=True)
    (after_dir / "renamed.py").write_text("print('x')\nprint('x')\n")
    after, _ = run_lint([after_dir], select_rules(["RPL001"]))

    assert {f.fingerprint for f in before} == {f.fingerprint for f in after}


def test_suppression_directive_inside_string_does_not_suppress(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        'print("use \'# reprolint: disable=RPL001\' to silence")\n'
        "print('y')  # reprolint: disable=RPL001\n"
    )
    findings, _ = run_lint([mod], select_rules(["RPL001"]))
    # line 1's directive lives inside a string literal: still flagged;
    # line 2's is a real comment: suppressed
    assert [f.line for f in findings] == [1]


# ----------------------------------------------------------------------
# Catalog rot guards
# ----------------------------------------------------------------------

def test_catalog_matches_defining_modules():
    import repro.camodel.stats as stats
    import repro.camodel.throughput as throughput
    import repro.learning.engine as learning_engine
    import repro.obs.inspect as obs_inspect
    import repro.obs.store as obs_store
    import repro.obs.trace as obs_trace
    import repro.resilience.runner as runner
    import repro.service.api as service_api
    import repro.service.coordinator as service_coordinator
    import repro.service.lease as service_lease
    import repro.service.worker as service_worker
    import repro.simulation.engine as engine
    import repro.simulation.packed as packed
    from repro.lint.catalog import EVENT_NAMES, METRIC_NAMES

    modules = (
        stats, runner, engine, throughput,
        packed, obs_store, obs_inspect, obs_trace, learning_engine,
        service_api, service_coordinator, service_lease, service_worker,
        lint_driver,
    )
    for module in modules:
        for attr in dir(module):
            if attr.startswith("M_"):
                value = getattr(module, attr)
                assert value in METRIC_NAMES, (
                    f"{module.__name__}.{attr} = {value!r} missing from "
                    "repro.lint.catalog.METRIC_NAMES"
                )
            elif attr.startswith("E_"):
                value = getattr(module, attr)
                assert value in EVENT_NAMES, (
                    f"{module.__name__}.{attr} = {value!r} missing from "
                    "repro.lint.catalog.EVENT_NAMES"
                )


def test_catalog_names_live_in_registered_namespaces():
    from repro.lint.catalog import NAMESPACES, REGISTERED_NAMES

    for name in REGISTERED_NAMES:
        assert "." in name, name
        assert name.split(".", 1)[0] in NAMESPACES, name


def test_allowed_sinks_exist():
    # guard against the print allowlist silently rotting after a refactor
    for pattern in LintConfig().print_allowed:
        relative = pattern.lstrip("*/")
        assert (REPO_ROOT / "src" / relative).exists(), pattern


# ----------------------------------------------------------------------
# One engine: one parse, one tokenizer pass, fixpoint only when needed
# ----------------------------------------------------------------------

def _small_package(root):
    pkg = root / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text("import time\n\ndef now():\n    return time.time()\n")
    (pkg / "b.py").write_text("from pkg.a import now\n\nprint(now())\n")
    return pkg


def test_each_module_parsed_and_tokenized_once(tmp_path, monkeypatch):
    pkg = _small_package(tmp_path)
    counts = {"parse": 0, "tokenize": 0}
    real_parse, real_tokens = ast.parse, tokenize.generate_tokens

    def counting_parse(*args, **kwargs):
        counts["parse"] += 1
        return real_parse(*args, **kwargs)

    def counting_tokens(*args, **kwargs):
        counts["tokenize"] += 1
        return real_tokens(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(tokenize, "generate_tokens", counting_tokens)
    findings, stats = run_lint([pkg])
    assert stats.parsed == 3
    assert counts == {"parse": 3, "tokenize": 3}
    assert {f.rule_id for f in findings} == {"RPL001"}


def test_fixpoint_runs_only_for_program_rules(tmp_path, monkeypatch):
    pkg = _small_package(tmp_path)

    def no_fixpoint(*args, **kwargs):
        raise AssertionError("module-local selection ran the fixpoint")

    monkeypatch.setattr(lint_driver, "analyze_project", no_fixpoint)
    findings, _ = run_lint([pkg], select_rules(["RPL001", "RPL003"]))
    assert [f.rule_id for f in findings] == ["RPL001"]
    with pytest.raises(AssertionError, match="ran the fixpoint"):
        run_lint([pkg], select_rules(["RPL101"]))
