"""Lint configuration: path scopes and allowlists for the rule pack.

The defaults encode *this repository's* invariants — which modules
construct canonical artifacts, which modules write run directories,
which console sinks may print.  Patterns are matched with
:func:`fnmatch.fnmatch` against the posix form of each file's path, so
``*/resilience/*`` scopes both ``src/repro/resilience/...`` in a real
run and ``tests/lint_corpus/resilience/...`` in the fixture corpus (the
corpus mirrors the scoped directory names on purpose).

There are deliberately *no* site allowlists: the fields below scope
modules or declare semantic roles (sinks, sanitizers, protocol
parties), and the dataflow engine proves what reaches them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fnmatch import fnmatch
from typing import Tuple


def match_path(path: str, pattern: str) -> bool:
    """fnmatch on posix paths, also accepting bare-suffix patterns."""
    return fnmatch(path, pattern) or fnmatch(path, "*/" + pattern)


@dataclass(frozen=True)
class LintConfig:
    """Path scopes and allowlists consumed by the rule pack."""

    #: paths never linted (match against the full posix path)
    exclude: Tuple[str, ...] = ("*/__pycache__/*",)

    # -- RPL001 no-print -------------------------------------------------
    #: the sanctioned console sinks (mirrors ruff T201 per-file-ignores)
    print_allowed: Tuple[str, ...] = (
        "*/repro/cli.py",
        "*/repro/experiments/runner.py",
    )

    # -- RPL002 obs-name-catalog ----------------------------------------
    #: extra registered names (tests / corpus add theirs here)
    extra_names: Tuple[str, ...] = ()

    # -- RPL003 unseeded-random ------------------------------------------
    #: nothing to configure: seeded generator objects are always the fix

    # -- RPL101 taint-into-artifacts (direct sites) -----------------------
    #: modules that build canonical artifacts: every wall-clock read in
    #: them is flagged.  The ledger is deliberately *not* listed: its
    #: wall-clock reads are tracked by dataflow instead, which proves
    #: that ``RunLedger.open``'s ``created`` stamp only ever reaches
    #: ``ledger.json`` (not canonical).
    wallclock_paths: Tuple[str, ...] = (
        "*/camodel/io.py",
        "*/camodel/merge.py",
        "*/camodel/model.py",
        "*/experiments/cache.py",
    )

    # -- RPL102 reachable-raw-write ---------------------------------------
    #: run-dir / artifact code paths where every write must be atomic,
    #: in the module itself and in any helper it calls
    atomic_paths: Tuple[str, ...] = (
        "*/resilience/*",
        "*/camodel/io.py",
        "*/experiments/cache.py",
        "*/obs/store.py",
        "*/service/*",
    )

    # -- RPL103 transitive-picklability ----------------------------------
    #: dataclasses treated as cross-process worker payloads
    payload_suffixes: Tuple[str, ...] = ("Payload", "WorkItem")

    # ---------------------------------------------------------------
    # Semantic role declarations — which callables hash content,
    # sanitize taint, or commit artifacts — not violation allowlists;
    # the dataflow engine decides what actually reaches them.  Patterns
    # are fnmatch globs over dotted callable names as resolved by the
    # project graph (``repro.service.worker.commit_artifact``), so
    # corpus fixtures match via the ``*.`` prefix.
    # ---------------------------------------------------------------

    # -- RPL101 taint-into-artifacts (flows) ------------------------------
    #: content-hash sinks: tainted bytes here poison content keys
    taint_hash_sinks: Tuple[str, ...] = (
        "hashlib.sha256",
        "hashlib.sha1",
        "hashlib.sha512",
        "hashlib.md5",
        "hashlib.blake2b",
        "hashlib.new",
    )
    #: canonical-artifact commit sinks: tainted values here end up in
    #: content-addressed artifacts that must be byte-identical on rerun
    canonical_commit_sinks: Tuple[str, ...] = ("*.commit_artifact",)
    #: callables whose return value is clean regardless of inputs
    #: (they zero every nondeterministic field)
    taint_sanitizers: Tuple[str, ...] = ("*.canonical_model_dict",)

    # -- RPL104 lease/commit discipline -----------------------------------
    #: service-layer modules where the protocol rules apply
    service_paths: Tuple[str, ...] = ("*/service/*",)
    #: class names treated as the run ledger
    ledger_types: Tuple[str, ...] = ("RunLedger",)
    #: RunLedger methods that mutate ledger state
    ledger_mutators: Tuple[str, ...] = (
        "open",
        "save",
        "mark_running",
        "mark_done",
        "record_failure",
        "mark_quarantined",
        "recover",
        "requeue_quarantined",
        "write_failure_report",
    )
    #: the only modules allowed to mutate the ledger (the coordinator
    #: side of the protocol; workers read with ``RunLedger.load`` only)
    ledger_writer_paths: Tuple[str, ...] = (
        "*/resilience/*",
        "*/service/coordinator.py",
        "*/service/api.py",
    )

    # -- RPL105 swallowed telemetry ---------------------------------------
    #: callables that persist telemetry shards; a broad handler that can
    #: silently swallow a failure on a path reaching one of these drops
    #: observability data on the floor
    telemetry_writer_sinks: Tuple[str, ...] = (
        "*.write_attempt_shard",
        "*.write_worker_shard",
        "*.write_session",
    )

    def with_extra_names(self, *names: str) -> "LintConfig":
        """Copy of this config with *names* added to the RPL002 catalog."""
        return replace(self, extra_names=self.extra_names + tuple(names))
