"""Lint configuration: path scopes and allowlists for the rule pack.

The defaults encode *this repository's* invariants — which modules
construct canonical artifacts, which console sinks may print, which
function is the one sanctioned atomic writer.  Patterns are matched
with :func:`fnmatch.fnmatch` against the posix form of each file's
path, so ``*/resilience/*`` scopes both ``src/repro/resilience/...``
in a real run and ``tests/lint_corpus/resilience/...`` in the fixture
corpus (the corpus mirrors the scoped directory names on purpose).

Site allowlists use ``<path-pattern>::<qualname>`` — e.g.
``*/repro/atomic.py::write_text_atomic`` sanctions the raw write inside
the one blessed atomic-writer implementation.  The whole-program pack
(``repro.lint.program``) deliberately has *no* site allowlists: its
fields below declare semantic roles (sinks, sanitizers, protocol
parties) and the dataflow engine proves what reaches them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fnmatch import fnmatch
from typing import Tuple


def match_path(path: str, pattern: str) -> bool:
    """fnmatch on posix paths, also accepting bare-suffix patterns."""
    return fnmatch(path, pattern) or fnmatch(path, "*/" + pattern)


def site_allowed(
    path: str, qualname: str, allowlist: Tuple[str, ...]
) -> bool:
    """True when ``path::qualname`` matches a sanctioned-site entry.

    Used for *implementation* roles (the atomic writer helpers are the
    one place allowed to write non-atomically).  The qualname side
    matches exactly, or as a prefix so nested helpers are covered.
    """
    for entry in allowlist:
        pattern, _, allowed_qual = entry.partition("::")
        if not match_path(path, pattern):
            continue
        if not allowed_qual or qualname == allowed_qual:
            return True
        if qualname.startswith(allowed_qual + "."):
            return True
    return False


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

    # -- RPL004 wall-clock -----------------------------------------------
    #: modules reachable from canonical-artifact construction.  The
    #: ledger is deliberately *not* listed: the whole-program pack's
    #: RPL101 tracks its wall-clock reads by dataflow instead, and has
    #: proven that ``RunLedger.open``'s ``created`` stamp only ever
    #: reaches ``ledger.json`` (not canonical) — the old
    #: ``RunLedger.open`` site allowlist is retired.
    wallclock_paths: Tuple[str, ...] = (
        "*/camodel/io.py",
        "*/camodel/merge.py",
        "*/camodel/model.py",
        "*/experiments/cache.py",
    )

    # -- RPL005 atomic-write ---------------------------------------------
    #: run-dir / artifact code paths where every write must be atomic
    atomic_paths: Tuple[str, ...] = (
        "*/resilience/*",
        "*/camodel/io.py",
        "*/experiments/cache.py",
        "*/obs/store.py",
        "*/service/*",
    )
    #: the sanctioned atomic writer implementations
    atomic_writers: Tuple[str, ...] = ("*/repro/atomic.py::write_text_atomic",)

    # -- RPL007 payload-open-handles -------------------------------------
    #: dataclasses treated as cross-process worker payloads
    payload_suffixes: Tuple[str, ...] = ("Payload", "WorkItem")

    # ---------------------------------------------------------------
    # Whole-program pack (RPL101..RPL106).  These are *semantic role
    # declarations* — which callables hash content, sanitize taint, or
    # commit artifacts — not violation allowlists; the dataflow engine
    # decides what actually reaches them.  Patterns are fnmatch globs
    # over dotted callable names as resolved by the project graph
    # (``repro.service.worker.commit_artifact``), so corpus fixtures
    # match via the ``*.`` prefix.
    # ---------------------------------------------------------------

    # -- RPL101 taint-into-artifacts --------------------------------------
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
