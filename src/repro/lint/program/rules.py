"""The whole-program rule pack: RPL101..RPL106.

Each rule consumes the :class:`~repro.lint.program.dataflow.Analysis`
fixpoint rather than ASTs, so every finding comes with a witness — the
call chain the engine followed — embedded in the message and the
``extra`` payload.  A direct site is the zero-length chain: RPL101,
RPL102 and RPL103 report it at the site itself, so each invariant has
one rule whether the violation is local or several calls away.  The
rules prove or refute the actual flow, so they need no site allowlists
(suppression comments remain available for the rare deliberate
violation, e.g. fault injectors).
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.config import match_path
from repro.lint.engine import Rule, register
from repro.lint.findings import Finding
from repro.lint.program.dataflow import WALLCLOCK_SOURCES, Analysis
from repro.lint.program.graph import Project

_KIND_LABELS = {
    "wallclock": "wall-clock",
    "rng": "RNG",
    "iterorder": "iteration-order",
}

#: distinctive ledger-mutator names safe for the receiver-name heuristic
#: (generic names like ``open``/``save`` require a resolved RunLedger type)
_DISTINCTIVE_MUTATORS = frozenset(
    {
        "mark_running",
        "mark_done",
        "record_failure",
        "recover",
        "requeue_quarantined",
        "write_failure_report",
    }
)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")

#: annotation substrings that mean "an open handle rode the payload"
_HANDLE_MARKERS = (
    "TextIO",
    "BinaryIO",
    "IO[",
    "RawIOBase",
    "BufferedReader",
    "BufferedWriter",
    "FileIO",
    "socket",
    "Connection",
)


def _chain_text(chain: Tuple[str, ...]) -> str:
    return " -> ".join(chain)


def _finding(
    rule: Rule,
    project: Project,
    display: str,
    line: int,
    col: int,
    message: str,
    extra: Optional[Dict[str, object]] = None,
) -> Finding:
    return rule.finding_at(
        display, line, col, message, project.line_text(display, line), extra
    )


@register
class TaintIntoArtifactsRule(Rule):
    """RPL101: nondeterminism must never reach artifact content."""

    id = "RPL101"
    name = "taint-into-artifacts"
    program = True
    summary = (
        "wall-clock read in an artifact module, or nondeterminism "
        "reaching a content hash or canonical commit"
    )
    rationale = (
        "Canonical artifacts (CA model JSON, experiment cache entries, "
        "content-addressed commits) are compared, resumed and "
        "deduplicated byte-for-byte: a killed-and-resumed run must "
        "assemble a library byte-identical to an uninterrupted one, and "
        "content keys must be pure functions of cell text and options.  "
        "The zero-length chain: every wall-clock read (time.time(), "
        "perf_counter(), datetime.now(), ...) inside a module that "
        "builds canonical artifacts (config: wallclock_paths) is flagged "
        "at the read; there is no site allowlist.  Longer chains: the "
        "taint engine follows wall-clock, module-global-RNG and "
        "set-iteration-order values through assignments, containers and "
        "any number of calls, and reports the flows that arrive at a "
        "content-hash call (config: taint_hash_sinks) or a canonical "
        "commit (config: canonical_commit_sinks).  Sanitizers such as "
        "canonical_model_dict (config: taint_sanitizers), which zero "
        "every nondeterministic field, clear the taint.  That is how "
        "reviewed timing sites stay legal without an allowlist: "
        "RunLedger.open's `created` stamp lives outside wallclock_paths "
        "and reaches ledger.json only, never a hash or commit.  "
        "Replaces the retired RPL004."
    )

    def check_program(self, analysis: Analysis) -> Iterator[Finding]:
        project = analysis.project
        for display, qual, fn in project.iter_functions():
            if not any(
                match_path(display, pat)
                for pat in analysis.config.wallclock_paths
            ):
                continue
            res_map = analysis.resolutions[(display, qual)]
            for call in fn["calls"]:
                res = res_map.get(call["index"])
                if (
                    res is None
                    or res.kind != "external"
                    or res.name not in WALLCLOCK_SOURCES
                ):
                    continue
                yield _finding(
                    self,
                    project,
                    display,
                    call["line"],
                    call["col"] + 1,
                    f"wall-clock read {res.name}() in a canonical-artifact "
                    "module; keep real timings in the ledger/obs layer "
                    "and zero them in artifact bytes",
                    extra={
                        "kind": "wallclock",
                        "chain": [f"{display}:{call['line']} {qual}"],
                    },
                )
        for (display, qual), summ in sorted(analysis.summaries.items()):
            for kind, label, line, col, chain in sorted(summ.sink_hits):
                if kind not in _KIND_LABELS:
                    continue
                what, _, sink = label.partition(":")
                if what not in ("hash", "commit"):
                    continue
                sink_desc = (
                    f"content hash {sink}()"
                    if what == "hash"
                    else f"canonical artifact commit {sink}()"
                )
                yield _finding(
                    self,
                    project,
                    display,
                    line,
                    col,
                    f"{_KIND_LABELS[kind]}-tainted value flows into "
                    f"{sink_desc}; canonicalize (zero the field) before "
                    f"hashing/committing [flow: {_chain_text(chain)}]",
                    extra={"kind": kind, "sink": sink, "chain": list(chain)},
                )


@register
class ReachableRawWriteRule(Rule):
    """RPL102: atomic-write discipline, at the write and through helpers."""

    id = "RPL102"
    name = "reachable-raw-write"
    program = True
    summary = "non-atomic file write in, or reachable from, a run-dir/artifact module"
    rationale = (
        "Crash recovery (RunLedger.recover, cache reload) trusts that "
        "any file present on disk is complete: every state transition "
        "and artifact write must go through the temp-file + os.replace "
        "helper (repro.atomic.write_text_atomic) so a SIGKILL at any "
        "instant leaves either the previous or the next consistent "
        "state, never a torn file.  The zero-length chain: "
        "open(path, 'w'/'a'/'x'/'+') and Path.write_text/write_bytes "
        "inside a run-dir module (config: atomic_paths) are flagged at "
        "the write.  Longer chains: a helper one import away tears "
        "files on kill just the same, so the rule follows the call "
        "graph from every function in a scoped module and flags, at the "
        "call, each call whose callee (transitively) performs a "
        "non-atomic write in an unscoped module.  A write inside a "
        "scoped module is reported once, at the write, never again at "
        "its callers.  The atomic helper itself writes through "
        "os.fdopen on a temp descriptor, which is not a raw write.  "
        "Replaces the retired RPL005."
    )

    def check_program(self, analysis: Analysis) -> Iterator[Finding]:
        config = analysis.config
        project = analysis.project

        def scoped(display: str) -> bool:
            return any(
                match_path(display, pat) for pat in config.atomic_paths
            )

        seen: Set[Tuple[str, int, str]] = set()
        for display, qual, fn in project.iter_functions():
            if not scoped(display):
                continue
            for line, col, desc in fn.get("raw_writes", ()):
                site = f"{display}:{line} {desc}"
                yield _finding(
                    self,
                    project,
                    display,
                    line,
                    col + 1,
                    f"non-atomic {desc} in a run-dir module; write through "
                    "repro.atomic.write_text_atomic (temp file + os.replace)",
                    extra={"site": site, "chain": [site]},
                )
            res_map = analysis.resolutions[(display, qual)]
            for call in fn.get("calls", ()):
                res = res_map.get(call["index"])
                if res is None or res.kind != "project" or res.ref is None:
                    continue
                if scoped(res.ref.module):
                    continue
                callee_sum = analysis.summaries.get(res.ref.key)
                if callee_sum is None:
                    continue
                for site, chain in sorted(callee_sum.raw_reach.items()):
                    site_display = site.split(":", 1)[0]
                    if scoped(site_display):
                        continue
                    key = (display, call["line"], site)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield _finding(
                        self,
                        project,
                        display,
                        call["line"],
                        call["col"] + 1,
                        f"call into {res.name}() reaches a non-atomic "
                        f"write at {site} from a run-dir code path; "
                        "route it through an atomic writer "
                        f"[path: {_chain_text(chain)}]",
                        extra={"site": site, "chain": list(chain)},
                    )


@register
class TransitivePicklabilityRule(Rule):
    """RPL103: payloads must be picklable all the way down."""

    id = "RPL103"
    name = "transitive-picklability"
    program = True
    summary = "worker payload field holds an open handle, directly or through nested types"
    rationale = (
        "Worker payloads (dataclasses named *Payload / *WorkItem, "
        "config: payload_suffixes) are pickled into the child process.  "
        "An open file / socket / pipe field appears to work under fork "
        "but references the wrong (or a closed) descriptor in the "
        "child.  The zero-length chain is a field whose own annotation "
        "holds a handle type (TextIO, sockets, connections).  Longer "
        "chains resolve the field's annotated type to its project class "
        "and walk the nested field annotations: a payload holding a "
        "Config holding a TextIO crosses the process boundary just as "
        "unpicklably.  Each field is reported once, at the field.  Ship "
        "paths and plain data; reopen inside the worker.  Replaces the "
        "retired RPL007."
    )

    def check_program(self, analysis: Analysis) -> Iterator[Finding]:
        config = analysis.config
        project = analysis.project
        for display, facts in sorted(project.by_path.items()):
            for cls_name, info in sorted(facts["classes"].items()):
                if not info["is_dataclass"]:
                    continue
                if not any(
                    cls_name.endswith(s) for s in config.payload_suffixes
                ):
                    continue
                for fname, finfo in sorted(info["fields"].items()):
                    ann = finfo["ann"]
                    if any(m in ann for m in _HANDLE_MARKERS):
                        chain = [f"{cls_name}.{fname}: {ann}"]
                        message = f"is annotated {ann!r}"
                    else:
                        nested = self._handle_chain(
                            project, display, ann, set(), 0
                        )
                        if nested is None:
                            continue
                        chain = nested
                        message = (
                            "reaches an open handle through nested types "
                            f"[{' -> '.join(chain)}]"
                        )
                    yield _finding(
                        self,
                        project,
                        display,
                        finfo["line"],
                        finfo["col"] + 1,
                        f"payload field {cls_name}.{fname} {message}; "
                        "handles cannot cross the process boundary — ship "
                        "a path and reopen in the worker",
                        extra={"chain": chain},
                    )

    def _handle_chain(
        self,
        project: Project,
        display: str,
        annotation: str,
        visited: Set[Tuple[str, str]],
        depth: int,
    ) -> Optional[List[str]]:
        if depth >= 4:
            return None
        for token in _IDENT.findall(annotation):
            cls = project.resolve_class(display, token)
            if cls is None or cls in visited:
                continue
            visited.add(cls)
            info = project.by_path[cls[0]]["classes"].get(cls[1])
            if info is None:
                continue
            for fname, finfo in sorted(info["fields"].items()):
                frame = f"{cls[1]}.{fname}: {finfo['ann']}"
                if any(m in finfo["ann"] for m in _HANDLE_MARKERS):
                    return [frame]
                sub = self._handle_chain(
                    project, cls[0], finfo["ann"], visited, depth + 1
                )
                if sub is not None:
                    return [frame] + sub
        return None


@register
class LeaseCommitDisciplineRule(Rule):
    """RPL104: the service's exactly-once protocol, checked."""

    id = "RPL104"
    name = "lease-commit-discipline"
    program = True
    summary = "service code mutates the ledger or writes artifacts outside the protocol"
    rationale = (
        "The characterization service's exactly-once guarantee rests on "
        "three rules: only the coordinator side mutates the run ledger "
        "(config: ledger_writer_paths; workers read with RunLedger.load "
        "only), every artifact byte lands via commit_artifact's "
        "hardlink-into-CAS rendezvous (config: canonical_commit_sinks), "
        "and commits happen only while a lease claim is held.  This "
        "rule checks all three over the call graph: ledger-mutator "
        "calls (config: ledger_mutators on config: ledger_types) "
        "resolved outside the writer modules, artifact_path-derived "
        "values flowing into any writer other than commit_artifact "
        "inside service modules (config: service_paths), and "
        "commit_artifact calls in functions with no lease in scope "
        "(no lease/claim parameter and no claim()/acquire() call — a "
        "function-level approximation of claim dominance)."
    )

    def check_program(self, analysis: Analysis) -> Iterator[Finding]:
        config = analysis.config
        project = analysis.project
        ledger_types = set(config.ledger_types)
        mutators = set(config.ledger_mutators)
        dotted_mutators = tuple(
            f"{cls}.{m}" for cls in ledger_types for m in mutators
        )
        for (display, qual), res_map in sorted(analysis.resolutions.items()):
            fn = project.by_path[display]["functions"].get(qual)
            if fn is None:
                continue
            in_service = any(
                match_path(display, pat) for pat in config.service_paths
            )
            may_write_ledger = any(
                match_path(display, pat)
                for pat in config.ledger_writer_paths
            )
            is_commit_impl = any(
                qual.rsplit(".", 1)[-1] == pat.rsplit(".", 1)[-1]
                for pat in config.canonical_commit_sinks
            )
            var_types = analysis.var_types.get((display, qual), {})
            for call in fn.get("calls", ()):
                res = res_map.get(call["index"])
                if res is None:
                    continue
                if not may_write_ledger:
                    mutated = self._ledger_mutation(
                        call, res, var_types, ledger_types, mutators,
                        dotted_mutators,
                    )
                    if mutated:
                        yield _finding(
                            self,
                            project,
                            display,
                            call["line"],
                            call["col"] + 1,
                            f"ledger mutation {mutated}() outside the "
                            "coordinator (config: ledger_writer_paths); "
                            "workers must treat the ledger as read-only "
                            "and report through the coordinator",
                        )
                if in_service and not is_commit_impl:
                    if analysis.roles.commit_sink(res.name or "") and not (
                        self._claim_evidence(fn)
                    ):
                        yield _finding(
                            self,
                            project,
                            display,
                            call["line"],
                            call["col"] + 1,
                            "commit_artifact() called with no lease claim "
                            "in scope (no lease/claim parameter, no "
                            "claim()/acquire() call); commits are only "
                            "exactly-once while the cell's lease is held",
                        )
            if in_service and not is_commit_impl:
                summ = analysis.summaries.get((display, qual))
                if summ is None:
                    continue
                for kind, label, line, col, chain in sorted(summ.sink_hits):
                    if kind != "artifactpath" or not label.startswith(
                        "write:"
                    ):
                        continue
                    yield _finding(
                        self,
                        project,
                        display,
                        line,
                        col,
                        f"artifact path written via {label.split(':', 1)[1]}() "
                        "instead of commit_artifact(); direct writes "
                        "break the exactly-once CAS rendezvous "
                        f"[flow: {_chain_text(chain)}]",
                        extra={"chain": list(chain)},
                    )

    @staticmethod
    def _ledger_mutation(
        call: Dict[str, Any],
        res: Any,
        var_types: Dict[str, Tuple[str, str]],
        ledger_types: Set[str],
        mutators: Set[str],
        dotted_mutators: Tuple[str, ...],
    ) -> Optional[str]:
        attr = call["callee"].get("attr") or ""
        if res.kind == "project" and res.ref is not None:
            qual = res.ref.qual
            if "." in qual:
                cls, _, meth = qual.rpartition(".")
                if cls.rsplit(".", 1)[-1] in ledger_types and meth in mutators:
                    return meth
            return None
        name = res.name or ""
        if any(name.endswith("." + dm) or name == dm for dm in dotted_mutators):
            return name.rsplit(".", 1)[-1]
        if attr in mutators:
            recv = call["callee"].get("recv_name")
            recv_type = var_types.get(recv) if recv else None
            if recv_type is not None and recv_type[1] in ledger_types:
                return attr
            if (
                attr in _DISTINCTIVE_MUTATORS
                and recv
                and (recv == "ledger" or recv.endswith("_ledger"))
            ):
                return attr
        return None

    @staticmethod
    def _claim_evidence(fn: Dict[str, Any]) -> bool:
        for param in fn.get("params", ()):
            if "lease" in param or "claim" in param:
                return True
        for ann in fn.get("param_annotations", {}).values():
            if "Lease" in ann:
                return True
        for call in fn.get("calls", ()):
            attr = call["callee"].get("attr") or (
                call["callee"].get("name") or ""
            ).rsplit(".", 1)[-1]
            if attr in ("claim", "acquire", "heartbeat"):
                return True
        return False


@register
class SwallowedTelemetryRule(Rule):
    """RPL105: silent except around telemetry-shard writes."""

    id = "RPL105"
    name = "swallowed-telemetry"
    program = True
    summary = "broad except silently swallows failures on a telemetry-write path"
    rationale = (
        "Telemetry shards are the only durable record of what a run "
        "did; a `except Exception: pass` wrapped (however indirectly) "
        "around a shard write means a full disk or serialization bug "
        "silently drops the evidence.  RPL008 already demands broad "
        "handlers re-raise or emit; this rule is its interprocedural "
        "sharpening for telemetry: it flags only broad handlers that "
        "neither re-raise nor emit *and* whose try body (transitively) "
        "reaches a shard writer (config: telemetry_writer_sinks), so "
        "ordinary defensive handlers stay unflagged."
    )

    def check_program(self, analysis: Analysis) -> Iterator[Finding]:
        project = analysis.project
        roles = analysis.roles
        for (display, qual), res_map in sorted(analysis.resolutions.items()):
            fn = project.by_path[display]["functions"].get(qual)
            if fn is None:
                continue
            for handler in fn.get("handlers", ()):
                if handler["raises"] or handler["emits"]:
                    continue
                start, end = handler["try_calls"]
                witness: Optional[Tuple[str, ...]] = None
                for index in range(start, end):
                    call = fn["calls"][index]
                    res = res_map.get(index)
                    if res is None:
                        continue
                    frame = f"{display}:{call['line']} {qual or '<module>'}"
                    attr = call["callee"].get("attr") or ""
                    if roles.telemetry_sink(res.name or "") or (
                        attr and f"*.{attr}" in roles.telemetry_sinks
                    ):
                        witness = (frame,)
                        break
                    if res.kind == "project" and res.ref is not None:
                        callee_sum = analysis.summaries.get(res.ref.key)
                        if (
                            callee_sum is not None
                            and callee_sum.telemetry_reach is not None
                        ):
                            witness = (frame,) + callee_sum.telemetry_reach
                            break
                if witness is None:
                    continue
                yield _finding(
                    self,
                    project,
                    display,
                    handler["line"],
                    handler["col"] + 1,
                    "broad except swallows failures on a path that "
                    "writes telemetry shards "
                    f"[{_chain_text(witness)}]; re-raise or emit an "
                    "event so dropped shards leave evidence",
                    extra={"chain": list(witness)},
                )


@register
class CatalogLivenessRule(Rule):
    """RPL106: every registered obs name must be emitted somewhere."""

    id = "RPL106"
    name = "catalog-liveness"
    program = True
    summary = "metric/event name registered in the catalog but never emitted"
    rationale = (
        "RPL002 stops unregistered names at the call site; this is the "
        "inverse: a name registered in the reprolint catalog "
        "(METRIC_NAMES / EVENT_NAMES in */lint/catalog.py) that no "
        "analyzed module ever emits is dead weight — usually a leftover "
        "from a refactor, sometimes a typo'd registration shadowing the "
        "real name.  The rule counts an emission when an obs emitter "
        "call's name argument resolves to the string — literally, "
        "through a module-level constant, or through an imported "
        "constant.  It only activates when a catalog module is inside "
        "the analyzed tree, so linting a subdirectory never "
        "false-positives."
    )

    def check_program(self, analysis: Analysis) -> Iterator[Finding]:
        project = analysis.project
        catalogs = [
            (display, facts["catalog"])
            for display, facts in sorted(project.by_path.items())
            if facts.get("catalog")
        ]
        if not catalogs:
            return
        used: Set[str] = set(analysis.config.extra_names)
        for display, facts in project.by_path.items():
            for fn in facts["functions"].values():
                for name in fn.get("emit_names", ()):
                    if name.startswith("@"):
                        resolved = self._resolve_constant(project, name[1:])
                        if resolved:
                            used.add(resolved)
                    else:
                        used.add(name)
        for display, decls in catalogs:
            for decl_name, names in sorted(decls.items()):
                for name, line in sorted(names.items()):
                    if name in used:
                        continue
                    yield _finding(
                        self,
                        project,
                        display,
                        line,
                        1,
                        f"{decl_name} entry {name!r} is never emitted by "
                        "any analyzed module; remove the registration or "
                        "wire up the emission",
                    )

    @staticmethod
    def _resolve_constant(project: Project, dotted: str) -> Optional[str]:
        display = project._module_prefix(dotted)
        if display is None:
            return None
        facts = project.by_path[display]
        remainder = dotted[len(facts["module"]) :].lstrip(".")
        return facts["constants"].get(remainder)
