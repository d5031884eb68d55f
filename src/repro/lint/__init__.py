"""repro.lint — project-invariant static analysis.

One engine encoding the invariants this reproduction's correctness
claims rest on, checked mechanically instead of by eye in code review.
Module-local rules check one parsed module; whole-program rules check
the project's import graph, call graph and dataflow fixpoint.  Both
share one registry, one parse per module, one report:

* **obs discipline** — no bare ``print`` outside the sanctioned sinks
  (RPL001), every metric/event name literal registered in
  :mod:`repro.lint.catalog` (RPL002), and every registered name
  emitted somewhere (RPL106);
* **determinism** — byte-identical resume and batched-vs-scalar
  equality require no unseeded randomness (RPL003) and no wall-clock,
  RNG or iteration-order value reaching canonical artifact bytes
  (RPL101);
* **atomic-write discipline** — crash recovery trusts on-disk files to
  be complete, so run-dir code writes via temp-file + ``os.replace``
  only, directly and through any helper it calls (RPL102);
* **multiprocessing safety** — pool entry points must pickle (RPL006)
  and worker payloads must not carry open handles, at any nesting
  depth (RPL103);
* **exception hygiene** — broad handlers must re-raise, classify, or
  emit through :class:`repro.obs.EventLog` (RPL008), and never swallow
  a telemetry-shard write (RPL105);
* **service protocol** — ledger mutation, commits and leases follow
  the exactly-once rules (RPL104).

RPL004, RPL005 and RPL007 are retired (merged into RPL101, RPL102 and
RPL103) and never reused.  Run it with ``python -m repro lint [paths]
[--format text|json|sarif] [--select/--ignore RPLnnn] [--baseline FILE]
[--jobs N]``; suppress one finding inline with
``# reprolint: disable=RPLnnn``.  See ``docs/static-analysis.md`` for
the full rule catalog and workflow.
"""

from repro.lint.baseline import apply_baseline, load_baseline, write_baseline
from repro.lint.catalog import EVENT_NAMES, METRIC_NAMES, REGISTERED_NAMES
from repro.lint.config import LintConfig
from repro.lint.driver import LintStats, run_lint
from repro.lint.engine import Rule, all_rules, get_rule, select_rules
from repro.lint.findings import Finding
from repro.lint.reporters import render, render_json, render_sarif, render_text

__all__ = [
    "EVENT_NAMES",
    "Finding",
    "LintConfig",
    "LintStats",
    "METRIC_NAMES",
    "REGISTERED_NAMES",
    "Rule",
    "all_rules",
    "apply_baseline",
    "get_rule",
    "load_baseline",
    "render",
    "render_json",
    "render_sarif",
    "render_text",
    "run_lint",
    "select_rules",
    "write_baseline",
]
