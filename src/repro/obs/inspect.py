"""Analysis reports over a run directory's telemetry store.

Every function here renders one ``python -m repro inspect RUN_DIR``
subreport as a plain string (the CLI is the only sanctioned printer) from
a loaded :class:`~repro.obs.store.RunTelemetry`:

* :func:`report_summary` — per-cell wall-clock vs. simulate vs. merge
  vs. unattributed overhead, with an exact reconciliation check against
  :meth:`~repro.resilience.ledger.RunLedger.metrics_total`.
* :func:`report_stragglers` — slowest-N cells and the span names their
  winning attempt actually spent its time in.
* :func:`report_cache` — solver memoization effectiveness and the
  padding waste of the packed cross-cell kernel.
* :func:`report_failures` — the retry / quarantine timeline, the ledger
  error records joined with the failed attempts' telemetry shards.

:func:`watch_snapshot` + :func:`render_watch` back ``python -m repro
watch RUN_DIR``: a live tail of the ledger (done / pending / running /
quarantined counts) with an ETA from the rolling completion rate
observed *within* the watch window — no ledger format change needed.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.store import RunTelemetry

# obs metric names (registered in repro.lint.catalog)
M_REPORTS = "inspect.reports"
M_WATCH_REFRESHES = "watch.refreshes"

# ledger counter names the reports aggregate (defined by
# repro.camodel.stats; string-duplicated here to keep repro.obs
# import-light — the rot-guard in tests/test_lint.py pins them).
_C_GOLDEN = "camodel.seconds.golden"
_C_DEFECTS = "camodel.seconds.defects"
_C_TOTAL = "camodel.seconds.total"
_C_SOLVES = "camodel.sim.solves"
_C_CACHE_HITS = "camodel.sim.cache_hits"


def _fmt_seconds(value: float) -> str:
    return f"{value:8.3f}"


def _fmt_rate(hits: float, total: float) -> str:
    return f"{hits / total:6.1%}" if total else "     -"


def report_summary(tel: RunTelemetry) -> str:
    """Per-cell time breakdown + exact ledger reconciliation."""
    by_cell = tel.counters_by_cell()
    lines = [
        f"run {tel.run_dir}",
        f"{'cell':<20} {'wall[s]':>8} {'simulate':>8} {'other':>8} "
        f"{'solves':>8} {'hit%':>6}",
    ]
    totals = {"wall": 0.0, "sim": 0.0, "other": 0.0}
    for name in sorted(by_cell):
        counters = by_cell[name]
        wall = float(tel.ledger.cells[name].get("seconds", 0.0))
        sim = counters.get(_C_GOLDEN, 0.0) + counters.get(_C_DEFECTS, 0.0)
        other = max(0.0, wall - counters.get(_C_TOTAL, 0.0))
        solves = counters.get(_C_SOLVES, 0.0)
        hits = counters.get(_C_CACHE_HITS, 0.0)
        totals["wall"] += wall
        totals["sim"] += sim
        totals["other"] += other
        lines.append(
            f"{name:<20} {_fmt_seconds(wall)} {_fmt_seconds(sim)} "
            f"{_fmt_seconds(other)} {solves:8g} {_fmt_rate(hits, hits + solves)}"
        )
    lines.append(
        f"{'TOTAL':<20} {_fmt_seconds(totals['wall'])} "
        f"{_fmt_seconds(totals['sim'])} {_fmt_seconds(totals['other'])}"
    )
    # Per-cell sums ARE the ledger totals (single source of truth); the
    # shard cross-check catches a worker whose shard diverged anyway.
    ledger_total = tel.ledger.metrics_total()
    summed: Dict[str, float] = {}
    for counters in by_cell.values():
        for key, value in counters.items():
            summed[key] = summed.get(key, 0.0) + value
    exact = all(
        abs(summed.get(k, 0.0) - v) == 0.0 for k, v in ledger_total.items()
    ) and set(summed) == set(ledger_total)
    diffs = tel.reconcile()
    lines.append(
        "reconciliation: per-cell sums "
        + ("== ledger metrics_total() (exact)" if exact else "DIVERGE from ledger")
        + (f"; {len(diffs)} shard/ledger mismatch(es)" if diffs else "; shards agree")
    )
    return "\n".join(lines)


def report_stragglers(tel: RunTelemetry, top: int = 5) -> str:
    """Slowest-N done cells with their dominant span names."""
    winning = tel.winning_attempts()
    ranked = sorted(
        (
            (float(record.get("seconds", 0.0)), name)
            for name, record in tel.ledger.cells.items()
            if record["state"] == "done"
        ),
        reverse=True,
    )[: max(1, top)]
    lines = [f"slowest {len(ranked)} cell(s) of {tel.run_dir}"]
    for seconds, name in ranked:
        lines.append(f"{name:<20} {_fmt_seconds(seconds)}s")
        shard = winning.get(name)
        if shard is None:
            lines.append("    (no telemetry shard for this cell)")
            continue
        by_name: Dict[str, float] = {}
        for span in shard.get("spans", []):
            by_name[str(span["name"])] = (
                by_name.get(str(span["name"]), 0.0) + float(span["duration"])
            )
        total = float(shard.get("seconds", 0.0)) or sum(by_name.values())
        for span_name, duration in sorted(
            by_name.items(), key=lambda kv: kv[1], reverse=True
        )[:3]:
            share = duration / total if total else 0.0
            lines.append(
                f"    {span_name:<28} {duration:8.3f}s ({share:5.1%})"
            )
    return "\n".join(lines)


def report_cache(tel: RunTelemetry) -> str:
    """Solver memoization effectiveness + packed padding waste."""
    total = tel.ledger.metrics_total()
    session = tel.session_counters()
    merged = dict(total)
    for key, value in session.items():
        merged[key] = merged.get(key, 0.0) + value
    solves = merged.get(_C_SOLVES, 0.0)
    hits = merged.get(_C_CACHE_HITS, 0.0)
    kernel_slots = merged.get("throughput.kernel_slots", 0.0)
    padded_slots = merged.get("throughput.padded_slots", 0.0)
    lines = [
        f"cache effectiveness for {tel.run_dir}",
        f"solver memoization : {hits:g} hits / {hits + solves:g} lookups "
        f"({_fmt_rate(hits, hits + solves).strip()})",
    ]
    if kernel_slots:
        waste = padded_slots / kernel_slots
        lines.append(
            f"packed kernel      : {kernel_slots:g} slots, "
            f"{padded_slots:g} padding ({waste:.1%} waste)"
        )
    else:
        lines.append("packed kernel      : no packed kernel calls recorded")
    return "\n".join(lines)


def report_workers(tel: RunTelemetry) -> str:
    """Per-worker view of a service run (``repro inspect RUN_DIR workers``).

    Joins the service worker shards
    (:func:`repro.obs.store.write_worker_shard`) with the ledger: who
    committed which cells, each worker's lease traffic, and the run's
    aggregate claim/conflict/reap counters — the reconciled
    multi-worker view the chaos suite asserts over.
    """
    lines = [f"service workers for {tel.run_dir}"]
    if not tel.workers:
        lines.append("no worker shards recorded (sequential run?)")
        return "\n".join(lines)
    lines.append(
        f"{'owner':<16} {'pid':>7} {'cells':>5} {'wall[s]':>8} "
        f"{'claims':>6} {'beats':>6}  committed"
    )
    for shard in tel.workers:
        counters = {
            k: float(v) for k, v in shard.get("counters", {}).items()
        }
        cells = [str(c) for c in shard.get("cells", [])]
        lines.append(
            f"{str(shard['owner']):<16} {int(shard['pid']):>7} "
            f"{len(cells):>5} {_fmt_seconds(float(shard.get('seconds', 0.0)))} "
            f"{counters.get('lease.claims', 0.0):>6g} "
            f"{counters.get('lease.heartbeats', 0.0):>6g}  "
            + (", ".join(cells) if cells else "-")
        )
    total = tel.worker_counters()
    lines.append(
        "lease traffic      : "
        f"{total.get('lease.claims', 0.0):g} claims, "
        f"{total.get('lease.conflicts', 0.0):g} conflicts, "
        f"{total.get('lease.lost', 0.0):g} lost, "
        f"{total.get('service.discards', 0.0):g} discarded attempts"
    )
    done = sum(
        1 for r in tel.ledger.cells.values() if r["state"] == "done"
    )
    committed = sum(len(shard.get("cells", [])) for shard in tel.workers)
    lines.append(
        f"cells committed    : {committed} by workers, {done} done in ledger"
    )
    return "\n".join(lines)


def report_failures(tel: RunTelemetry) -> str:
    """Retry / quarantine timeline joined with the failed-attempt shards."""
    failed_shards = {
        (str(a["cell"]), int(a["attempt"])): a for a in tel.failed_attempts()
    }
    lines = [f"failure timeline for {tel.run_dir}"]
    counts = tel.ledger.failure_report()["counts"]
    lines.append(
        " ".join(f"{state}={count}" for state, count in sorted(counts.items()))
    )
    any_errors = False
    for name in sorted(tel.ledger.cells):
        record = tel.ledger.cells[name]
        errors = record.get("errors", [])
        if not errors:
            continue
        any_errors = True
        lines.append(f"{name} [{record['state']}] ({record['attempts']} attempts)")
        for error in errors:
            attempt = int(error.get("attempt", -1))
            shard = failed_shards.get((name, attempt))
            telemetry = (
                f" pid={shard['pid']} spans={len(shard.get('spans', []))}"
                if shard is not None
                else " (no shard)"
            )
            lines.append(
                f"    attempt {attempt + 1}: {error.get('kind', '?')} "
                f"after {float(error.get('elapsed', 0.0)):.3f}s — "
                f"{error.get('error', '')}{telemetry}"
            )
    if not any_errors:
        lines.append("no failed attempts recorded")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Live watch
# ----------------------------------------------------------------------

class WatchWindow:
    """Rolling per-cell completion rate across watch refreshes."""

    def __init__(self, span: float = 60.0) -> None:
        self.span = span
        self.samples: List[Tuple[float, int]] = []

    def update(self, now: float, done: int) -> Optional[float]:
        """Record one (time, done) sample; returns cells/second or None."""
        self.samples.append((now, done))
        cutoff = now - self.span
        self.samples = [s for s in self.samples if s[0] >= cutoff]
        if len(self.samples) < 2:
            return None
        (t0, d0), (t1, d1) = self.samples[0], self.samples[-1]
        if t1 <= t0 or d1 <= d0:
            return None
        return (d1 - d0) / (t1 - t0)


def watch_snapshot(run_dir: Union[str, Path]) -> Dict[str, object]:
    """One refresh: state counts + shard count, read from disk.

    Safe to call while a run is live — the ledger is rewritten
    atomically, so a reader only ever sees a consistent state.
    """
    from repro.resilience.ledger import RunLedger

    run_dir = Path(run_dir)
    ledger = RunLedger.load(run_dir)
    counts: Dict[str, int] = {}
    for record in ledger.cells.values():
        state = str(record["state"])
        counts[state] = counts.get(state, 0) + 1
    obs_dir = run_dir / "obs"
    shards = len(list(obs_dir.glob("*.json"))) if obs_dir.is_dir() else 0
    return {
        "time": time.monotonic(),
        "total": len(ledger.cells),
        "counts": counts,
        "shards": shards,
    }


def render_watch(
    snapshot: Dict[str, object], rate: Optional[float]
) -> str:
    """One status line for a watch refresh."""
    counts: Dict[str, int] = snapshot["counts"]  # type: ignore[assignment]
    done = counts.get("done", 0)
    total = int(snapshot["total"])  # type: ignore[arg-type]
    pending = counts.get("pending", 0) + counts.get("failed", 0)
    running = counts.get("running", 0)
    quarantined = counts.get("quarantined", 0)
    if rate and pending + running:
        eta = (pending + running) / rate
        eta_text = f"ETA {eta:.0f}s ({rate * 60:.1f} cells/min)"
    elif pending + running:
        eta_text = "ETA …"
    else:
        eta_text = "complete"
    return (
        f"{done}/{total} done, {running} running, {pending} pending, "
        f"{quarantined} quarantined, {snapshot['shards']} shards — {eta_text}"
    )


def watch_complete(snapshot: Dict[str, object]) -> bool:
    """True when no cell can still make progress."""
    counts: Dict[str, int] = snapshot["counts"]  # type: ignore[assignment]
    return not (
        counts.get("pending", 0)
        + counts.get("running", 0)
        + counts.get("failed", 0)
    )
