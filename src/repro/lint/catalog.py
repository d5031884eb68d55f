"""Registered metric and event names — the RPL002 ground truth.

Every metric counter and structured event name used in ``src/repro``
must be registered here.  The point is mechanical typo detection: a
misspelt counter today surfaces only at runtime as
``stats.unknown_keys`` (or not at all, as a counter nobody reads);
RPL002 turns it into a lint failure at the call site.

The sets are duplicated from the defining modules on purpose —
``repro.lint`` must not import the packages it lints (heavy imports,
and a syntax error in a linted module must not break the linter).
``tests/test_lint.py::test_catalog_matches_defining_modules`` guards
the copy against rot: every ``M_*`` constant in
:mod:`repro.camodel.stats`, :mod:`repro.resilience.runner`,
:mod:`repro.simulation.engine`, :mod:`repro.simulation.packed`,
:mod:`repro.camodel.throughput`, :mod:`repro.obs.store`,
:mod:`repro.obs.inspect`, :mod:`repro.learning.engine`,
:mod:`repro.lint.program.driver` and the
:mod:`repro.service` modules must appear in :data:`METRIC_NAMES`, and
every ``E_*`` constant in :mod:`repro.obs.trace` / :mod:`repro.obs.store`
in :data:`EVENT_NAMES`.

To add a metric or event: define the name constant in the owning
module, use it at the call site, and register it here (same PR).
"""

from __future__ import annotations

from typing import FrozenSet

#: namespaces a registered name may live under; a dotted literal whose
#: first segment is one of these is checked against the catalog, and a
#: dotted literal under an *unknown* first segment is flagged outright
#: (a typo in the namespace itself, e.g. ``resilence.retries``).
NAMESPACES: FrozenSet[str] = frozenset(
    {
        "camodel",
        "resilience",
        "hybrid",
        "cache",
        "experiment",
        "stats",
        "throughput",
        "trace",
        "obs",
        "inspect",
        "watch",
        "learning",
        "service",
        "lease",
        "lint",
    }
)

#: counters/gauges/histograms (see repro.camodel.stats / repro.resilience.runner)
METRIC_NAMES: FrozenSet[str] = frozenset(
    {
        # camodel generation cost accounting (repro.camodel.stats)
        "camodel.sim.solves",
        "camodel.sim.cache_hits",
        "camodel.sim.batched_phases",
        "camodel.defects.simulated",
        "camodel.defects.skipped",
        "camodel.seconds.golden",
        "camodel.seconds.defects",
        "camodel.seconds.total",
        # checkpointed run layer (repro.resilience.runner)
        "resilience.cells_done",
        "resilience.cells_resumed",
        "resilience.retries",
        "resilience.timeouts",
        "resilience.crashes",
        "resilience.exceptions",
        "resilience.corrupt_artifacts",
        "resilience.quarantined",
        # packed planner flushes and the cross-cell throughput engine
        # (repro.simulation.engine, repro.camodel.throughput)
        "throughput.packed_rows",
        "throughput.flushes",
        "throughput.cells",
        # packed-kernel padding accounting (repro.simulation.packed)
        "throughput.kernel_slots",
        "throughput.padded_slots",
        # per-cell generation seconds histogram (repro.camodel.stats)
        "camodel.seconds.per_cell",
        # durable run-telemetry store (repro.obs.store)
        "obs.shards_written",
        "obs.shards_read",
        # inspect / watch CLI (repro.obs.inspect)
        "inspect.reports",
        "watch.refreshes",
        # frontier-batched forest engine (repro.learning.engine)
        "learning.fit.seconds",
        "learning.frontier_nodes",
        "learning.histogram_lanes",
        "learning.packed_lanes",
        # per-cell lease files of the worker service (repro.service.lease)
        "lease.claims",
        "lease.conflicts",
        "lease.heartbeats",
        "lease.lost",
        "lease.releases",
        "lease.reaped",
        # coordinator/worker characterization service (repro.service)
        "service.cells",
        "service.failures",
        "service.commits",
        "service.commit_races",
        "service.discards",
        "service.workers_spawned",
        # whole-program lint driver (repro.lint.program.driver)
        "lint.program.modules",
        "lint.program.cache_hits",
        "lint.program.cache_misses",
        "lint.program.findings",
    }
)

#: structured event names (repro.obs.events call sites)
EVENT_NAMES: FrozenSet[str] = frozenset(
    {
        # experiment cache layer
        "cache.unreadable",
        "cache.generate",
        "cache.write",
        # experiment runner artifact accounting
        "experiment.artifact",
        # hybrid flow routing decisions
        "hybrid.route",
        # forward-compat stats loader
        "stats.unknown_keys",
        # checkpointed run layer
        "resilience.requeue",
        "resilience.resume",
        "resilience.cell_done",
        "resilience.retry",
        "resilience.quarantine",
        "resilience.artifact_invalid",
        # span-buffer merging (repro.obs.trace)
        "trace.orphan_spans",
        # durable run-telemetry store (repro.obs.store)
        "obs.shard_corrupt",
        # coordinator/worker characterization service (repro.service)
        "lease.expired",
        "service.submit",
        "service.serve",
        "service.worker_start",
        "service.worker_exit",
        "service.discard",
    }
)

REGISTERED_NAMES: FrozenSet[str] = METRIC_NAMES | EVENT_NAMES
