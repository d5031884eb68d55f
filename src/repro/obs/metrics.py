"""In-process metrics registry: counters, gauges, histograms.

Increments are one dict update — cheap enough for per-cell accounting on
the generation hot path.  The registry is process-local; service workers
run their own :class:`Metrics`, ship their counters back with each
finished cell, and the coordinator merges them, so a multi-process run
ends with one coherent registry (the numbers
:class:`~repro.camodel.stats.GenerationStats` is a view over).

Histograms carry fixed, log-spaced buckets besides count/sum/min/max, so
p50/p95/p99 estimates (:meth:`Metrics.percentile`) are deterministic —
the same samples produce the same estimate in any order, across merges,
and across processes.  The bounds cover 1 µs to 100 ks at four buckets
per decade, matching the duration distributions the repo observes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Mapping, Optional

#: fixed histogram bucket upper bounds: 10^(k/4) for 1e-6 .. 1e5.
#: Values at or below the first bound land in bucket 0, values above the
#: last bound in the overflow bucket — len(BUCKET_BOUNDS) + 1 in total.
BUCKET_BOUNDS: tuple = tuple(10.0 ** (exp / 4.0) for exp in range(-24, 21))


def _new_histogram() -> Dict[str, object]:
    return {
        "count": 0.0,
        "sum": 0.0,
        "min": float("inf"),
        "max": float("-inf"),
        "buckets": [0.0] * (len(BUCKET_BOUNDS) + 1),
    }


class Metrics:
    """Named counters / gauges / histograms with snapshot-and-merge."""

    def __init__(self):
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Dict[str, object]] = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0) -> None:
        """Add *value* to a counter (created at 0)."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Record the latest value of a gauge."""
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into a histogram (count/sum/min/max/buckets)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = _new_histogram()
        hist["count"] += 1
        hist["sum"] += value
        hist["min"] = min(hist["min"], value)
        hist["max"] = max(hist["max"], value)
        hist["buckets"][bisect_left(BUCKET_BOUNDS, value)] += 1

    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, float]:
        """Copy of the counters, for later :meth:`counter_delta`."""
        return dict(self.counters)

    def counter_delta(self, checkpoint: Mapping[str, float]) -> Dict[str, float]:
        """Counter increments since *checkpoint* (zero deltas omitted)."""
        out: Dict[str, float] = {}
        for name, value in self.counters.items():
            delta = value - checkpoint.get(name, 0.0)
            if delta:
                out[name] = delta
        return out

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Full, JSON-serializable state (what crosses a worker pipe)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }

    def merge_counters(self, counters: Mapping[str, float]) -> None:
        """Fold a plain counter mapping in (adds to existing values).

        The resilience run layer stores each worker's counters in its
        run ledger and merges them here exactly once, at the cell's
        ``done`` transition — a resumed run reads completed cells from
        the ledger instead, so nothing is ever double-counted.
        """
        for name, value in counters.items():
            self.inc(name, float(value))

    def merge(self, snapshot: Mapping[str, Mapping[str, object]]) -> None:
        """Fold a child snapshot in: counters add, histograms combine,
        gauges last-write-wins."""
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, float(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.set_gauge(name, float(value))
        for name, other in snapshot.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = _new_histogram()
            hist["count"] += other["count"]
            hist["sum"] += other["sum"]
            hist["min"] = min(hist["min"], other["min"])
            hist["max"] = max(hist["max"], other["max"])
            # Buckets from an older writer may be absent; counts and
            # extremes still merge, percentiles just see fewer samples.
            other_buckets = other.get("buckets")
            if other_buckets is not None and len(other_buckets) == len(
                hist["buckets"]
            ):
                hist["buckets"] = [
                    a + b for a, b in zip(hist["buckets"], other_buckets)
                ]

    # ------------------------------------------------------------------
    def get(self, name: str, default: float = 0.0) -> float:
        return self.counters.get(name, default)

    def percentile(self, name: str, q: float) -> float:
        """Deterministic quantile estimate from the fixed buckets.

        *q* is a fraction in (0, 1] (``0.95`` for p95).  The estimate
        interpolates linearly inside the bucket holding the q-th sample
        and is clamped to the observed min/max, so it is exact for
        single-sample histograms and order-independent always.
        """
        hist = self.histograms.get(name)
        if hist is None or not hist["count"]:
            return 0.0
        return _bucket_percentile(hist, q)

    def render(self, prefix: Optional[str] = None) -> str:
        """Plain-text dump (``--stats``-style debugging aid)."""
        lines = []
        for name in sorted(self.counters):
            if prefix and not name.startswith(prefix):
                continue
            lines.append(f"{name} = {self.counters[name]:g}")
        for name in sorted(self.gauges):
            if prefix and not name.startswith(prefix):
                continue
            lines.append(f"{name} = {self.gauges[name]:g} (gauge)")
        for name in sorted(self.histograms):
            if prefix and not name.startswith(prefix):
                continue
            h = self.histograms[name]
            mean = h["sum"] / h["count"] if h["count"] else 0.0
            lines.append(
                f"{name}: n={h['count']:g} mean={mean:g} "
                f"min={h['min']:g} max={h['max']:g} "
                f"p50={self.percentile(name, 0.50):g} "
                f"p95={self.percentile(name, 0.95):g} "
                f"p99={self.percentile(name, 0.99):g}"
            )
        return "\n".join(lines)


def _bucket_percentile(hist: Mapping[str, object], q: float) -> float:
    """Quantile of one histogram dict (see :meth:`Metrics.percentile`)."""
    count = float(hist["count"])  # type: ignore[arg-type]
    lo_clamp = float(hist["min"])  # type: ignore[arg-type]
    hi_clamp = float(hist["max"])  # type: ignore[arg-type]
    buckets: Optional[List[float]] = hist.get("buckets")  # type: ignore[assignment]
    if not buckets or not any(buckets):
        # Bucketless (older writer): the extremes are all we know.
        return hi_clamp if q >= 0.5 else lo_clamp
    target = max(1.0, q * count)
    cumulative = 0.0
    for index, in_bucket in enumerate(buckets):
        if not in_bucket:
            continue
        if cumulative + in_bucket < target:
            cumulative += in_bucket
            continue
        lower = BUCKET_BOUNDS[index - 1] if index > 0 else lo_clamp
        upper = (
            BUCKET_BOUNDS[index] if index < len(BUCKET_BOUNDS) else hi_clamp
        )
        fraction = (target - cumulative) / in_bucket
        estimate = lower + (upper - lower) * fraction
        return min(max(estimate, lo_clamp), hi_clamp)
    return hi_clamp
