"""Instrumentation overhead bench for the repro.obs subsystem.

Tracing off is the default and must cost nothing measurable; tracing on
buffers a handful of spans per cell plus per-cell counter updates, so
the acceptance bar is <5% slowdown on one generation of a 6-input cell.
Both numbers land in the benchmark JSON via ``extra_info``.
"""

import gc
import time

from repro import obs
from repro.camodel import generate_ca_model
from repro.library import SOI28, build_cell

#: 6 inputs, 1.4-3 s per generation: long enough that host noise stays
#: inside the 5% bar (the best of 5 runs of the ~0.6 s AOI222 crossed
#: it in 1 of 5 benches)
CELL = ("MUX4", 1)

ROUNDS = 5


def _best_seconds(run, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def test_tracing_overhead(benchmark):
    """One generation with spans + metrics on vs. off: <5% overhead."""
    cell = build_cell(SOI28, *CELL)

    def plain():
        return generate_ca_model(cell, params=SOI28.electrical)

    def traced():
        with obs.scoped(tracer=obs.Tracer(enabled=True), metrics=obs.Metrics()):
            return generate_ca_model(cell, params=SOI28.electrical)

    def timed(run):
        # As timeit does: a collection inside the window costs in
        # proportion to every object the test process holds.
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            run()
            return time.perf_counter() - started
        finally:
            gc.enable()

    plain()  # warm caches (imports) outside the measured window
    # Alternate the two so drift on a shared host hits both alike.
    base_seconds = traced_seconds = float("inf")
    for _ in range(ROUNDS):
        for run, is_traced in ((plain, False), (traced, True)):
            seconds = timed(run)
            if is_traced:
                traced_seconds = min(traced_seconds, seconds)
            else:
                base_seconds = min(base_seconds, seconds)
    overhead = traced_seconds / base_seconds - 1.0

    benchmark.extra_info["base_seconds"] = round(base_seconds, 3)
    benchmark.extra_info["traced_seconds"] = round(traced_seconds, 3)
    benchmark.extra_info["overhead"] = round(overhead, 4)
    print(
        f"\n{cell.name}: plain {base_seconds:.3f}s, traced {traced_seconds:.3f}s "
        f"-> {overhead:+.2%} overhead"
    )

    # one timed round for the benchmark history
    benchmark.pedantic(traced, rounds=1, iterations=1)
    assert overhead < 0.05

    # and the traced run actually produced the span tree
    with obs.scoped(tracer=obs.Tracer(enabled=True)) as state:
        plain()
        spans = state.tracer.export()
    names = [s["name"] for s in spans]
    assert names.count("camodel.generate") == 1
    assert "generate.golden" in names and "generate.defects" in names
    assert obs.orphan_parents(spans) == []


def test_disabled_tracer_costs_nothing(benchmark):
    """Tracing off (the default): a null span is a dict lookup and a branch."""
    tracer = obs.Tracer(enabled=False)

    def spin(n=100_000):
        for _ in range(n):
            with tracer.span("hot.path", key=1):
                pass

    seconds = benchmark.pedantic(
        lambda: _best_seconds(spin, rounds=3), rounds=1, iterations=1
    )
    per_call = seconds / 100_000
    benchmark.extra_info["ns_per_disabled_span"] = round(per_call * 1e9)
    print(f"\ndisabled span: {per_call * 1e9:.0f} ns/call")
    # generous bound: even a slow box does a no-op context manager in <5us
    assert per_call < 5e-6
    assert tracer.export() == []
