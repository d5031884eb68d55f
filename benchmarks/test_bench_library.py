"""Library-scale bench: cross-cell packed throughput vs the per-cell loop.

Per-cell generation already packs every defect of a cell into a few
kernel calls, but at library scale its fixed per-call NumPy overhead
returns: small cells still need a golden call and a defect sweep each.
The cross-cell engine (:func:`repro.camodel.run_throughput`) packs phase
batches from every cell and defect into shared padded kernel calls, so
the bench metric is whole-library throughput — cells per minute — not
per-cell seconds.  The engine exists because it beats the per-cell
``generate_ca_model`` loop as shipped; the floor is that it is not slower.

The measured numbers land in ``BENCH_library.json`` at the repo root
(CI archives every ``BENCH_*.json``).  Identity is asserted here too:
the speedup only counts because the engine's models are canonically
identical to the per-cell reference.
"""

import time

from repro.camodel import generate_ca_model, run_throughput
from repro.library import SOI28, build_cell
from repro.resilience.runner import canonical_model_dict

# Small cells at two drives: the regime where per-call kernel overhead
# dominates and cross-cell packing pays the most.
FUNCTIONS = ("INV", "NAND2", "NOR2", "AND2", "OR2")
DRIVES = (1, 2)


def _best_of(fn, rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_library_throughput_speedup(bench_record):
    """The cross-cell engine must not lose whole-library throughput to
    the per-cell loop — while producing canonically identical models.
    Delay detection is off so the measurement isolates phase solving."""
    cells = [build_cell(SOI28, fn, d) for fn in FUNCTIONS for d in DRIVES]
    kwargs = dict(delay_detection=False)

    baseline_seconds, baseline = _best_of(
        lambda: {cell.name: generate_ca_model(cell, **kwargs) for cell in cells}
    )
    engine_seconds, engine = _best_of(lambda: run_throughput(cells, **kwargs))

    assert set(engine) == set(baseline)
    for name in baseline:
        assert canonical_model_dict(engine[name]) == canonical_model_dict(
            baseline[name]
        )

    baseline_cpm = len(cells) / baseline_seconds * 60.0
    engine_cpm = len(cells) / engine_seconds * 60.0
    speedup = baseline_seconds / engine_seconds
    bench_record.add(
        "library",
        benchmark="cross_cell_vs_per_cell",
        cells=len(cells),
        defects=sum(m.n_defects for m in baseline.values()),
        baseline_seconds=round(baseline_seconds, 4),
        engine_seconds=round(engine_seconds, 4),
        baseline_cells_per_minute=round(baseline_cpm, 1),
        engine_cells_per_minute=round(engine_cpm, 1),
        speedup=round(speedup, 2),
    )
    print(
        f"\nper-cell loop {baseline_cpm:.0f} cells/min vs packed engine "
        f"{engine_cpm:.0f} cells/min -> {speedup:.2f}x"
    )
    assert speedup >= 1.0
