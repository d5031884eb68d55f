"""Fig. 1 bench: conventional CA model generation throughput.

Measures what the paper is trying to avoid — the per-cell cost of
simulating every defect against every stimulus — across cell sizes.
"""

import pytest

from repro.camodel import generate_ca_model
from repro.library import SOI28, build_cell


@pytest.mark.parametrize(
    "function,drive",
    [("INV", 1), ("NAND2", 1), ("AOI21", 1), ("AOI22", 1), ("XOR2", 1), ("NAND2", 4)],
    ids=lambda v: str(v),
)
def test_conventional_generation(benchmark, function, drive):
    cell = build_cell(SOI28, function, drive)
    model = benchmark.pedantic(
        generate_ca_model,
        args=(cell,),
        kwargs={"params": SOI28.electrical},
        rounds=1,
        iterations=1,
    )
    assert model.n_defects == 10 * cell.n_transistors
    assert model.coverage() > 0.05
    print(
        f"\n{cell.name}: {model.simulation_count} simulations, "
        f"{model.n_defects} defects -> {len(model.equivalence())} classes, "
        f"coverage {model.coverage():.2%}"
    )


def test_batched_vs_scalar_speedup(bench_record):
    """The vectorized batch kernel against the scalar reference solver.

    Same cell, same universe, same stimuli; only the solver path differs.
    The batched path must be byte-identical (checked) and substantially
    faster on the serial kernel (the acceptance bar is 3x on a 4-input
    exhaustive run).  Delay detection is off so the measurement isolates
    phase solving rather than drive-resistance extraction.
    """
    import time

    import numpy as np

    cell = build_cell(SOI28, "AOI22", 1)
    kwargs = dict(params=SOI28.electrical, delay_detection=False)

    def best_of(batched, rounds=3):
        best = float("inf")
        model = None
        for _ in range(rounds):
            start = time.perf_counter()
            model = generate_ca_model(cell, packed=batched, **kwargs)
            best = min(best, time.perf_counter() - start)
        return best, model

    scalar_seconds, scalar_model = best_of(batched=False)
    batched_seconds, batched_model = best_of(batched=True)

    assert np.array_equal(scalar_model.detection, batched_model.detection)
    assert scalar_model.golden == batched_model.golden

    speedup = scalar_seconds / batched_seconds
    bench_record.add(
        "generation",
        benchmark="batched_vs_scalar",
        cell=cell.name,
        stimuli=scalar_model.n_stimuli,
        defects=scalar_model.n_defects,
        scalar_seconds=round(scalar_seconds, 4),
        batched_seconds=round(batched_seconds, 4),
        speedup=round(speedup, 2),
        batched_phases=batched_model.stats.batched_phases,
    )
    print(
        f"\nscalar {scalar_seconds:.3f}s vs batched {batched_seconds:.3f}s "
        f"-> {speedup:.2f}x"
    )
    assert speedup >= 3.0


def test_golden_simulation_throughput(benchmark):
    """The golden pass alone (used by active/passive identification)."""
    from repro.camodel import stimuli
    from repro.simulation import CellSimulator

    cell = build_cell(SOI28, "AOI22", 1)
    words = stimuli(cell.n_inputs, "exhaustive")

    def run():
        sim = CellSimulator(cell, params=SOI28.electrical)
        return [sim.output_response(w) for w in words]

    responses = benchmark(run)
    assert len(responses) == 256
