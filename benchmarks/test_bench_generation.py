"""Fig. 1 bench: conventional CA model generation throughput.

Measures what the paper is trying to avoid — the per-cell cost of
simulating every defect against every stimulus — across cell sizes,
and tracks the solves and cache efficiency of that loop on the shared
per-cell :class:`~repro.simulation.switchgraph.CellTopology`.
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


#: largest cell of the bench suite: 4 inputs -> 256 exhaustive stimuli
LARGEST = ("AOI22", 1)


def test_generation_cost_accounting(benchmark):
    """Tracks solves and cache efficiency of one generation."""
    cell = build_cell(SOI28, *LARGEST)
    model = benchmark.pedantic(
        generate_ca_model,
        args=(cell,),
        kwargs={"params": SOI28.electrical},
        rounds=1,
        iterations=1,
    )
    stats = model.stats
    assert stats.simulated_defects + stats.skipped_defects == model.n_defects
    benchmark.extra_info["solves"] = stats.solves
    benchmark.extra_info["cache_hits"] = stats.cache_hits
    benchmark.extra_info["cache_hit_rate"] = round(stats.cache_hit_rate, 4)
    print(
        f"\n{cell.name}: {stats.solves} solves, {stats.cache_hits} cache hits "
        f"({stats.cache_hit_rate:.1%}), golden {stats.golden_seconds:.3f}s, "
        f"defects {stats.defect_seconds:.3f}s"
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


def test_resistive_batched_vs_scalar(bench_record, monkeypatch):
    """The batched resistive kernel against one-at-a-time scalar solves.

    Collects every contended component and every batched drive-resistance
    query of one cell's generation (golden pass and defect sweep), then
    solves the same systems twice: through the kernel (every contention
    call batched, the drive requests in one call each) and one system at
    a time through the scalar references
    (``StaticSolver._solve_contention`` per component,
    ``CellSimulator._effective_resistance`` per query).  Codes and
    resistances must be bitwise equal; the floor is 2x.
    """
    import time

    import numpy as np

    from repro.simulation import CellSimulator, engine, packed

    cell = build_cell(SOI28, "AOI22", 1)
    contention_calls = []
    drive_calls = []
    solve_contended = packed._solve_contended
    drive_resistances = engine.drive_resistances

    def capture_contention(*args):
        *inputs, result = args
        contention_calls.append((*inputs, result.copy()))
        solve_contended(*args)

    def capture_drive(requests):
        drive_calls.append(list(requests))
        return drive_resistances(requests)

    with monkeypatch.context() as patch:
        patch.setattr(packed, "_solve_contended", capture_contention)
        patch.setattr(engine, "drive_resistances", capture_drive)
        generate_ca_model(cell, params=SOI28.electrical)

    def scalar_drive(solver, out, rail, codes1, codes2):
        sim = CellSimulator.__new__(CellSimulator)
        sim.graph = solver.graph
        return sim._effective_resistance(out, rail, codes1, codes2)

    def scalar_contended(
        pk, keys, labels, edge_active, fnodes, fixed_vals, topo_idx, result
    ):
        rows, roots = np.divmod(keys, pk.N)
        for b, root in zip(rows.tolist(), roots.tolist()):
            solver = pk.solvers[int(topo_idx[b])]
            graph = solver.graph
            # Padded fixed columns repeat the ground rail's 0.
            fixed = dict(zip(fnodes[b].tolist(), fixed_vals[b].tolist()))
            conducting = [
                graph.devices[k]
                for k in np.flatnonzero(edge_active[b, : len(graph.devices)])
            ]
            nodes = np.flatnonzero(labels[b] == root).tolist()
            solver._solve_contention(nodes, conducting, fixed, result[b])

    def run(batched):
        # Every call through the kernel, or every system through the
        # scalar method.
        contend = solve_contended if batched else scalar_contended
        codes = []
        for *args, result in contention_calls:
            out = result.copy()
            contend(*args, out)
            codes.append(out)
        if batched:
            resistances = [drive_resistances(reqs) for reqs in drive_calls]
        else:
            resistances = [
                [scalar_drive(*request) for request in reqs]
                for reqs in drive_calls
            ]
        return codes, resistances

    def best_of(batched, rounds=5):
        best, outcome = float("inf"), None
        for _ in range(rounds):
            start = time.perf_counter()
            outcome = run(batched)
            best = min(best, time.perf_counter() - start)
        return best, outcome

    scalar_seconds, (scalar_codes, scalar_drive_r) = best_of(batched=False)
    batched_seconds, (batched_codes, batched_drive_r) = best_of(batched=True)

    for a, b in zip(scalar_codes, batched_codes):
        assert np.array_equal(a, b)
    assert [np.asarray(r).tobytes() for r in scalar_drive_r] == [
        np.asarray(r).tobytes() for r in batched_drive_r
    ]

    contention_systems = sum(call[1].size for call in contention_calls)
    drive_systems = sum(len(reqs) for reqs in drive_calls)
    assert contention_systems and drive_systems
    speedup = scalar_seconds / batched_seconds
    bench_record.add(
        "generation",
        benchmark="resistive_batched_vs_scalar",
        cell=cell.name,
        contention_systems=contention_systems,
        drive_systems=drive_systems,
        scalar_seconds=round(scalar_seconds, 4),
        batched_seconds=round(batched_seconds, 4),
        speedup=round(speedup, 2),
    )
    print(
        f"\n{contention_systems} contention + {drive_systems} drive systems: "
        f"scalar {scalar_seconds:.4f}s vs batched {batched_seconds:.4f}s "
        f"-> {speedup:.2f}x"
    )
    assert speedup >= 2.0
