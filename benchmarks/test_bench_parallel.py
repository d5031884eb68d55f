"""Generation cost-accounting bench on the largest cell of the bench suite.

The conventional flow's hot loop — one simulator per defect — is the cost
the paper attacks.  This bench tracks the solves and cache efficiency of
that loop on the shared per-cell
:class:`~repro.simulation.switchgraph.CellTopology`.
"""

from repro.camodel import generate_ca_model
from repro.library import SOI28, build_cell

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
