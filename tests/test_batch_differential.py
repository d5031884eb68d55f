"""Differential tests: packed solving vs the scalar reference oracle.

The vectorized kernel (`solve_packed` planned through
`solve_words_across` / `CellSimulator.solve_words`) is an optimization,
not a semantic change: the scalar per-word path is the reference
implementation and the packed path must reproduce it byte for byte —
same net codes, same retention behaviour, same detection tables, and
even the same solve / cache-hit counter sequences.  These tests enforce
that contract over the full synthesized cell catalog, over whole defect
universes, and over Hypothesis-generated random cells.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.camodel import (
    generate_ca_model,
    generate_multi,
    resolve_policy,
    stimuli,
)
from repro.defects.universe import default_universe
from repro.library import SOI28, build_cell, function_names
from repro.library.synth import (
    CellSpec,
    Leaf,
    StageSpec,
    parallel,
    series,
    synthesize,
)
from repro.simulation import CellSimulator, GOLDEN

PARAMS = SOI28.electrical


def _word_set(cell):
    policy = resolve_policy(cell.n_inputs, "auto")
    return stimuli(cell.n_inputs, policy)


def _assert_identical(cell, effect, words):
    """Scalar and batched simulators must agree on everything visible."""
    scalar = CellSimulator(cell, params=PARAMS, effect=effect, packed=False)
    batched = CellSimulator(cell, params=PARAMS, effect=effect)
    expected = scalar.solve_words(words)
    got = batched.solve_words(words)
    assert got == expected
    # Not just the same answers: the same cost accounting.  The batched
    # path stages pre-solved phases but consumes them through the scalar
    # memoization layer, so solve/hit counts must match exactly.
    assert batched.solve_count == scalar.solve_count
    assert batched.cache_hit_count == scalar.cache_hit_count
    assert batched.batched_count == scalar.solve_count
    # Retention flags ride on the memoized base solves.
    for vector, reference in scalar._memoryless_cache.items():
        assert (
            batched._memoryless_cache[vector].retention_used
            == reference.retention_used
        )


class TestCatalogGoldenDifferential:
    """Every synthesized catalog cell, golden circuit, full stimulus set."""

    @pytest.mark.parametrize("function", function_names())
    def test_catalog_cell(self, function):
        cell = build_cell(SOI28, function, 1)
        _assert_identical(cell, GOLDEN, _word_set(cell))


class TestDefectDifferential:
    """Whole defect universes on a structural cross-section of the catalog:
    plain stacks, reconvergent gates, pass-style cells, multi-output."""

    @pytest.mark.parametrize(
        "function", ["INV", "NAND2", "NOR3", "XOR2", "AOI22", "MUX2", "HA1"]
    )
    def test_full_universe(self, function):
        cell = build_cell(SOI28, function, 1)
        words = _word_set(cell)
        for defect in default_universe(cell):
            effect = defect.effect(cell, PARAMS.short_resistance)
            _assert_identical(cell, effect, words)


class TestModelDifferential:
    """End-to-end: generated models must be identical either way."""

    def _compare(self, a, b):
        assert a.golden == b.golden
        assert np.array_equal(a.detection, b.detection)
        assert a.responses == b.responses
        assert a.stats.solves == b.stats.solves
        assert a.stats.cache_hits == b.stats.cache_hits

    @pytest.mark.parametrize("function", ["NAND2", "XOR2"])
    def test_generate_ca_model(self, function):
        cell = build_cell(SOI28, function, 1)
        scalar = generate_ca_model(
            cell, params=PARAMS, keep_responses=True, packed=False
        )
        batched = generate_ca_model(
            cell, params=PARAMS, keep_responses=True
        )
        assert scalar.stats.batched_phases == 0
        assert batched.stats.batched_phases > 0
        self._compare(scalar, batched)

    def test_generate_multi(self):
        cell = build_cell(SOI28, "HA1", 1)
        scalar = generate_multi(
            cell, params=PARAMS, keep_responses=True, packed=False
        )
        batched = generate_multi(
            cell, params=PARAMS, keep_responses=True
        )
        assert set(scalar) == set(batched) == {"Z", "CO"}
        for port in scalar:
            self._compare(scalar[port], batched[port])


class TestPackedDifferential:
    """Cross-cell packed kernel vs the per-cell / scalar paths.

    `solve_packed` pads many topologies into one kernel call; it is an
    optimization with a byte-identity contract — same codes, same
    retention flags, same counter sequences, and models that round-trip
    identically through the canonical form.
    """

    FUNCTIONS = ("INV", "NAND2", "NOR3", "XOR2", "MUX2")

    def test_solve_packed_mixed_topologies(self):
        """One padded call over several cells + defect variants must equal
        per-request scalar solves exactly (codes and retention)."""
        from itertools import product

        from repro.simulation import GOLDEN, PackedRequest, solve_packed

        requests = []
        for function in self.FUNCTIONS:
            cell = build_cell(SOI28, function, 1)
            effects = [GOLDEN]
            for defect in default_universe(cell)[:2]:
                effects.append(defect.effect(cell, PARAMS.short_resistance))
            for effect in effects:
                sim = CellSimulator(cell, params=PARAMS, effect=effect)
                vectors = list(product((0, 1), repeat=cell.n_inputs))
                requests.append(PackedRequest(sim.solver, vectors))
        packed = solve_packed(requests)
        assert len(packed) == len(requests)
        for request, results in zip(requests, packed):
            for vector, result in zip(request.vectors, results):
                reference = request.solver.solve(vector, None)
                assert result.codes == reference.codes
                assert result.retention_used == reference.retention_used

    @pytest.mark.parametrize("mixed_first", [True, False], ids=["mixed", "alone"])
    def test_resolve_cache_shared_across_pack_widths(self, mixed_first):
        """A solver's resolve-row memo must not depend on the pack that
        filled it: INV's keys are trimmed next to AOI22 and full-width
        alone, yet either call must hit every entry the other wrote —
        equal results, no new (or rewritten) entries."""
        from itertools import product

        from repro.simulation import PackedRequest, solve_packed

        small = CellSimulator(build_cell(SOI28, "INV", 1), params=PARAMS).solver
        large = CellSimulator(build_cell(SOI28, "AOI22", 1), params=PARAMS).solver
        alone = [PackedRequest(small, list(product((0, 1), repeat=1)))]
        mixed = alone + [PackedRequest(large, list(product((0, 1), repeat=4)))]
        first, second = (mixed, alone) if mixed_first else (alone, mixed)

        expected = solve_packed(first)[0]
        entries = dict(small._resolve_cache)
        assert entries
        got = solve_packed(second)[0]
        assert got == expected
        assert small._resolve_cache.keys() == entries.keys()
        for key, row in entries.items():
            assert small._resolve_cache[key] is row

    def _canonical(self, model):
        from repro.resilience.runner import canonical_model_dict

        return canonical_model_dict(model)

    def test_run_throughput_matches_per_cell_reference(self):
        """The cross-cell engine must reproduce per-cell generation
        canonically for a whole multi-cell library."""
        from repro.camodel import run_throughput

        cells = [build_cell(SOI28, fn, 1) for fn in self.FUNCTIONS]
        reference = {
            cell.name: generate_ca_model(cell, params=PARAMS)
            for cell in cells
        }
        engine = run_throughput(cells, params=PARAMS)
        assert set(engine) == set(reference)
        for name in reference:
            assert self._canonical(engine[name]) == self._canonical(
                reference[name]
            )

    def test_phase_cache_warm_run_byte_identical(self, tmp_path):
        """A warm on-disk phase cache must change nothing observable —
        not even the solve / cache-hit counter sequences."""
        from repro import obs
        from repro.simulation.engine import M_PHASECACHE_HITS

        cell = build_cell(SOI28, "AOI22", 1)
        store = tmp_path / "phases"
        cold = generate_ca_model(
            cell, params=PARAMS, keep_responses=True, packed=True,
            phase_cache=store,
        )
        assert list(store.glob("*.json")), "cold run must populate the store"
        with obs.scoped(metrics=obs.Metrics()) as state:
            warm = generate_ca_model(
                cell, params=PARAMS, keep_responses=True, packed=True,
                phase_cache=store,
            )
            hits = state.metrics.get(M_PHASECACHE_HITS)
        assert hits > 0, "warm run must actually consume the store"
        assert self._canonical(warm) == self._canonical(cold)


# ----------------------------------------------------------------------
# Randomized property test: random series-parallel cells, random defects
# ----------------------------------------------------------------------

PINS = ("A", "B", "C")


def _sp(draw, depth):
    if depth <= 0 or draw(st.booleans()):
        return Leaf(draw(st.sampled_from(PINS)))
    combine = series if draw(st.booleans()) else parallel
    return combine(_sp(draw, depth - 1), _sp(draw, depth - 1))


@st.composite
def random_cell(draw):
    spec = CellSpec(
        function="RND",
        inputs=PINS,
        output="Z",
        stages=(StageSpec(out="Z", pulldown=_sp(draw, draw(st.integers(1, 3)))),),
    )
    return synthesize(spec, "RND")


class TestRandomizedDifferential:
    @given(random_cell(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_cell_random_defect(self, cell, data):
        universe = default_universe(cell)
        defect = data.draw(st.sampled_from(universe))
        effect = defect.effect(cell, PARAMS.short_resistance)
        words = stimuli(cell.n_inputs, "exhaustive")
        _assert_identical(cell, effect, words)

    @given(random_cell(), st.integers(0, 2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_random_cell_detection_tables(self, cell, seed):
        rng = np.random.default_rng(seed)
        universe = default_universe(cell)
        picks = rng.choice(len(universe), size=min(4, len(universe)), replace=False)
        sample = [universe[int(i)] for i in picks]
        scalar = generate_ca_model(
            cell, params=PARAMS, universe=sample, keep_responses=True,
            packed=False,
        )
        batched = generate_ca_model(
            cell, params=PARAMS, universe=sample, keep_responses=True,
        )
        assert scalar.golden == batched.golden
        assert np.array_equal(scalar.detection, batched.detection)
        assert scalar.responses == batched.responses
