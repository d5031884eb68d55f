"""Differential tests: packed solving vs the scalar reference oracle.

The vectorized kernel (`solve_packed` planned through
`solve_words_across` / `CellSimulator.solve_words`) is an optimization,
not a semantic change: the scalar per-word path is the reference
implementation and the packed path must reproduce it byte for byte —
same net codes, same retention behaviour, same detection tables, and
even the same solve / cache-hit counter sequences.  These tests enforce
that contract over the full synthesized cell catalog, over whole defect
universes, and over Hypothesis-generated random cells.  The batched
resistive kernel (contended components and drive resistances) is held
to the scalar Laplacian solves bit for bit, on the catalog's defect
universes and on Hypothesis-generated resistive networks.
"""

import dataclasses
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.camodel.generate as generate_module
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
from repro.simulation import (
    GOLDEN,
    CellSimulator,
    PackedRequest,
    StaticSolver,
    UnionFind,
    engine,
    packed,
    solve_packed,
)
from repro.simulation.resistive import solve_resistive

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

    def test_scalar_library_matches_per_cell_and_packed(self):
        """``packed=False`` on an N-cell library is one engine call over
        scalar simulators: it must equal per-cell scalar generation
        canonically, and the packed library in every detection table and
        every counter except ``batched_phases``."""
        from repro import obs
        from repro.camodel import generate_library

        cells = [
            build_cell(SOI28, fn, 1)
            for fn in ("INV", "NAND2", "NOR3", "AOI21", "XOR2")
        ]
        with obs.scoped(tracer=obs.Tracer()) as state:
            scalar = generate_library(cells, params=PARAMS, packed=False)
            spans = [span["name"] for span in state.tracer.export()]
        assert spans.count("camodel.generate") == 1
        packed = generate_library(cells, params=PARAMS)
        assert list(scalar) == list(packed) == [cell.name for cell in cells]
        for cell in cells:
            reference = generate_ca_model(cell, params=PARAMS, packed=False)
            one, other = scalar[cell.name], packed[cell.name]
            assert self._canonical(one) == self._canonical(reference)
            assert one.golden == other.golden
            assert one.detection.tobytes() == other.detection.tobytes()
            assert one.simulation_count == other.simulation_count
            for counter in (
                "workers", "solves", "cache_hits",
                "simulated_defects", "skipped_defects",
            ):
                assert getattr(one.stats, counter) == getattr(
                    other.stats, counter
                ), (cell.name, counter)
            assert one.stats.batched_phases == 0 < other.stats.batched_phases

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


# ----------------------------------------------------------------------
# Batched resistive kernel vs the scalar Laplacian solvers
# ----------------------------------------------------------------------


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _scalar_contention(solver, nodes, conducting, fixed, n_nodes):
    """Run the scalar oracle on one component: (codes, voltages or None).

    The voltages are the ones its own ``np.linalg.solve`` returned
    (None when it raised ``LinAlgError``).
    """
    captured = []
    real_solve = np.linalg.solve

    def spy(a, b):
        x = real_solve(a, b)
        captured.append(x)
        return x

    codes = [packed.CONTENDED] * n_nodes
    np.linalg.solve = spy
    try:
        solver._solve_contention(nodes, conducting, fixed, codes)
    finally:
        np.linalg.solve = real_solve
    return codes, (captured[0] if captured else None)


class _ResistiveCheck:
    """Checks every resistive system of a run against the scalar oracles.

    Wraps the contention solve and the drive prefetch: every contended component's voltages
    and codes, and every batched drive resistance, must be bitwise equal
    to :meth:`StaticSolver._solve_contention` and
    :meth:`CellSimulator._effective_resistance`.
    """

    def __init__(self, monkeypatch):
        self.contention = 0
        self.drive = 0
        #: prefetch calls that solved something (golden pass, sweep)
        self.drive_batches = 0
        kernel_calls = []
        kernel = packed.solve_resistive

        def spy_kernel(*args, **kwargs):
            out = kernel(*args, **kwargs)
            kernel_calls.append((args, out))
            return out

        contended = packed._solve_contended

        def spy_contended(pk, keys, labels, edge_active, fnodes, fixed_vals,
                          topo_idx, result):
            kernel_calls.clear()
            contended(pk, keys, labels, edge_active, fnodes, fixed_vals,
                      topo_idx, result)
            ((args, (volts, solved)),) = kernel_calls
            member = args[5]
            for s, b in enumerate((keys // pk.N).tolist()):
                solver = pk.solvers[int(topo_idx[b])]
                graph = solver.graph
                fixed = {graph.power: 1, graph.ground: 0}
                for i, node in enumerate(graph.source_nodes):
                    fixed[node] = int(fixed_vals[b, 2 + i])  # source values
                devs = [
                    graph.devices[k]
                    for k in np.flatnonzero(edge_active[b, : len(graph.devices)])
                ]
                nodes = np.flatnonzero(member[s]).tolist()
                codes, voltages = _scalar_contention(
                    solver, nodes, devs, fixed, pk.N
                )
                free = [n for n in nodes if n not in fixed]
                if voltages is None:
                    assert solved[s] == (not free)  # no free node: no solve
                else:
                    assert solved[s]
                    assert _bits(volts[s, free]) == _bits(voltages)
                assert result[b, nodes].tolist() == [codes[n] for n in nodes]
                self.contention += 1

        prefetch = generate_module.prefetch_drive

        def spy_prefetch(queries):
            queries = list(queries)  # the sweep streams them
            before = {
                id(q[0]._prefetch_drive): set(q[0]._prefetch_drive)
                for q in queries
            }
            prefetch(queries)
            checked = set()
            for sim, plan, out, codes1, codes2 in queries:
                key = (plan[0], plan[1], out)
                pool = id(sim._prefetch_drive)
                if key in before[pool] or (pool, key) in checked:
                    continue
                if key not in sim._prefetch_drive:
                    continue
                checked.add((pool, key))
                level = codes2[out]
                rail = sim.graph.power if level == 1 else sim.graph.ground
                reference = sim._effective_resistance(out, rail, codes1, codes2)
                assert _bits(sim._prefetch_drive[key]) == _bits(reference)
                self.drive += 1
            self.drive_batches += bool(checked)

        monkeypatch.setattr(packed, "solve_resistive", spy_kernel)
        monkeypatch.setattr(packed, "_solve_contended", spy_contended)
        monkeypatch.setattr(generate_module, "prefetch_drive", spy_prefetch)


class TestResistiveCatalogDifferential:
    """Every contended component and every drive query of the catalog's
    defect universes (intra-transistor opens and shorts; a short is a
    resistive bridge) through the batched kernel, bitwise against the
    scalar solvers.  The adjacent stimulus set keeps transitions (so
    drive queries) while bounding the sweep."""

    @pytest.mark.parametrize("function", function_names())
    def test_catalog_universe_bitwise(self, function, monkeypatch):
        cell = build_cell(SOI28, function, 1)
        check = _ResistiveCheck(monkeypatch)
        generate_ca_model(cell, params=PARAMS, policy="adjacent")
        assert check.contention > 0
        # The golden pass and the sweep; a 1-input cell's sweep has no
        # undetected golden-matching transition to measure.
        assert check.drive_batches == (1 if cell.n_inputs == 1 else 2)


@st.composite
def resistive_networks(draw):
    """A few random resistive systems for one kernel call.

    Each system: device edges with random activity, always-active static
    edges, a membership that is a union of whole components (so it is
    closed under active edges, as the kernel requires), held nodes with
    0/1 values, and an (output, rail) pair for a drive query.  Isolated
    members give singular systems, a lone free member a 1-node system,
    and an all-held component no free node.
    """
    systems = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 7))
        node = st.integers(0, n - 1)
        conductance = st.sampled_from(
            [1 / 300.0, 1 / 2000.0, 1 / 4500.0, 1 / 11000.0]
        ) | st.floats(1e-6, 1e-2)
        devices = draw(
            st.lists(st.tuples(node, node, conductance, st.booleans()), max_size=9)
        )
        static = draw(st.lists(st.tuples(node, node, conductance), max_size=4))
        uf = UnionFind(n)
        for a, b, _g, on in devices:
            if on:
                uf.union(a, b)
        for a, b, _g in static:
            uf.union(a, b)
        roots = sorted({uf.find(v) for v in range(n)})
        chosen = draw(st.lists(st.sampled_from(roots), min_size=1, unique=True))
        member = [uf.find(v) in chosen for v in range(n)]
        held = [m and draw(st.booleans()) for m in member]
        values = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        out, rail = draw(node), draw(node)
        component = [uf.find(v) == uf.find(out) for v in range(n)]
        systems.append(
            SimpleNamespace(
                n=n, devices=devices, static=static, member=member,
                held=held, values=values, out=out, rail=rail,
                component=component,
            )
        )
    return systems


def _kernel_tables(systems):
    """Edge tables in the packed layout: device columns, then static.

    Every system is its own topology row; padded columns are inactive
    self-edges on an isolated scrap node.
    """
    count = len(systems)
    n_dev = max(len(s.devices) for s in systems)
    n_static = max(len(s.static) for s in systems)
    width = n_dev + n_static + 1
    scrap = max(s.n for s in systems)
    edge_a = np.full((count, width), scrap, dtype=np.intp)
    edge_b = np.full((count, width), scrap, dtype=np.intp)
    edge_g = np.zeros((count, width))
    active = np.zeros((count, width), dtype=bool)
    for k, system in enumerate(systems):
        for e, (a, b, g, on) in enumerate(system.devices):
            edge_a[k, e], edge_b[k, e], edge_g[k, e] = a, b, g
            active[k, e] = on
        for j, (a, b, g) in enumerate(system.static):
            e = n_dev + j
            edge_a[k, e], edge_b[k, e], edge_g[k, e] = a, b, g
            active[k, e] = True
    static_first = np.concatenate(
        [np.arange(n_dev, n_dev + n_static), np.arange(n_dev)]
    )
    return (edge_a, edge_b, edge_g), active, scrap + 1, static_first


def _node_mask(systems, n_nodes, field):
    mask = np.zeros((len(systems), n_nodes), dtype=bool)
    for k, system in enumerate(systems):
        mask[k, : system.n] = getattr(system, field)
    return mask


class TestResistiveKernelProperties:
    @given(resistive_networks())
    @settings(max_examples=150, deadline=None)
    def test_contention_systems_match_scalar(self, systems):
        tables, active, n_nodes, _order = _kernel_tables(systems)
        member = _node_mask(systems, n_nodes, "member")
        held = _node_mask(systems, n_nodes, "held")
        held_val = np.zeros((len(systems), n_nodes), dtype=np.int16)
        for k, system in enumerate(systems):
            held_val[k, : system.n] = system.values
        volts, solved = solve_resistive(
            *tables, np.arange(len(systems)), active, member, held, held_val
        )
        for k, system in enumerate(systems):
            solver = StaticSolver.__new__(StaticSolver)
            solver.graph = SimpleNamespace(static_edges=system.static)
            solver.vil, solver.vih = PARAMS.vil, PARAMS.vih
            conducting = [
                SimpleNamespace(drain=a, source=b, g_on=g)
                for a, b, g, on in system.devices if on
            ]
            fixed = {
                v: system.values[v] for v in range(system.n) if system.held[v]
            }
            nodes = [v for v in range(system.n) if system.member[v]]
            _codes, voltages = _scalar_contention(
                solver, nodes, conducting, fixed, system.n
            )
            free = [v for v in nodes if v not in fixed]
            if voltages is None:
                assert solved[k] == (not free)  # no free node: nothing to solve
                assert np.isnan(volts[k]).all()
            else:
                assert solved[k]
                assert _bits(volts[k, free]) == _bits(voltages)
                others = np.ones(n_nodes, dtype=bool)
                others[free] = False
                assert np.isnan(volts[k, others]).all()

    @given(resistive_networks())
    @settings(max_examples=150, deadline=None)
    def test_drive_systems_match_scalar(self, systems):
        """A unit current into the output, the rail held at 0, static
        edges first: the scalar effective resistance."""
        tables, active, n_nodes, static_first = _kernel_tables(systems)
        member = _node_mask(systems, n_nodes, "component")
        held = np.zeros((len(systems), n_nodes), dtype=bool)
        for k, system in enumerate(systems):
            held[k, system.rail] = True
        volts, solved = solve_resistive(
            *tables, np.arange(len(systems)), active, member, held,
            source=np.array([s.out for s in systems]), order=static_first,
        )
        for k, system in enumerate(systems):
            if system.out == system.rail or not system.component[system.rail]:
                continue  # no system: the caller reads inf without a solve
            edges = list(system.static) + [
                (a, b, g) for a, b, g, on in system.devices if on
            ]
            fake = SimpleNamespace(
                _conducting_edges=lambda c1, c2, edges=edges: edges
            )
            reference = CellSimulator._effective_resistance(
                fake, system.out, system.rail, None, None
            )
            got = volts[k, system.out] if solved[k] else float("inf")
            assert _bits(got) == _bits(reference)


class TestResistiveKernelCases:
    def _system(self, devices, static, member, held):
        return SimpleNamespace(
            n=len(member), devices=devices, static=static, member=member,
            held=held,
        )

    def test_singular_system_falls_back_alone(self):
        """A singular system makes its size class's stacked solve raise;
        the class is re-solved one system at a time, so its 2-free-node
        siblings still solve and only the singular one reads unsolved."""
        g = 1 / 2000.0
        chain = self._system(
            [(0, 1, g, True), (1, 2, g, True)], [(2, 3, g)],
            [True] * 4, [True, False, False, True],
        )
        # Node 2 is a member with no edge: a zero row, exactly singular.
        isolated = self._system(
            [(0, 1, g, True)], [],
            [True, True, True, False], [True, False, False, False],
        )
        systems = [chain, isolated, chain]
        tables, active, n_nodes, _order = _kernel_tables(systems)
        held_val = np.zeros((3, n_nodes), dtype=np.int16)
        held_val[:, 0] = 1
        volts, solved = solve_resistive(
            *tables, np.arange(3), active,
            _node_mask(systems, n_nodes, "member"),
            _node_mask(systems, n_nodes, "held"), held_val,
        )
        assert solved.tolist() == [True, False, True]
        assert np.isnan(volts[1]).all()
        single = solve_resistive(
            *(t[:1] for t in tables), np.zeros(1, dtype=np.intp), active[:1],
            _node_mask(systems[:1], n_nodes, "member"),
            _node_mask(systems[:1], n_nodes, "held"), held_val[:1],
        )[0]
        assert _bits(volts[0]) == _bits(single[0]) == _bits(volts[2])

    def test_chunks_and_size_classes_are_invisible(self, monkeypatch):
        """Splitting a batch into chunks and stacked calls changes no bit."""
        import repro.simulation.resistive as resistive

        g = 1 / 2000.0
        systems = [
            self._system(
                [(k, k + 1, g * (k + 1), True) for k in range(n)], [],
                [True] * (n + 1), [True] + [False] * (n - 1) + [True],
            )
            for n in (1, 3, 2, 3, 1, 2, 3)
        ]
        tables, active, n_nodes, _order = _kernel_tables(systems)
        args = (
            *tables, np.arange(len(systems)), active,
            _node_mask(systems, n_nodes, "member"),
            _node_mask(systems, n_nodes, "held"),
        )
        whole = solve_resistive(*args)
        monkeypatch.setattr(resistive, "_CHUNK_SYSTEMS", 2)
        monkeypatch.setattr(resistive, "_SOLVE_ELEMENTS", 1)
        split = solve_resistive(*args)
        assert _bits(whole[0]) == _bits(split[0])
        assert whole[1].tolist() == split[1].tolist()


class TestResistiveIntegration:
    """The batched kernel inside the packed path: mixed thresholds, the
    drive prefetch, models, counters and phase-cache bytes."""

    def test_pack_mixing_thresholds(self, monkeypatch):
        """One pack of topologies with different vil/vih: each contended
        component thresholds with its own topology's levels."""
        levels = []
        contended = packed._solve_contended

        def spy_contended(pk, keys, *args):
            topo_idx = args[-2]
            levels.append(set(pk.vih[topo_idx[keys // pk.N]].tolist()))
            contended(pk, keys, *args)

        monkeypatch.setattr(packed, "_solve_contended", spy_contended)
        requests = []
        by_levels = {}
        for vil, vih in ((0.35, 0.65), (0.1, 0.9), (0.45, 0.55)):
            params = dataclasses.replace(PARAMS, vil=vil, vih=vih)
            for function in ("NAND2", "NOR2", "AOI21"):
                cell = build_cell(SOI28, function, 1)
                vectors = list(product((0, 1), repeat=cell.n_inputs))
                for defect in default_universe(cell):
                    effect = defect.effect(cell, params.short_resistance)
                    if effect.bridges:
                        sim = CellSimulator(cell, params=params, effect=effect)
                        requests.append(PackedRequest(sim.solver, vectors))
                        by_levels.setdefault(vih, []).append(len(requests) - 1)
        got = solve_packed(requests)
        for request, results in zip(requests, got):
            for vector, result in zip(request.vectors, results):
                reference = request.solver.solve(vector, None)
                assert result.codes == reference.codes
                assert result.retention_used == reference.retention_used
        assert any(len(seen) > 1 for seen in levels)
        # The levels matter: the same defects resolve differently.
        wide, narrow = by_levels[0.9], by_levels[0.55]
        assert any(got[i] != got[j] for i, j in zip(wide, narrow))

    def test_prefetched_drive_calls(self):
        """Prefetched drive resistances are bitwise equal to the scalar
        solve, and the calls pop them without moving a counter."""
        cell = build_cell(SOI28, "AOI22", 1)
        words = stimuli(cell.n_inputs, "exhaustive")
        sim = CellSimulator(cell, params=PARAMS)
        plans = [engine.split_word(w, cell.n_inputs) for w in words]
        solved = sim.solve_words(words, plans)
        node = sim.graph.output
        cols = [
            col for col in range(len(words))
            if plans[col][2] and solved[col][1][node] in (0, 1)
        ][:16]
        queries = [(sim, plans[col], node, *solved[col]) for col in cols]
        engine.prefetch_drive(queries)
        assert len(sim._prefetch_drive) == len(queries)
        scalar = CellSimulator(cell, params=PARAMS, packed=False)
        scalar.solve_words(words, plans)
        for _sim, plan, out, codes1, codes2 in queries:
            key = (plan[0], plan[1], out)
            rail = sim.graph.power if codes2[out] == 1 else sim.graph.ground
            reference = scalar._effective_resistance(out, rail, codes1, codes2)
            assert _bits(sim._prefetch_drive[key]) == _bits(reference)
        for col in cols:
            hits = sim.cache_hit_count, scalar.cache_hit_count
            got = sim.output_drive_resistance(words[col], plan=plans[col])
            want = scalar.output_drive_resistance(words[col], plan=plans[col])
            assert _bits(got) == _bits(want)
            assert (
                sim.cache_hit_count - hits[0]
                == scalar.cache_hit_count - hits[1]
            )
        assert sim._prefetch_drive == {}

    def test_drive_resistances_mixed_cells(self):
        """One batch over cells of different widths, golden and defective
        simulators: every resistance bitwise equal to the scalar one."""
        requests, references = [], []
        for function in ("INV", "NAND2", "AOI22", "MUX2"):
            cell = build_cell(SOI28, function, 1)
            words = stimuli(cell.n_inputs, "exhaustive")
            effects = [GOLDEN] + [
                d.effect(cell, PARAMS.short_resistance)
                for d in default_universe(cell)[:3]
            ]
            for effect in effects:
                sim = CellSimulator(cell, params=PARAMS, effect=effect)
                out = sim.graph.output
                for codes1, codes2 in sim.solve_words(words):
                    for rail in (sim.graph.power, sim.graph.ground):
                        requests.append((sim.solver, out, rail, codes1, codes2))
                        references.append(
                            sim._effective_resistance(out, rail, codes1, codes2)
                        )
        got = packed.drive_resistances(requests)
        assert _bits(got) == _bits(references)
        assert any(r != float("inf") for r in references)
        assert any(r == float("inf") for r in references)

    @pytest.mark.parametrize("function", ["AOI22", "MUX2", "HA1"])
    def test_models_and_counters_with_delay_detection(self, function):
        """packed=True (batched drive and contention) vs packed=False
        (scalar solves): equal models and every counter but the batched
        phase count."""
        cell = build_cell(SOI28, function, 1)
        kwargs = dict(params=PARAMS, keep_responses=True, delay_detection=True)
        scalar = generate_multi(cell, packed=False, **kwargs)
        batched = generate_multi(cell, **kwargs)
        for port in scalar:
            a, b = scalar[port], batched[port]
            assert a.golden == b.golden
            assert np.array_equal(a.detection, b.detection)
            assert a.responses == b.responses
            sa, sb = a.stats.to_dict(), b.stats.to_dict()
            for key in sa:
                if key == "batched_phases" or key.endswith("seconds"):
                    continue
                assert sa[key] == sb[key], key

    def test_phase_cache_store_bytes(self, tmp_path):
        """Cold scalar, cold packed and warm packed runs write byte-equal
        phase-cache stores: batched drive resistances are the scalar ones."""
        cell = build_cell(SOI28, "AOI22", 1)

        def store_bytes(root):
            return {p.name: p.read_bytes() for p in sorted(root.glob("*.json"))}

        scalar_store = tmp_path / "scalar"
        generate_ca_model(
            cell, params=PARAMS, packed=False, phase_cache=scalar_store
        )
        store = tmp_path / "packed"
        generate_ca_model(cell, params=PARAMS, phase_cache=store)
        cold = store_bytes(store)
        assert cold and any(b'"drive": [[' in blob for blob in cold.values())
        assert cold == store_bytes(scalar_store)
        generate_ca_model(cell, params=PARAMS, phase_cache=store)
        assert store_bytes(store) == cold
