"""Static (single-phase) switch-level solver.

Given fixed boundary values (rails and input sources) and a conduction
state per device, the solver computes a logic code for every net:

``1`` / ``0``
    net is connected (through conducting channels / bridges) to boundary
    nodes that agree, or its solved analog voltage clears the logic
    thresholds;
``X`` (code ``-1``)
    contention whose divider lands between the thresholds, an unknown
    propagated from an unresolved gate, or an unstable feedback loop;
``FLOAT`` (code ``-2``, internal)
    no path to any boundary; resolved by charge retention (memory) or X.

Unknown gate values are handled by Bryant-style ternary envelopes: the
network is resolved once with all unknown devices off and once with all on;
nets where the two extremes agree take that value, others become X.

Contended components (paths to both rails, e.g. through an injected short)
are solved exactly as a linear resistive network (Laplacian solve) and
thresholded with the technology's ``vil``/``vih``;
:meth:`StaticSolver._solve_contention` is the scalar reference of that
solve.

Two execution paths produce byte-identical results:

* :meth:`StaticSolver.solve` — the scalar reference oracle, one phase at a
  time (the original Python implementation, kept as the ground truth the
  differential tests sweep against);
* :func:`repro.simulation.packed.solve_packed` — the vectorized kernel:
  the phases of one or many solvers are stacked into NumPy arrays, device
  conduction is a batched gate lookup, the per-phase union-find is
  replaced by a gather-based connected-components label propagation over
  the stacked conduction masks (the Bryant off/on envelopes become two
  batched resolves), and the contended components of a resolve are
  solved together by the batched resistive kernel
  (:func:`repro.simulation.resistive.solve_resistive`), bitwise equal
  to :meth:`StaticSolver._solve_contention`.
  This module keeps the per-solver index arrays it builds on
  (:class:`_BatchArrays`, including the edge endpoints and conductances
  the resistive kernel reads); the kernel's resolve-row memo lives with
  the kernel (:class:`repro.simulation.packed.ResolveMemo`).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.simulation.switchgraph import DeviceRec, SwitchGraph

X = -1
FLOAT = -2
#: internal vectorized-resolve sentinel: component sees both rails (contention)
CONTENDED = -3
MAX_ITERATIONS = 16

ON, OFF, UNKNOWN = 1, 0, -1


class SolveResult(NamedTuple):
    """Solved per-node codes plus whether charge retention was consulted.

    When ``retention_used`` is False the result is independent of the
    previous pattern (no net floated), which the engine exploits to share
    phase solves across stimuli.
    """

    codes: List[int]
    retention_used: bool


class UnionFind:
    """Array-based union-find with path halving."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        parent = self.parent
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def device_conduction(
    dev: DeviceRec,
    codes: Sequence[int],
    prev_codes: Optional[Sequence[int]],
) -> int:
    """Conduction state of one device given current net codes.

    A gate-open device lags one pattern behind (trapped charge); with no
    history it is non-conducting.
    """
    if dev.gate_open:
        if prev_codes is None:
            return OFF
        gate_value = prev_codes[dev.gate]
    else:
        gate_value = codes[dev.gate]
    if gate_value == 1:
        return ON if dev.is_nmos else OFF
    if gate_value == 0:
        return OFF if dev.is_nmos else ON
    return UNKNOWN


class StaticSolver:
    """Solves one settled phase of a stimulus on one switch graph."""

    def __init__(self, graph: SwitchGraph):
        self.graph = graph
        self.vil = graph.params.vil
        self.vih = graph.params.vih
        self._retention_used = False
        # Retention only matters on nets whose value is ever *read*: the
        # cell output and every gate net.  Internal series-stack nodes
        # float routinely in healthy CMOS; retaining X there is harmless
        # and must not disable the engine's memoryless fast path.
        observable = [False] * graph.n_nodes
        for output in graph.outputs:
            observable[output] = True
        for dev in graph.devices:
            observable[dev.gate] = True
        self._observable = observable
        # Input pins can be pre-seeded with their source value when nothing
        # but the driver resistor touches them (no defect bridge, pin not on
        # any channel): the relaxation then starts with known first-stage
        # conduction, saving one all-unknown iteration.
        channel_nets = set()
        for dev in graph.devices:
            channel_nets.add(dev.drain)
            channel_nets.add(dev.source)
        bridged = set()
        for net_a, net_b, _r in graph.effect.bridges:
            bridged.add(graph.net_index[net_a])
            bridged.add(graph.net_index[net_b])
        self._seedable_pins = [
            (pin, src)
            for pin, src in zip(graph.pin_nodes, graph.source_nodes)
            if pin not in channel_nets and pin not in bridged
        ]
        # Index arrays for the vectorized kernel, built on first use.
        self._batch: Optional[_BatchArrays] = None

    # ------------------------------------------------------------------
    def solve(
        self,
        input_codes: Sequence[int],
        prev_codes: Optional[Sequence[int]] = None,
    ) -> SolveResult:
        """Return a logic code (1/0/X) per node.

        *prev_codes* is the settled state of the previous pattern; it feeds
        charge retention on floating nets and the lagged conduction of
        gate-open devices.
        """
        graph = self.graph
        fixed = graph.fixed_values(input_codes)

        codes: List[int] = [X] * graph.n_nodes
        for node, value in fixed.items():
            codes[node] = value
        for pin, src in self._seedable_pins:
            codes[pin] = fixed[src]

        for _ in range(MAX_ITERATIONS):
            new_codes, retention_used = self._step(codes, prev_codes, fixed)
            if new_codes == codes:
                # Only the converged step's retention flag matters: floats
                # seen while early iterations still carried X gates are
                # transients that the fixpoint has overwritten.
                return SolveResult(codes, retention_used)
            codes = new_codes

        # Non-convergence (possible only with defect-induced feedback):
        # one more step, anything still changing is marked unknown.
        final, _ = self._step(codes, prev_codes, fixed)
        merged = [c if c == f else X for c, f in zip(codes, final)]
        return SolveResult(merged, True)

    # ------------------------------------------------------------------
    def _step(
        self,
        codes: List[int],
        prev_codes: Optional[Sequence[int]],
        fixed: Dict[int, int],
    ) -> Tuple[List[int], bool]:
        graph = self.graph
        conduction = [
            device_conduction(dev, codes, prev_codes) for dev in graph.devices
        ]
        has_unknown = any(c == UNKNOWN for c in conduction)
        res_off = self._resolve(conduction, unknown_as=OFF, fixed=fixed)
        if has_unknown:
            res_on = self._resolve(conduction, unknown_as=ON, fixed=fixed)
        else:
            res_on = res_off

        self._retention_used = False
        combined: List[int] = []
        for node in range(graph.n_nodes):
            a, b = res_off[node], res_on[node]
            if a == b:
                if a == FLOAT:
                    combined.append(self._retained(node, prev_codes))
                else:
                    combined.append(a)
            elif FLOAT in (a, b):
                driven = b if a == FLOAT else a
                retained = self._retained(node, prev_codes)
                combined.append(driven if driven == retained else X)
            else:
                combined.append(X)
        return combined, self._retention_used

    def _retained(self, node: int, prev_codes: Optional[Sequence[int]]) -> int:
        if self._observable[node]:
            self._retention_used = True
        if prev_codes is None:
            return X
        value = prev_codes[node]
        return value if value in (0, 1) else X

    # ------------------------------------------------------------------
    def _resolve(
        self,
        conduction: Sequence[int],
        unknown_as: int,
        fixed: Dict[int, int],
    ) -> List[int]:
        """Resolve all nodes for one extreme of the unknown devices."""
        graph = self.graph
        uf = UnionFind(graph.n_nodes)

        conducting: List[DeviceRec] = []
        for dev, state in zip(graph.devices, conduction):
            effective = unknown_as if state == UNKNOWN else state
            if effective == ON:
                conducting.append(dev)
                uf.union(dev.drain, dev.source)
        for a, b, _g in graph.static_edges:
            uf.union(a, b)

        # Group nodes per component root.
        members: Dict[int, List[int]] = {}
        for node in range(graph.n_nodes):
            members.setdefault(uf.find(node), []).append(node)

        result: List[int] = [FLOAT] * graph.n_nodes
        for nodes in members.values():
            boundary = [(n, fixed[n]) for n in nodes if n in fixed]
            if not boundary:
                continue  # stays FLOAT
            values = {v for _n, v in boundary}
            if len(values) == 1:
                value = values.pop()
                for n in nodes:
                    result[n] = value
            else:
                self._solve_contention(nodes, conducting, fixed, result)
        return result

    # ------------------------------------------------------------------
    def _solve_contention(
        self,
        nodes: List[int],
        conducting: Sequence[DeviceRec],
        fixed: Dict[int, int],
        result: List[int],
    ) -> None:
        """Exact resistive solve of one contended component."""
        graph = self.graph
        node_set = set(nodes)
        free = [n for n in nodes if n not in fixed]
        for n in nodes:
            if n in fixed:
                result[n] = fixed[n]
        if not free:
            return
        pos = {n: i for i, n in enumerate(free)}

        size = len(free)
        laplacian = np.zeros((size, size))
        injection = np.zeros(size)

        def add_edge(a: int, b: int, g: float) -> None:
            if a not in node_set or b not in node_set or a == b:
                return
            a_free, b_free = a in pos, b in pos
            if a_free:
                laplacian[pos[a], pos[a]] += g
            if b_free:
                laplacian[pos[b], pos[b]] += g
            if a_free and b_free:
                laplacian[pos[a], pos[b]] -= g
                laplacian[pos[b], pos[a]] -= g
            elif a_free:
                injection[pos[a]] += g * fixed[b]
            elif b_free:
                injection[pos[b]] += g * fixed[a]

        for dev in conducting:
            add_edge(dev.drain, dev.source, dev.g_on)
        for a, b, g in graph.static_edges:
            add_edge(a, b, g)

        try:
            voltages = np.linalg.solve(laplacian, injection)
        except np.linalg.LinAlgError:  # pragma: no cover - degenerate
            for n in free:
                result[n] = X
            return

        for n in free:
            v = voltages[pos[n]]
            if v >= self.vih:
                result[n] = 1
            elif v <= self.vil:
                result[n] = 0
            else:
                result[n] = X

    # ------------------------------------------------------------------
    # Index arrays of the vectorized kernel (simulation.packed)
    # ------------------------------------------------------------------
    def _batch_arrays(self) -> "_BatchArrays":
        if self._batch is None:
            self._batch = _BatchArrays(self.graph, self._observable, self._seedable_pins)
        return self._batch


class _BatchArrays:
    """Precomputed index arrays of one solver, stacked by the packed kernel.

    Edges are the device channels (activity varies per phase) followed by
    the static resistive edges (always active) plus one padding slot that
    is never active; ``slot_node``/``slot_edge`` are per-node neighbour
    tables padded to the maximum degree, so label propagation needs only
    gathers.
    """

    def __init__(self, graph: SwitchGraph, observable, seedable_pins):
        devices = graph.devices
        self.n_devices = len(devices)
        self.dev_gate = np.array([d.gate for d in devices], dtype=np.intp)
        self.on_if_1 = np.array(
            [ON if d.is_nmos else OFF for d in devices], dtype=np.int16
        )
        self.on_if_0 = np.array(
            [OFF if d.is_nmos else ON for d in devices], dtype=np.int16
        )
        self.open_cols = np.array(
            [i for i, d in enumerate(devices) if d.gate_open], dtype=np.intp
        )
        self.observable = np.array(observable, dtype=bool)
        self.source_nodes = np.array(graph.source_nodes, dtype=np.intp)
        self.fixed_nodes = np.array(
            [graph.power, graph.ground] + list(graph.source_nodes), dtype=np.intp
        )
        self.seed_pins = np.array([p for p, _s in seedable_pins], dtype=np.intp)
        self.seed_srcs = np.array([s for _p, s in seedable_pins], dtype=np.intp)

        self.n_static = len(graph.static_edges)
        endpoints = [(d.drain, d.source) for d in devices]
        endpoints += [(a, b) for a, b, _g in graph.static_edges]
        # Edge endpoints and conductances, in edge order, for the batched
        # resistive kernel (contention and drive-resistance solves).
        self.edge_a = np.array([a for a, _b in endpoints], dtype=np.intp)
        self.edge_b = np.array([b for _a, b in endpoints], dtype=np.intp)
        self.edge_g = np.array(
            [d.g_on for d in devices] + [g for _a, _b, g in graph.static_edges],
            dtype=np.float64,
        )
        # Neighbour tables: each edge joins both endpoints' lists in edge
        # order (a's entry first); self-edges never merge anything.
        n = graph.n_nodes
        edges = np.flatnonzero(self.edge_a != self.edge_b)
        ends = np.stack([self.edge_a[edges], self.edge_b[edges]], axis=1)
        order = np.argsort(ends.ravel(), kind="stable")
        node = ends.ravel()[order]
        other = ends[:, ::-1].ravel()[order]
        degree = np.bincount(node, minlength=n)
        max_deg = int(degree.max(initial=0)) or 1
        k = np.arange(node.size) - np.repeat(np.cumsum(degree) - degree, degree)
        # A padded slot points the node back at itself through the
        # always-inactive padding edge (index len(endpoints)).
        self.slot_node = np.repeat(
            np.arange(n, dtype=np.intp)[:, None], max_deg, axis=1
        )
        self.slot_edge = np.full((n, max_deg), len(endpoints), dtype=np.intp)
        self.slot_node[node, k] = other
        self.slot_edge[node, k] = np.repeat(edges, 2)[order]
