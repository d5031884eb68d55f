"""The vectorized solver kernel: many phases of many solvers, one NumPy call.

:func:`solve_packed` is the one vectorized kernel behind every phase
solve of the generation flow — the golden pass, a cell's defect sweep,
a whole library — while the scalar
:meth:`~repro.simulation.solver.StaticSolver.solve` stays the reference
oracle.  It takes phase batches from one or many solvers (different
defects of one cell, different cells entirely) and runs them through a
single padded kernel, so the fixed per-call NumPy overhead is paid once
per call rather than once per (cell, defect) pair.

Mechanics
---------
Every distinct solver becomes one *topology slot*: its index arrays
(device gates, neighbour tables, fixed nodes, …) are padded to the
maximum node/device/degree count across the pack and stacked along a
leading slot axis.  Every requested phase becomes one *row* carrying the
slot index of its topology; per-step gathers (``stacked[topo_idx]``)
give each row its own graph.  Rows iterate together with per-row
convergence dropout, Bryant off/on envelopes as two sub-resolves,
min-label propagation for connected components, and one batched exact
Laplacian solve (:func:`~repro.simulation.resistive.solve_resistive`)
for the contended components of each resolve.  The same label
propagation and kernel answer batches of drive-resistance queries
(:func:`drive_resistances`).

Padding is inert by construction:

* one extra **scrap node** (shared column ``N-1``) absorbs the padded
  slots of source/seed scatter tables; it is isolated, unobservable, and
  pinned to ``X`` after initialization, so it can never delay a row's
  convergence;
* padded **device** columns read their gate from the row's ground rail
  and map ``0`` to OFF, so they never conduct and never go unknown;
* padded **fixed-node** columns alias the ground rail with value 0, so
  they re-assert a boundary fact that is already true.

Identity guarantee
------------------
``solve_packed(requests)[i][j]`` equals
``requests[i].solver.solve(requests[i].vectors[j], ...)`` exactly —
codes and retention flag: all logic-level work is integer, per-row
iteration counts match the scalar path, and contention (the only float
arithmetic) is solved bitwise equal to the scalar
:meth:`~repro.simulation.solver.StaticSolver._solve_contention`: the
kernel builds each component's system in that method's edge order
(device columns, then static edges) and thresholds it with its own
topology's ``vil``/``vih``.
Resolve rows are memoized in a :class:`ResolveMemo` that one
:func:`~repro.simulation.engine.solve_words_across` call shares across
its flushes.  A key is exact: the solver's identity, then its own
conduction bits and its own source bits, packed into 64-bit words
however wide the cell.  It does not depend on which other topologies
shared the pack, so a one-topology call and a mixed pack read and warm
the same entries.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.simulation.resistive import solve_resistive
from repro.simulation.solver import (
    CONTENDED,
    FLOAT,
    MAX_ITERATIONS,
    OFF,
    ON,
    UNKNOWN,
    SolveResult,
    StaticSolver,
    X,
)


#: padding-waste accounting of the packed kernel (registered in
#: repro.lint.catalog): total row×column slots each call allocates, and
#: how many of them are padding (rows shorter than the widest topology).
M_KERNEL_SLOTS = "throughput.kernel_slots"
M_PADDED_SLOTS = "throughput.padded_slots"


class PackedRequest(NamedTuple):
    """One solver's share of a packed kernel call."""

    solver: StaticSolver
    vectors: Sequence[Tuple[int, ...]]
    prevs: Optional[Sequence[Optional[Sequence[int]]]] = None


def _ragged_index(lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(owning slot, in-slot index) of every element of concatenated
    per-slot arrays of *lengths*."""
    slot = np.repeat(np.arange(lengths.size), lengths)
    position = np.arange(slot.size) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    return slot, position


class _PackedTopo:
    """Stacked, padded per-solver index arrays (one slot per solver).

    Shapes: ``S`` solvers, ``N`` node columns (max nodes + 1 scrap),
    ``D`` device columns, ``E = D + max_static + 1`` edge slots (device
    channels, then static edges, then one never-active padding edge).
    ``edge_a``/``edge_b``/``edge_g`` hold each edge slot's endpoints and
    conductance for the resistive kernel.  Every field is filled by one
    scatter of all solvers' concatenated arrays.
    """

    def __init__(self, solvers: Sequence[StaticSolver]):
        bas = [s._batch_arrays() for s in solvers]
        graphs = [s.graph for s in solvers]
        self.solvers = list(solvers)
        S = len(solvers)
        self.n_nodes = np.array([g.n_nodes for g in graphs], dtype=np.intp)
        self.n_devices = np.array([ba.n_devices for ba in bas], dtype=np.intp)
        self.n_inputs = np.array(
            [ba.source_nodes.size for ba in bas], dtype=np.intp
        )
        n_static = np.array([ba.n_static for ba in bas], dtype=np.intp)
        degree = np.array([ba.slot_node.shape[1] for ba in bas], dtype=np.intp)
        N = int(self.n_nodes.max()) + 1  # + scrap column
        D = int(self.n_devices.max())
        max_static = int(n_static.max())
        max_deg = int(degree.max())
        max_in = int(self.n_inputs.max())
        n_seed = np.array([ba.seed_pins.size for ba in bas], dtype=np.intp)
        self.N, self.D = N, D
        self.E = D + max_static + 1
        self.scrap = N - 1

        self.power = np.array([g.power for g in graphs], dtype=np.intp)
        self.ground = np.array([g.ground for g in graphs], dtype=np.intp)
        self.vil = np.array([s.vil for s in solvers], dtype=np.float64)
        self.vih = np.array([s.vih for s in solvers], dtype=np.float64)

        def joined(field: str) -> np.ndarray:
            return np.concatenate([getattr(ba, field) for ba in bas])

        # Devices: padded columns gate on the ground rail (always 0) and
        # map 0 -> OFF, so they never conduct and never go unknown.
        devices = _ragged_index(self.n_devices)
        self.dev_gate = np.repeat(self.ground[:, None], D, axis=1)
        self.dev_gate[devices] = joined("dev_gate")
        self.on_if_1 = np.full((S, D), OFF, dtype=np.int16)
        self.on_if_1[devices] = joined("on_if_1")
        self.on_if_0 = np.full((S, D), OFF, dtype=np.int16)
        self.on_if_0[devices] = joined("on_if_0")
        open_slot, _ = _ragged_index(
            np.array([ba.open_cols.size for ba in bas], dtype=np.intp)
        )
        self.is_open = np.zeros((S, D), dtype=bool)
        self.is_open[open_slot, joined("open_cols")] = True
        self.any_open = self.is_open.any(axis=1)
        self.observable = np.zeros((S, N), dtype=bool)
        self.observable[_ragged_index(self.n_nodes)] = joined("observable")
        self.src_nodes = np.full((S, max_in), self.scrap, dtype=np.intp)
        self.src_nodes[_ragged_index(self.n_inputs)] = joined("source_nodes")
        # Padded fixed columns re-assert ground = 0.
        self.fixed_nodes = np.repeat(self.ground[:, None], 2 + max_in, axis=1)
        self.fixed_nodes[_ragged_index(2 + self.n_inputs)] = joined("fixed_nodes")
        seeds = _ragged_index(n_seed)
        self.seed_pins = np.full((S, int(n_seed.max())), self.scrap, dtype=np.intp)
        self.seed_pins[seeds] = joined("seed_pins")
        self.seed_srcs = np.full((S, int(n_seed.max())), self.scrap, dtype=np.intp)
        self.seed_srcs[seeds] = joined("seed_srcs")
        self.static_active = np.arange(max_static) < n_static[:, None]

        # Edge endpoints and conductances in the packed edge space: devices
        # keep their column, static edge j goes to D + j; padded slots are
        # scrap self-edges, which never conduct.
        slot, position = _ragged_index(self.n_devices + n_static)
        own_devices = self.n_devices[slot]
        column = np.where(
            position < own_devices, position, position - own_devices + D
        )
        self.edge_a = np.full((S, self.E), self.scrap, dtype=np.intp)
        self.edge_b = np.full((S, self.E), self.scrap, dtype=np.intp)
        self.edge_g = np.zeros((S, self.E))
        self.edge_a[slot, column] = joined("edge_a")
        self.edge_b[slot, column] = joined("edge_b")
        self.edge_g[slot, column] = joined("edge_g")

        # Neighbour tables: a padded slot points the node back at itself
        # through the padding edge E - 1, and so does a solver's own
        # padding edge (index d + n_static).
        slot, position = _ragged_index(self.n_nodes * degree)
        node, k = np.divmod(position, degree[slot])
        edges = np.concatenate([ba.slot_edge.ravel() for ba in bas])
        own_devices = self.n_devices[slot]
        remapped = np.where(
            edges < own_devices,
            edges,
            np.where(
                edges < own_devices + n_static[slot],
                edges - own_devices + D,
                self.E - 1,
            ),
        )
        self.slot_node = np.repeat(
            np.repeat(np.arange(N)[None, :, None], S, axis=0), max_deg, axis=2
        )
        self.slot_edge = np.full((S, N, max_deg), self.E - 1, dtype=np.intp)
        self.slot_node[slot, node, k] = np.concatenate(
            [ba.slot_node.ravel() for ba in bas]
        )
        self.slot_edge[slot, node, k] = remapped

        # Resolve-memo key layout: a row's key bits are its solver's own
        # conduction columns, then its own source columns; every later bit
        # reads the all-zero column D + max_in of [conduction | sources | 0].
        bits = self.n_devices + self.n_inputs
        col = np.arange(int(bits.max()))[None, :]
        own = self.n_devices[:, None]
        self.key_cols = np.where(
            col < own, col, np.where(col < bits[:, None], D + col - own, D + max_in)
        )


def _edge_active(
    pk: _PackedTopo, conducting: np.ndarray, topo_idx: np.ndarray
) -> np.ndarray:
    """(batch, E) activity over the packed edge space: the conducting
    device columns, every static edge, never the padding edge."""
    return np.concatenate(
        [
            conducting,
            pk.static_active[topo_idx],
            np.zeros((conducting.shape[0], 1), dtype=bool),
        ],
        axis=1,
    )


def _component_labels(
    pk: _PackedTopo, edge_active: np.ndarray, topo_idx: np.ndarray
) -> np.ndarray:
    """Connected-component labels of every row's active edges.

    *edge_active* is a (batch, E) mask over the packed edge space.
    Components are found with min-label propagation over the padded
    per-node neighbour tables (gathers only — no scatter), with
    pointer-jumping compression; stability implies every active edge
    joins equal labels, i.e. labels are constant per component.  Every
    gather is a flat ``np.take`` into the raveled (batch, N) arrays, so
    row ``b``'s node ``i`` lives at ``b * N + i``.
    """
    batch = edge_active.shape[0]
    N = pk.N
    rows = np.arange(batch)
    offsets = (rows * N)[:, None]
    slots = pk.slot_edge[topo_idx]  # batch x N x deg
    slots += (rows * pk.E)[:, None, None]
    act_slots = np.take(edge_active, slots)
    # The neighbour table reuses that buffer.  An inactive slot points
    # back at its own node: a node's own label never lowers its minimum,
    # so the propagation needs no mask.
    neighbour = np.take(pk.slot_node, topo_idx, axis=0, out=slots)
    np.copyto(neighbour, np.arange(N)[:, None], where=~act_slots)
    neighbour += offsets[:, :, None]
    labels = np.broadcast_to(np.arange(N, dtype=np.int32), (batch, N))
    while True:
        new = np.minimum(labels, np.take(labels, neighbour).min(axis=2))
        new = np.take(new, new + offsets)  # pointer jumping
        if np.array_equal(new, labels):
            return labels
        labels = new


def _resolve_packed_rows(
    pk: _PackedTopo,
    conducting: np.ndarray,
    src_vals: np.ndarray,
    topo_idx: np.ndarray,
) -> np.ndarray:
    """Vectorized resolve of one unknown-extreme across topologies.

    *conducting* is a (batch, D) bool mask of channels treated as ON;
    static edges always conduct.  Components come from
    :func:`_component_labels`; a component reaching both a 1 and a 0
    boundary is contended and solved by :func:`_solve_contended`.
    """
    batch = conducting.shape[0]
    N = pk.N
    offsets = (np.arange(batch) * N)[:, None]
    edge_active = _edge_active(pk, conducting, topo_idx)
    labels = _component_labels(pk, edge_active, topo_idx)

    # Boundary facts per component root: padded fixed columns alias the
    # ground rail with value 0; padded sources carry 0 as well.
    fnodes = pk.fixed_nodes[topo_idx]  # batch x max_fixed
    fixed_vals = np.zeros(fnodes.shape, dtype=np.int16)
    fixed_vals[:, 0] = 1  # power rail
    fixed_vals[:, 2:] = src_vals
    roots = np.take(labels, fnodes + offsets) + offsets
    has1 = np.zeros(batch * N, dtype=bool)
    has0 = np.zeros(batch * N, dtype=bool)
    has1[roots[fixed_vals == 1]] = True
    has0[roots[fixed_vals == 0]] = True
    flat_labels = labels + offsets
    root1 = has1[flat_labels]
    root0 = has0[flat_labels]
    result = np.where(
        root1 & root0,
        CONTENDED,
        np.where(root1, 1, np.where(root0, 0, FLOAT)),
    ).astype(np.int16)

    contended = np.unique(flat_labels[result == CONTENDED])
    if contended.size:
        _solve_contended(
            pk, contended, labels, edge_active, fnodes, fixed_vals, topo_idx,
            result,
        )
    return result


def _solve_contended(
    pk: _PackedTopo,
    keys: np.ndarray,
    labels: np.ndarray,
    edge_active: np.ndarray,
    fnodes: np.ndarray,
    fixed_vals: np.ndarray,
    topo_idx: np.ndarray,
    result: np.ndarray,
) -> None:
    """Exact resistive solve of every contended component, in place.

    *keys* are the contended ``row * N + root`` pairs; each is one
    system of :func:`~repro.simulation.resistive.solve_resistive`: the
    row's device columns then static edges (the order of
    :meth:`StaticSolver._solve_contention`), held at the row's fixed
    nodes *fnodes* with values *fixed_vals*, thresholded with that
    topology's own ``vil``/``vih``.
    """
    rows, roots = np.divmod(keys, pk.N)
    systems = np.arange(keys.size)[:, None]
    topo = topo_idx[rows]
    member = labels[rows] == roots[:, None]
    held = np.zeros(member.shape, dtype=bool)
    held_val = np.zeros(member.shape, dtype=np.int16)
    held[systems, fnodes[rows]] = True
    held_val[systems, fnodes[rows]] = fixed_vals[rows]
    volts, _solved = solve_resistive(
        pk.edge_a, pk.edge_b, pk.edge_g, topo, edge_active[rows], member,
        held, held_val,
    )
    # A singular system's NaN voltages compare false both ways: X.
    codes = np.where(
        volts >= pk.vih[topo][:, None],
        1,
        np.where(volts <= pk.vil[topo][:, None], 0, X),
    )
    sys_f, node_f = np.nonzero(member & ~held)
    result[rows[sys_f], node_f] = codes[sys_f, node_f]
    sys_h, node_h = np.nonzero(member & held)
    result[rows[sys_h], node_h] = held_val[sys_h, node_h]


#: one drive-resistance system: the solver, the output node, the rail it
#: settled at, and the word's (initial, final) solved codes
DriveRequest = Tuple[StaticSolver, int, int, Sequence[int], Sequence[int]]

#: drive queries per chunk: bounds the per-query gathers and the
#: (queries x nodes x degree) neighbour tables of label propagation, so a
#: large cell's drive batch stays below a resolve call's footprint
_DRIVE_CHUNK = 512


def drive_resistances(requests: Sequence[DriveRequest]) -> List[float]:
    """Effective output-to-rail resistance of many queries at once.

    Element ``i`` equals ``CellSimulator._effective_resistance(output,
    rail, codes1, codes2)`` of ``requests[i]`` bitwise: the final
    phase's conducting edges (a gate-open device reads the initial
    phase) are labelled into components like a resolve, every query
    whose rail shares the output's component becomes one system of
    :func:`~repro.simulation.resistive.solve_resistive` — static edges
    first, then devices, as ``_conducting_edges`` orders them, the rail
    held at 0 and a unit current into the output — and the output's
    voltage is the resistance.  Unreachable and singular queries read
    ``inf``.
    """
    if not requests:
        return []
    solvers: List[StaticSolver] = []
    slot_of = {}
    for solver, *_rest in requests:
        if id(solver) not in slot_of:
            slot_of[id(solver)] = len(solvers)
            solvers.append(solver)
    pk = _PackedTopo(solvers)
    # A query is a function of (topology, output, rail, conduction), and
    # the words sharing a final vector share it: solve each one once.
    key = np.empty((len(requests), 3 + pk.D), dtype=np.int32)
    key[:, 0] = [slot_of[id(r[0])] for r in requests]
    key[:, 1] = [r[1] for r in requests]
    key[:, 2] = [r[2] for r in requests]
    for lo in range(0, len(requests), _DRIVE_CHUNK):
        chunk = key[lo : lo + _DRIVE_CHUNK]
        chunk[:, 3:] = _drive_conduction(
            pk, requests[lo : lo + _DRIVE_CHUNK], chunk[:, 0]
        )
    # Rows compared as raw bytes: far cheaper than unique(axis=0).
    width = key.shape[1]
    distinct, inverse = np.unique(
        key.view(np.dtype((np.void, key.itemsize * width))).ravel(),
        return_inverse=True,
    )
    del key
    distinct = distinct.view(np.int32).reshape(-1, width)
    resistance = np.empty(distinct.shape[0])
    for lo in range(0, distinct.shape[0], _DRIVE_CHUNK):
        resistance[lo : lo + _DRIVE_CHUNK] = _drive_systems(
            pk, distinct[lo : lo + _DRIVE_CHUNK]
        )
    return resistance[inverse].tolist()


def _drive_conduction(
    pk: _PackedTopo, requests: Sequence[DriveRequest], topo_idx: np.ndarray
) -> np.ndarray:
    """(queries, D) device conduction in each query's final phase."""
    rows = np.arange(len(requests))
    codes1 = np.full((rows.size, pk.N), X, dtype=np.int16)
    codes2 = np.full((rows.size, pk.N), X, dtype=np.int16)
    widths = pk.n_nodes[topo_idx]
    for width in set(widths.tolist()):  # one per cell of the batch
        at = np.flatnonzero(widths == width).tolist()
        codes1[at, :width] = [requests[q][3] for q in at]
        codes2[at, :width] = [requests[q][4] for q in at]
    dev_gate = pk.dev_gate[topo_idx]
    gate_vals = np.where(
        pk.is_open[topo_idx],
        codes1[rows[:, None], dev_gate],
        codes2[rows[:, None], dev_gate],
    )
    return ((gate_vals == 1) & (pk.on_if_1[topo_idx] == ON)) | (
        (gate_vals == 0) & (pk.on_if_0[topo_idx] == ON)
    )


def _drive_systems(pk: _PackedTopo, key: np.ndarray) -> np.ndarray:
    """Resistances of distinct queries, one key row each: (topology,
    output, rail, device conduction...)."""
    topo_idx = key[:, 0].astype(np.intp)
    output = key[:, 1].astype(np.intp)
    rail = key[:, 2].astype(np.intp)
    rows = np.arange(key.shape[0])
    edge_active = _edge_active(pk, key[:, 3:].astype(bool), topo_idx)
    labels = _component_labels(pk, edge_active, topo_idx)
    out_label = labels[rows, output]
    systems = np.flatnonzero(labels[rows, rail] == out_label)
    resistance = np.full(rows.size, np.inf)
    if systems.size:
        member = labels[systems] == out_label[systems, None]
        held = np.zeros(member.shape, dtype=bool)
        held[np.arange(systems.size), rail[systems]] = True
        order = np.concatenate(
            [np.arange(pk.D, pk.E - 1), np.arange(pk.D)]
        )  # static edges, then devices
        volts, solved = solve_resistive(
            pk.edge_a, pk.edge_b, pk.edge_g, topo_idx[systems],
            edge_active[systems], member, held,
            source=output[systems], order=order,
        )
        at_output = volts[np.arange(systems.size), output[systems]]
        resistance[systems] = np.where(solved, at_output, np.inf)
    return resistance


def _void(width: int) -> np.dtype:
    """Raw-bytes scalars of *width* bytes: compared and sorted bytewise."""
    return np.dtype((np.void, width))


class ResolveMemo:
    """Resolve rows keyed exactly on (solver, conduction bits, source bits).

    A resolve row is a pure function of its solver and (conduction mask,
    source values); the fixpoint and the Bryant envelopes revisit the
    same pair constantly.  A key is one 64-bit word of solver identity
    (numbered on first sight; the memo holds every solver it numbered,
    so identities cannot be recycled), then the solver's own conduction
    bits followed by its own source bits, packed into as many 64-bit
    words as the widest key needs.  The keys sit sorted, compared as raw
    bytes, beside the row each one maps to; rows store FLOAT past their
    own nodes, as a resolve leaves padded columns.
    """

    def __init__(self) -> None:
        self._number: Dict[int, int] = {}
        self._solvers: List[StaticSolver] = []
        self._keys = np.zeros((0, 8), dtype=np.uint8).view(_void(8)).ravel()
        self._slot = np.zeros(0, dtype=np.intp)  # key -> row of _rows
        self._rows = np.zeros((0, 0), dtype=np.int16)
        self._size = 0

    def identities(self, solvers: Sequence[StaticSolver]) -> np.ndarray:
        """The memo's number of each solver, as 8 little-endian bytes."""
        for solver in solvers:
            if id(solver) not in self._number:
                self._number[id(solver)] = len(self._solvers)
                self._solvers.append(solver)
        numbers = np.array(
            [self._number[id(solver)] for solver in solvers], dtype="<u8"
        )
        return numbers.view(np.uint8).reshape(-1, 8)

    def keys(
        self,
        pk: _PackedTopo,
        identities: np.ndarray,
        conducting: np.ndarray,
        src_vals: np.ndarray,
        topo_idx: np.ndarray,
    ) -> np.ndarray:
        """Each row's exact key as one raw-bytes scalar."""
        batch = conducting.shape[0]
        columns = np.concatenate(
            [conducting, src_vals != 0, np.zeros((batch, 1), dtype=bool)],
            axis=1,
        )
        bits = np.take_along_axis(columns, pk.key_cols[topo_idx], axis=1)
        words = -(-bits.shape[1] // 64)
        key = np.zeros((batch, 8 * (1 + words)), dtype=np.uint8)
        key[:, :8] = identities[topo_idx]
        packed = np.packbits(bits, axis=1, bitorder="little")
        key[:, 8 : 8 + packed.shape[1]] = packed
        width = max(key.shape[1], self._keys.dtype.itemsize)
        if key.shape[1] < width:
            key = np.pad(key, ((0, 0), (0, width - key.shape[1])))
        elif self._keys.dtype.itemsize < width:
            # Zero words appended to every key keep the sorted order.
            old = self._keys.dtype.itemsize
            grown = np.zeros((self._keys.size, width), dtype=np.uint8)
            grown[:, :old] = self._keys.view(np.uint8).reshape(-1, old)
            self._keys = grown.view(_void(width)).ravel()
        return key.view(_void(width)).ravel()

    def find(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(found mask, memo row of every found key)."""
        at = np.searchsorted(self._keys, keys)
        at[at == self._keys.size] = 0
        found = (
            self._keys[at] == keys if self._keys.size
            else np.zeros(keys.size, dtype=bool)
        )
        return found, self._slot[at[found]]

    def rows(self, slots: np.ndarray, width: int) -> np.ndarray:
        """Stored rows, cut or FLOAT-padded to *width* columns."""
        out = np.full((slots.size, width), FLOAT, dtype=np.int16)
        keep = min(width, self._rows.shape[1])
        out[:, :keep] = self._rows[slots, :keep]
        return out

    def insert(self, keys: np.ndarray, rows: np.ndarray) -> None:
        """Add sorted, distinct, absent *keys* with their resolve *rows*."""
        stop = self._size + keys.size
        width = max(self._rows.shape[1], rows.shape[1])
        if stop > self._rows.shape[0] or width > self._rows.shape[1]:
            grown = np.full(
                (max(stop, 2 * self._rows.shape[0]), width), FLOAT,
                dtype=np.int16,
            )
            grown[: self._size, : self._rows.shape[1]] = self._rows[: self._size]
            self._rows = grown
        self._rows[self._size : stop, : rows.shape[1]] = rows
        at = np.searchsorted(self._keys, keys)
        self._keys = np.insert(self._keys, at, keys)
        self._slot = np.insert(
            self._slot, at, np.arange(self._size, stop, dtype=np.intp)
        )
        self._size = stop


#: resolve rows per label propagation: bounds its (rows x nodes x degree)
#: neighbour tables, so resolving both Bryant envelopes of a step in one
#: memoized call needs no larger buffers than resolving them apart
_RESOLVE_CHUNK = 2048


def _resolve_packed(
    pk: _PackedTopo,
    conducting: np.ndarray,
    src_vals: np.ndarray,
    topo_idx: np.ndarray,
    memo: ResolveMemo,
    identities: np.ndarray,
) -> np.ndarray:
    """Memoizing wrapper over :func:`_resolve_packed_rows`.

    Every row's exact key is built at once and looked up in *memo*
    (*identities* holds the memo's number of each slot's solver); the
    distinct misses alone go through the vectorized computation, at most
    :data:`_RESOLVE_CHUNK` rows at a time, and join the memo in one
    insert.
    """
    keys = memo.keys(pk, identities, conducting, src_vals, topo_idx)
    found, slots = memo.find(keys)
    result = np.empty((keys.size, pk.N), dtype=np.int16)
    result[found] = memo.rows(slots, pk.N)
    misses = np.flatnonzero(~found)
    if misses.size:
        distinct, first, inverse = np.unique(
            keys[misses], return_index=True, return_inverse=True
        )
        rows = misses[first]
        solved = np.empty((rows.size, pk.N), dtype=np.int16)
        for lo in range(0, rows.size, _RESOLVE_CHUNK):
            chunk = rows[lo : lo + _RESOLVE_CHUNK]
            solved[lo : lo + _RESOLVE_CHUNK] = _resolve_packed_rows(
                pk, conducting[chunk], src_vals[chunk], topo_idx[chunk]
            )
        result[misses] = solved[inverse]
        memo.insert(distinct, solved)
    return result


def _step_packed(
    pk: _PackedTopo,
    codes: np.ndarray,
    prev: np.ndarray,
    has_prev: np.ndarray,
    src_vals: np.ndarray,
    topo_idx: np.ndarray,
    memo: ResolveMemo,
    identities: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """One packed fixpoint step (vectorized ``StaticSolver._step``)."""
    batch = codes.shape[0]
    rows = np.arange(batch)
    if pk.D:
        dev_gate = pk.dev_gate[topo_idx]  # batch x D
        gate_vals = codes[rows[:, None], dev_gate]
        is_open = pk.is_open[topo_idx]
        if pk.any_open.any():
            gate_vals = np.where(
                is_open, prev[rows[:, None], dev_gate], gate_vals
            )
        conduction = np.where(
            gate_vals == 1,
            pk.on_if_1[topo_idx],
            np.where(gate_vals == 0, pk.on_if_0[topo_idx], UNKNOWN),
        )
        if pk.any_open.any() and not has_prev.all():
            # A gate-open device with no history is non-conducting.
            conduction = np.where(
                is_open & ~has_prev[:, None], OFF, conduction
            )
    else:  # pragma: no cover - degenerate (no devices anywhere)
        conduction = np.zeros((batch, 0), dtype=np.int16)

    # The Bryant envelopes: every row with unknown devices off, and the
    # rows that have any with them on, resolved in one memoized call.
    sub = np.flatnonzero((conduction == UNKNOWN).any(axis=1))
    resolved = _resolve_packed(
        pk,
        np.concatenate([conduction == ON, conduction[sub] != OFF]),
        np.concatenate([src_vals, src_vals[sub]]),
        np.concatenate([topo_idx, topo_idx[sub]]),
        memo,
        identities,
    )
    res_off = resolved[:batch]
    res_on = res_off
    if sub.size:
        res_on = res_off.copy()
        res_on[sub] = resolved[batch:]

    retained = np.where((prev == 0) | (prev == 1), prev, X)
    float_off = res_off == FLOAT
    float_on = res_on == FLOAT
    agree = res_off == res_on
    one_float = float_off ^ float_on
    driven = np.where(float_off, res_on, res_off)
    combined = np.where(
        agree,
        np.where(float_off, retained, res_off),
        np.where(one_float, np.where(driven == retained, driven, X), X),
    ).astype(np.int16, copy=False)
    observable = pk.observable[topo_idx]
    retention = ((float_off | float_on) & observable).any(axis=1)
    return combined, retention


def solve_packed(
    requests: Sequence[PackedRequest],
    memo: Optional[ResolveMemo] = None,
) -> List[List[SolveResult]]:
    """Solve every request's phases in one padded multi-topology kernel.

    Element ``[i][j]`` equals
    ``requests[i].solver.solve(requests[i].vectors[j], prevs[j])``
    exactly (codes and retention flag).  Solvers may repeat across
    requests; each distinct solver occupies one topology slot.  Input
    values are 0 or 1.  Resolve rows are read from and added to *memo*
    (a fresh one when None).
    """
    requests = [r for r in requests if len(r.vectors)]
    if not requests:
        return []
    solvers: List[StaticSolver] = []
    slot_of = {}
    for req in requests:
        if id(req.solver) not in slot_of:
            slot_of[id(req.solver)] = len(solvers)
            solvers.append(req.solver)
    pk = _PackedTopo(solvers)
    N = pk.N

    counts = [len(r.vectors) for r in requests]
    batch = sum(counts)
    topo_idx = np.empty(batch, dtype=np.intp)
    max_in = pk.src_nodes.shape[1]
    src_vals = np.zeros((batch, max_in), dtype=np.int16)
    prev = np.full((batch, N), X, dtype=np.int16)
    has_prev = np.zeros(batch, dtype=bool)
    offset = 0
    for req in requests:
        t = slot_of[id(req.solver)]
        graph = req.solver.graph
        n_in = len(graph.source_nodes)
        vals = np.asarray(req.vectors, dtype=np.int16)
        if vals.ndim != 2 or vals.shape[1] != n_in:
            raise ValueError(
                f"expected {n_in} input values per vector for "
                f"{graph.cell.name}"
            )
        stop = offset + len(req.vectors)
        topo_idx[offset:stop] = t
        src_vals[offset:stop, :n_in] = vals
        if req.prevs is not None:
            for i, p in enumerate(req.prevs):
                if p is not None:
                    prev[offset + i, : len(p)] = np.asarray(p, dtype=np.int16)
                    has_prev[offset + i] = True
        offset = stop
    if ((src_vals != 0) & (src_vals != 1)).any():
        raise ValueError("packed input values must be 0 or 1")
    memo = memo if memo is not None else ResolveMemo()
    identities = memo.identities(solvers)

    rows = np.arange(batch)
    codes = np.full((batch, N), X, dtype=np.int16)
    codes[rows, pk.power[topo_idx]] = 1
    codes[rows, pk.ground[topo_idx]] = 0
    codes[rows[:, None], pk.src_nodes[topo_idx]] = src_vals
    if pk.seed_pins.shape[1]:
        seed_pins = pk.seed_pins[topo_idx]
        seed_srcs = pk.seed_srcs[topo_idx]
        codes[rows[:, None], seed_pins] = codes[rows[:, None], seed_srcs]
    # The scrap column absorbed every padded scatter slot; pin it back to
    # X so it can never perturb a row's convergence count.
    codes[:, pk.scrap] = X

    flat: List[Optional[SolveResult]] = [None] * batch
    n_of_row = pk.n_nodes[topo_idx]
    # Padding waste of this call: every row spans N columns, but only
    # its own topology's nodes do real work (the inspect `cache` report
    # reads these to quantify mixed-size-library packing overhead).
    obs.metrics().inc(M_KERNEL_SLOTS, float(batch * N))
    obs.metrics().inc(M_PADDED_SLOTS, float(batch * N - int(n_of_row.sum())))
    widths = n_of_row.tolist()
    active = rows.copy()
    for _ in range(MAX_ITERATIONS):
        new_codes, retention = _step_packed(
            pk,
            codes[active],
            prev[active],
            has_prev[active],
            src_vals[active],
            topo_idx[active],
            memo,
            identities,
        )
        converged = (new_codes == codes[active]).all(axis=1)
        for g, row, used in zip(
            active[converged].tolist(),
            new_codes[converged].tolist(),
            retention[converged].tolist(),
        ):
            flat[g] = SolveResult(row[: widths[g]], used)
        codes[active] = new_codes
        active = active[~converged]
        if active.size == 0:
            break
    if active.size:
        # Non-convergence (defect-induced feedback): one more step,
        # anything still changing is unknown — mirrors the scalar path.
        final, _ = _step_packed(
            pk,
            codes[active],
            prev[active],
            has_prev[active],
            src_vals[active],
            topo_idx[active],
            memo,
            identities,
        )
        merged = np.where(codes[active] == final, codes[active], X)
        for g, row in zip(active.tolist(), merged.tolist()):
            flat[g] = SolveResult(row[: widths[g]], True)

    out: List[List[SolveResult]] = []
    offset = 0
    for count in counts:
        out.append(flat[offset : offset + count])  # type: ignore[arg-type]
        offset += count
    return out
