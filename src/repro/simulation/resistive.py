"""Batched resistive kernel: many small Laplacian solves, one LAPACK call per size.

Two switch-level questions end in a linear resistive network solve:

* a **contended component** — a group of connected nets that reaches
  both a 1 and a 0 boundary, for example through an injected short — is
  solved for its node voltages, which are then thresholded with the
  technology's ``vil``/``vih``
  (:meth:`~repro.simulation.solver.StaticSolver._solve_contention` is
  the scalar reference);
* a **drive-resistance query** — the effective resistance from a cell
  output to the rail it settled at, the switch-level stand-in for delay
  detection — holds the rail at 0 and injects a unit current at the
  output (:meth:`~repro.simulation.engine.CellSimulator._effective_resistance`
  is the scalar reference).

:func:`solve_resistive` solves a whole batch of such systems.  Each
system is described by an ordered edge list (endpoints and conductance
from per-topology tables, plus a per-system active flag), its component
membership, its held nodes with their values, and an optional node that
receives a unit current.  The free nodes (members that are not held)
are numbered in ascending node order, as both scalar references do.

Identity guarantee
------------------
Voltages are bitwise equal to the scalar references':

* every matrix and right-hand side is accumulated in exactly the scalar
  code's order — per edge, in edge order: diag a, diag b, off ab, off ba
  and the right-hand-side term.  ``np.add.at`` applies repeated indices
  in order, so every entry sums its terms in the scalar sequence; any
  regrouping would change float sums;
* systems are grouped by size and never padded to a common size
  (padding changes LAPACK's operation order).  Each size class is solved
  with one stacked ``np.linalg.solve``, which runs the same ``gesv`` on
  every matrix as a one-system call;
* a size class whose stacked solve raises ``LinAlgError`` is solved
  again one system at a time, so only a singular system itself is
  reported unsolved — the scalar references' outcome.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

#: systems per assembled chunk; bounds the per-edge index temporaries.
#: Chunking is invisible to the result (systems are independent).
_CHUNK_SYSTEMS = 1024
#: matrix entries per stacked ``np.linalg.solve`` call
_SOLVE_ELEMENTS = 1 << 16


def solve_resistive(
    edge_a: np.ndarray,
    edge_b: np.ndarray,
    edge_g: np.ndarray,
    sys_topo: np.ndarray,
    active: np.ndarray,
    member: np.ndarray,
    held: np.ndarray,
    held_val: Optional[np.ndarray] = None,
    source: Optional[np.ndarray] = None,
    order: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve a batch of resistive systems; returns ``(volts, solved)``.

    *edge_a*, *edge_b* and *edge_g* are ``(T, E)`` per-topology tables of
    edge endpoints and conductances; system ``s`` uses row
    ``sys_topo[s]``.  *active* is ``(S, E)``: the edges that conduct in
    each system.  Only active edges inside the system's component
    (*member*, ``(S, N)``) with distinct endpoints contribute, taken in
    the column order *order* (default: ascending columns).  *held*
    marks the nodes held at *held_val* (default 0); *source* names one
    node per system that receives a unit current.

    ``volts`` is ``(S, N)``: the solved voltage of every free node, NaN
    elsewhere.  ``solved[s]`` is False when system ``s`` is singular;
    its row is all NaN.
    """
    n_systems, n_nodes = member.shape
    volts = np.full((n_systems, n_nodes), np.nan)
    solved = np.ones(n_systems, dtype=bool)
    columns = np.arange(active.shape[1]) if order is None else order
    for lo in range(0, n_systems, _CHUNK_SYSTEMS):
        hi = min(n_systems, lo + _CHUNK_SYSTEMS)
        _solve_chunk(
            edge_a, edge_b, edge_g, sys_topo[lo:hi], active[lo:hi][:, columns],
            columns, member[lo:hi], held[lo:hi],
            None if held_val is None else held_val[lo:hi],
            None if source is None else source[lo:hi],
            volts[lo:hi], solved[lo:hi],
        )
    return volts, solved


def _solve_chunk(
    edge_a: np.ndarray,
    edge_b: np.ndarray,
    edge_g: np.ndarray,
    sys_topo: np.ndarray,
    active: np.ndarray,
    columns: np.ndarray,
    member: np.ndarray,
    held: np.ndarray,
    held_val: Optional[np.ndarray],
    source: Optional[np.ndarray],
    volts: np.ndarray,
    solved: np.ndarray,
) -> None:
    """Assemble and solve one chunk of systems into *volts*/*solved*.

    *active* is already in accumulation order: its column ``c`` is edge
    ``columns[c]``.
    """
    n_systems = member.shape[0]
    free = member & ~held
    size = free.sum(axis=1)
    pos = np.where(free, np.cumsum(free, axis=1) - 1, -1)
    # Size classes are laid out contiguously (stable by system), so each
    # class's matrices are one reshaped view of the flat buffer.
    by_size = np.argsort(size, kind="stable")
    sorted_size = size[by_size]
    mat_base = np.empty(n_systems, dtype=np.intp)
    vec_base = np.empty(n_systems, dtype=np.intp)
    squares = sorted_size * sorted_size
    mat_base[by_size] = np.cumsum(squares) - squares
    vec_base[by_size] = np.cumsum(sorted_size) - sorted_size
    matrix = np.zeros(int(squares.sum()))
    rhs = np.zeros(int(sorted_size.sum()))

    # Active in-component edges with distinct endpoints, system-major in
    # edge order: the scalar loops' sequence.
    sys_idx, col = np.nonzero(active)
    edge = columns[col]
    topo = sys_topo[sys_idx]
    a = edge_a[topo, edge]
    b = edge_b[topo, edge]
    keep = member[sys_idx, a] & (a != b)
    sys_idx, topo, edge, a, b = (
        sys_idx[keep], topo[keep], edge[keep], a[keep], b[keep]
    )
    g = edge_g[topo, edge]
    pa = pos[sys_idx, a]
    pb = pos[sys_idx, b]
    a_free = pa >= 0
    b_free = pb >= 0
    both = a_free & b_free
    n = size[sys_idx]
    base = mat_base[sys_idx]
    slots = np.stack(
        [base + pa * n + pa, base + pb * n + pb, base + pa * n + pb,
         base + pb * n + pa],
        axis=1,
    )
    terms = np.stack([g, g, -g, -g], axis=1)
    valid = np.stack([a_free, b_free, both, both], axis=1)
    # Row-major boolean selection keeps edge order with the four terms of
    # one edge interleaved: diag a, diag b, off ab, off ba.
    np.add.at(matrix, slots[valid], terms[valid])
    if held_val is not None:
        one_free = a_free ^ b_free
        vbase = vec_base[sys_idx]
        at = np.where(a_free, vbase + pa, vbase + pb)
        held_node = np.where(a_free, b, a)
        np.add.at(
            rhs, at[one_free],
            g[one_free] * held_val[sys_idx[one_free], held_node[one_free]],
        )
    if source is not None:
        src_pos = pos[np.arange(n_systems), source]
        fed = src_pos >= 0
        rhs[vec_base[fed] + src_pos[fed]] += 1.0

    # One stacked solve per size class (chunked); never padded.
    x = np.empty_like(rhs)
    starts = np.flatnonzero(np.diff(sorted_size, prepend=-1))
    stops = np.append(starts[1:], n_systems)
    for start, stop in zip(starts.tolist(), stops.tolist()):
        n_free = int(sorted_size[start])
        if n_free == 0:
            continue
        step = max(1, _SOLVE_ELEMENTS // (n_free * n_free))
        for lo in range(start, stop, step):
            hi = min(stop, lo + step)
            m0 = int(mat_base[by_size[lo]])
            v0 = int(vec_base[by_size[lo]])
            count = hi - lo
            mats = matrix[m0 : m0 + count * n_free * n_free].reshape(
                count, n_free, n_free
            )
            vecs = rhs[v0 : v0 + count * n_free].reshape(count, n_free)
            out = x[v0 : v0 + count * n_free].reshape(count, n_free)
            try:
                out[...] = np.linalg.solve(mats, vecs[..., None])[..., 0]
            except np.linalg.LinAlgError:
                for k in range(count):
                    try:
                        out[k] = np.linalg.solve(mats[k], vecs[k])
                    except np.linalg.LinAlgError:
                        out[k] = np.nan
                        solved[by_size[lo + k]] = False
    sys_f, node_f = np.nonzero(free)
    volts[sys_f, node_f] = x[vec_base[sys_f] + pos[sys_f, node_f]]
