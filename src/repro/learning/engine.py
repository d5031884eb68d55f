"""Fused Random Forest growth and fused multi-tree inference.

The learning stack is the hybrid flow's hot path once the simulator is
vectorized: ``leave_one_out`` / ``grid_search`` / ``HybridFlow`` train
dozens to hundreds of Random Forests per run.  This module grows and
evaluates every tree of a forest together:

* :func:`grow_forest` grows all ``n_estimators`` trees of a forest as
  one level-synchronous frontier.  A row of the frontier is a ``(tree,
  distinct bootstrap row)`` pair weighted by its bootstrap multiplicity,
  so no bootstrap copy of ``X`` is made and a duplicated row is
  histogrammed once.  Each level evaluates best-split histograms for
  the open nodes of *every* tree in one pass: ``(node, candidate slot,
  class, feature value)`` is encoded into one flat index, every per-node
  per-feature class histogram falls out of one weighted ``np.bincount``
  plus a segmented cumulative sum (the LightGBM histogram trick, exact
  here because CA-matrix features are small integer codes), and a level
  is chunked so ``rows x candidate slots`` stays near one tree's root
  level.  Child ids, heap keys and the DFS-preorder renumbering come
  from per-level arrays (subtree sizes bottom-up, preorder offsets
  top-down), never from a per-node Python loop.
  ``DecisionTreeClassifier.fit`` is a one-tree call with unit weights.

* :class:`PackedForest` packs every estimator's flattened node arrays
  into one offset-indexed structure and runs a single level-synchronous
  descent over all ``(sample, tree)`` lanes with active-lane
  compaction, replacing the per-tree Python loop (kept as the oracle
  ``repro.learning.forest.predict_proba_per_tree``).  Per-tree vote dispersion —
  the confidence signal for uncertainty-gated routing — comes out of
  the same descent for free.

Grown forests are **byte-identical** to the depth-first reference
(``repro.learning.tree.fit_depth_first`` on each bootstrap copy):
same features, thresholds, counts and DFS-preorder node numbering
(``tests/test_learning_engine.py`` enforces it differentially).  That
rests on four facts:

* the candidate-feature subset of a node is drawn from a *per-node*
  generator seeded by ``(tree seed, heap path key)``
  (:func:`candidate_features`), so the subsets do not depend on the
  order nodes are visited in.  :func:`batched_candidate_features`
  reproduces those draws for a whole level at once by emulating
  ``np.random.default_rng((seed, key)).choice(n, k, replace=False)``
  exactly (SeedSequence hashing, PCG64 seeding and XSL-RR output,
  buffered 32-bit draws, Lemire bounded integers, Floyd sampling and the
  Fisher–Yates shuffle ``choice`` applies).  The two kinds of lane it
  cannot reproduce — a heap key of 2**64 or more, whose entropy
  overflows the 4-word pool, and a Lemire rejection — are drawn by
  :func:`candidate_features` itself;
* weighted ``bincount`` counts are integer-valued float64, the same
  values the reference's integer counts convert to;
* one forest-wide column shift replaces the reference's per-bootstrap
  (per-node) minimum: positions below a tree's own minimum or above its
  maximum leave one side empty and are invalid, so the first minimum,
  its ties and its threshold are unchanged;
* a tree's classes are the forest classes with non-zero bootstrap
  weight; absent classes contribute exact zeros to every Gini sum
  (classes are summed strictly in order, :func:`sum_over_classes`) and are
  sliced out of the tree's counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs

# ----------------------------------------------------------------------
# Metric names (repro.obs registry; see repro.lint.catalog)
# ----------------------------------------------------------------------
#: histogram — wall seconds of one RandomForestClassifier.fit call
M_FIT_SECONDS = "learning.fit.seconds"
#: counter — frontier nodes processed by the level-synchronous builder
M_FRONTIER_NODES = "learning.frontier_nodes"
#: counter — (sample, tree) lanes descended by the packed forest
M_PACKED_LANES = "learning.packed_lanes"

#: cap on one chunk's histogram tensor (elements): open nodes are
#: chunked so ``nodes * slots * classes * values`` stays below this
_HISTOGRAM_BUDGET = 1 << 22
#: cap on one chunk's ``(row, candidate slot)`` gather (elements), about
#: one tree's root level on the hybrid flow's largest groups; it bounds
#: the level's temporaries, so fusing trees does not raise peak memory.
#: Chunking is invisible to the result (nodes are independent).
_CHUNK_ELEMENTS = 1 << 17
#: open nodes below which a level draws candidate subsets node by node:
#: measured crossover of the batched draw's fixed cost (~0.3-0.6 ms)
#: against ~35 us per ``default_rng(...).choice`` call, for 9-49
#: candidates out of 18-99 features
_BATCH_MIN_LANES = 16

def candidate_features(
    base_seed: int, path_key: int, n_features: int, n_candidates: int
) -> np.ndarray:
    """Candidate feature subset of one node, independent of growth order.

    ``path_key`` is the node's heap path (root 1, left ``2k``, right
    ``2k + 1``), so the draw depends only on the node's position in the
    tree — every engine sees identical subsets.  The subset keeps the
    generator's draw order (ties between equally good features resolve
    toward the earlier candidate, exactly like the reference's
    sequential strict-less-than scan).
    """
    if n_candidates >= n_features:
        return np.arange(n_features)
    rng = np.random.default_rng((base_seed, path_key))
    return rng.choice(n_features, size=n_candidates, replace=False)


# ----------------------------------------------------------------------
# Batched candidate draw: default_rng((seed, key)).choice for many lanes
# ----------------------------------------------------------------------
_MASK32 = 0xFFFFFFFF
# numpy/random/bit_generator.pyx (SeedSequence)
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_L = np.uint32(0xCA01F9DD)
_SS_MIX_R = np.uint32(0x4973F715)
# numpy/random/src/pcg64 (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before each of *count* hash calls, then after
    the last (a column, to broadcast over lanes)."""
    out = [init]
    for _ in range(count):
        out.append((out[-1] * mult) & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


#: 4 entropy hashes + 12 pool cross-mixes; 8 state words
_HASH_A = _hash_constants(_SS_INIT_A, _SS_MULT_A, 16)
_HASH_B = _hash_constants(_SS_INIT_B, _SS_MULT_B, 8)


def _split_u64(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    return values & _MASK32, values >> np.uint64(32)


@lru_cache(maxsize=None)
def _pcg_powers(n_outputs: int) -> Tuple[np.ndarray, ...]:
    """``M**e`` and ``1 + M + ... + M**(e-1)`` (mod 2**128) for e = 2..n+1.

    After seeding with state ``s`` and increment ``inc``, PCG64's t-th
    output state is ``M**(t+1) * (s + inc) + C_(t+1) * inc``.  Returned
    as (power hi, power lo, sum hi, sum lo) uint64 rows.
    """
    halves: List[List[int]] = [[], [], [], []]
    power, total = _PCG_MULT, 1
    for _ in range(n_outputs):
        total = (total + power) & _MASK128
        power = (power * _PCG_MULT) & _MASK128
        for row, value in zip(halves, (power >> 64, power, total >> 64, total)):
            row.append(value & ((1 << 64) - 1))
    return tuple(np.array(row, dtype=np.uint64) for row in halves)


def _mul128_outer(
    x_hi: np.ndarray, x_lo: np.ndarray, a_hi: np.ndarray, a_lo: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``x[lane] * a[step]`` mod 2**128 as (hi, lo) uint64 (lanes, steps)."""
    x0, x1 = (half[:, None] for half in _split_u64(x_lo))
    a0, a1 = _split_u64(a_lo)
    p00, p01, p10 = x0 * a0, x0 * a1, x1 * a0
    mask, shift = np.uint64(_MASK32), np.uint64(32)
    mid = (p00 >> shift) + (p01 & mask) + (p10 & mask)
    lo = (p00 & mask) | (mid << shift)
    hi = (
        x1 * a1
        + (p01 >> shift)
        + (p10 >> shift)
        + (mid >> shift)
        + x_lo[:, None] * a_hi
        + x_hi[:, None] * a_lo
    )
    return hi, lo


def _pcg64_words(
    seeds: np.ndarray, keys: np.ndarray, n_outputs: int
) -> np.ndarray:
    """The first ``2 * n_outputs`` 32-bit draws of ``default_rng((seed, key))``.

    *seeds* and *keys* are uint64 lanes; together their 32-bit words must
    fit SeedSequence's 4-word pool (any key below 2**64 does).
    """
    seed_lo, seed_hi = (half.astype(np.uint32) for half in _split_u64(seeds))
    key_lo, key_hi = (half.astype(np.uint32) for half in _split_u64(keys))
    # SeedSequence entropy: the seed's words, then the key's, padded
    # with zero words (which hash exactly like the missing ones).
    wide_seed = seed_hi != 0
    entropy = np.stack(
        [
            seed_lo,
            np.where(wide_seed, seed_hi, key_lo),
            np.where(wide_seed, key_lo, key_hi),
            np.where(wide_seed, key_hi, np.uint32(0)),
        ]
    )
    sixteen = np.uint32(16)

    def hashmix(value: np.ndarray, call: int, n: int) -> np.ndarray:
        value = (value ^ _HASH_A[call : call + n]) * _HASH_A[call + 1 : call + n + 1]
        return value ^ (value >> sixteen)

    pool = hashmix(entropy, 0, 4)
    call = 4
    for src in range(4):
        # the three cross-mixes of one source word are independent
        dst = [d for d in range(4) if d != src]
        mixed = _SS_MIX_L * pool[dst] - _SS_MIX_R * hashmix(pool[src], call, 3)
        pool[dst] = mixed ^ (mixed >> sixteen)
        call += 3
    state = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _HASH_B[:8]) * _HASH_B[1:9]
    state = (state ^ (state >> sixteen)).astype(np.uint64)
    v = state[0::2] | (state[1::2] << np.uint64(32))
    # PCG64 seeding: state = v0:v1, increment = (v2:v3 << 1) | 1
    one = np.uint64(1)
    inc_hi = (v[2] << one) | (v[3] >> np.uint64(63))
    inc_lo = (v[3] << one) | one
    u_lo = v[1] + inc_lo
    u_hi = v[0] + inc_hi + (u_lo < v[1])
    p_hi, p_lo, c_hi, c_lo = _pcg_powers(n_outputs)
    h1, l1 = _mul128_outer(u_hi, u_lo, p_hi, p_lo)
    h2, l2 = _mul128_outer(inc_hi, inc_lo, c_hi, c_lo)
    lo = l1 + l2
    hi = h1 + h2 + (lo < l1)
    # XSL-RR output; each 64-bit output feeds two 32-bit draws, low half
    # first
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return out.astype("<u8", copy=False).view("<u4")


def _floyd(draws: np.ndarray, first: int) -> np.ndarray:
    """Floyd's sampling: step s keeps ``draws[:, s]`` (from ``[0, first+s]``)
    unless an earlier step already took it, in which case it takes
    ``first + s``.

    An earlier step took ``v`` if it drew ``v``, or if ``v`` is step
    ``t``'s own ``first + t`` and step ``t`` was taken — a chain to
    strictly earlier steps, resolved by pointer doubling (log2 k rounds)
    instead of step by step.
    """
    n_lanes, k = draws.shape
    size = n_lanes * k
    flat = draws.reshape(-1)
    step = np.tile(np.arange(k), n_lanes)
    lane = np.repeat(np.arange(n_lanes), k)
    # a repeat of an earlier draw of the same lane; slot ``size`` is a
    # sentinel that is never taken
    cell = lane * (first + k) + flat
    first_step = np.full(n_lanes * (first + k), k)
    np.minimum.at(first_step, cell, step)
    taken = np.append(first_step.take(cell) < step, False)
    lane_base = lane * k
    own_step = flat - first
    chained = (own_step >= 0) & (own_step < step)
    if chained.any():
        link = np.append(np.where(chained, lane_base + own_step, size), size)
        while (link[:size] != size).any():
            taken |= taken.take(link)
            link = link.take(link)
    return np.where(taken[:size], first + step, flat).reshape(n_lanes, k)


def _fisher_yates(picks: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """``Generator``'s in-place shuffle: for i = k-1 .. 1 swap slots i and
    ``draws[:, k-1-i]``, on every lane at once."""
    n_lanes, k = picks.shape
    slots = np.ascontiguousarray(picks.T)  # slot-major: one row per slot
    cells = slots.reshape(-1)
    targets = draws.T * n_lanes + np.arange(n_lanes)
    for step, i in enumerate(range(k - 1, 0, -1)):
        row = slice(i * n_lanes, (i + 1) * n_lanes)
        swapped = cells.take(targets[step])
        cells.put(targets[step], cells[row])
        cells[row] = swapped
    return slots.T


def batched_candidate_features(
    base_seeds: np.ndarray,
    path_keys: np.ndarray,
    n_features: int,
    n_candidates: int,
) -> np.ndarray:
    """:func:`candidate_features` for many ``(seed, key)`` lanes, row for row.

    Row ``i`` equals ``candidate_features(base_seeds[i], path_keys[i],
    n_features, n_candidates)``.  Seeds must be below 2**64; keys are
    positive integers (an object array once they pass 2**64).
    """
    keys = np.asarray(path_keys)
    n_lanes = len(keys)
    if n_candidates >= n_features:
        return np.tile(np.arange(n_features), (n_lanes, 1))
    seeds = np.asarray(base_seeds, dtype=np.uint64)
    # lanes drawn by candidate_features itself: keys past 2**64 (their
    # entropy overflows the 4-word pool) and Lemire rejections
    if keys.dtype == object:
        fallback = (keys >> 64 != 0).astype(bool)
        keys = np.where(fallback, 1, keys).astype(np.uint64)
    else:
        keys = keys.astype(np.uint64)
        fallback = np.zeros(n_lanes, dtype=bool)
    n, k = n_features, n_candidates
    if n_lanes == 0 or (n > 10000 and k > n // 50):
        # (the second case is choice's tail-shuffle algorithm, not Floyd)
        fallback[:] = True
        picks = np.zeros((n_lanes, k), dtype=np.int64)
    else:
        # Floyd draws from [0, j] for j = n-k .. n-1, then the shuffle
        # from [0, i] for i = k-1 .. 1; Lemire maps a 32-bit draw w to
        # (w * bound) >> 32 and rejects a low word below 2**32 % bound.
        bounds = np.concatenate(
            [np.arange(n - k + 1, n + 1), np.arange(k, 1, -1)]
        ).astype(np.uint64)
        words = _pcg64_words(seeds, keys, k)[:, : len(bounds)]
        scaled = words.astype(np.uint64) * bounds
        draws = (scaled >> np.uint64(32)).astype(np.int64)
        low = scaled & np.uint64(_MASK32)
        fallback |= (low < (np.uint64(1 << 32) % bounds)).any(axis=1)
        picks = _fisher_yates(_floyd(draws[:, :k], n - k), draws[:, k:])
    for lane in np.flatnonzero(fallback):
        picks[lane] = candidate_features(
            int(base_seeds[lane]), int(path_keys[lane]), n, k
        )
    return picks


def _draw_candidates(
    seeds: np.ndarray, keys: np.ndarray, n_features: int, n_candidates: int
) -> np.ndarray:
    """Candidate matrix (one row per open node) for one level."""
    n_open = len(keys)
    if n_candidates >= n_features:
        return np.broadcast_to(np.arange(n_features), (n_open, n_features))
    if n_open < _BATCH_MIN_LANES:
        return np.array(
            [
                candidate_features(int(seed), int(key), n_features, n_candidates)
                for seed, key in zip(seeds, keys)
            ]
        ).reshape(n_open, n_candidates)
    # the draw's (lane, feature) temporaries stay within the chunk cap
    per_call = max(1, _CHUNK_ELEMENTS // n_features)
    return np.concatenate(
        [
            batched_candidate_features(
                seeds[lo : lo + per_call],
                keys[lo : lo + per_call],
                n_features,
                n_candidates,
            )
            for lo in range(0, n_open, per_call)
        ]
    )


# ----------------------------------------------------------------------
# Fused level-synchronous growth
# ----------------------------------------------------------------------
@dataclass
class GrownTree:
    """One grown tree as flat DFS-preorder node arrays.

    ``classes`` indexes the classes with non-zero weight in the tree's
    rows (in the caller's label space); ``counts`` has one column per
    such class.  Leaves have ``feature == left == right == -1``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray
    classes: np.ndarray


def sum_over_classes(terms: np.ndarray, axis: int) -> np.ndarray:
    """Sum the class *axis* strictly left to right (both growers).

    Adding an exact zero anywhere in a left-to-right sum changes
    nothing, so a class a tree never saw cannot move its Gini values,
    and the result does not depend on the array layout — numpy's
    pairwise summation regroups 8+ terms on a contiguous axis.
    """
    parts = np.moveaxis(terms, axis, 0)
    total = parts[0].copy()
    for part in parts[1:]:
        total += part
    return total


def _chunk_bounds(
    lanes_per_node: np.ndarray, max_lanes: int, max_nodes: int
) -> List[int]:
    """Open-node boundaries of a level's chunks (each non-empty)."""
    n_open = len(lanes_per_node)
    cum = np.concatenate(([0], np.cumsum(lanes_per_node)))
    bounds = [0]
    while bounds[-1] < n_open:
        lo = bounds[-1]
        fits = int(np.searchsorted(cum, cum[lo] + max_lanes, side="right")) - 1
        bounds.append(min(max(fits, lo + 1), lo + max_nodes, n_open))
    return bounds


def _best_splits(
    Xs: np.ndarray,
    n_values: int,
    n_classes: int,
    cand: np.ndarray,
    totals: np.ndarray,
    sizes: np.ndarray,
    row: np.ndarray,
    weight: np.ndarray,
    label: np.ndarray,
    node: np.ndarray,
    min_samples_leaf: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best (score, candidate slot, value position) of every open node.

    *row/weight/label/node* describe the rows of the open nodes (``node``
    is the open-node index); *totals* and *sizes* are each open node's
    weighted class counts and weight.  A score of ``inf`` means no
    valid split.
    """
    n_open, n_slots = cand.shape
    n_features = Xs.shape[1]
    per_node = n_slots * n_classes * n_values
    lanes_per_node = np.bincount(node, minlength=n_open)
    bounds = _chunk_bounds(
        lanes_per_node,
        max(1, _CHUNK_ELEMENTS // n_slots),
        max(1, _HISTOGRAM_BUDGET // per_node),
    )
    if len(bounds) > 2:
        # group rows by node so every chunk is one contiguous slice
        order = np.argsort(node, kind="stable")
        row, weight, label, node = (
            a.take(order) for a in (row, weight, label, node)
        )
    lane_bounds = np.concatenate(([0], np.cumsum(lanes_per_node)))[bounds]
    Xs_flat = Xs.reshape(-1)
    slot_base = np.arange(n_slots) * (n_classes * n_values)

    best_score = np.empty(n_open)
    best_slot = np.empty(n_open, dtype=np.int64)
    best_pos = np.empty(n_open, dtype=np.int64)
    for lo, hi, a, b in zip(bounds[:-1], bounds[1:], lane_bounds[:-1], lane_bounds[1:]):
        local = node[a:b] - lo
        n_chunk = hi - lo
        # One flat (node, slot, class, value) histogram for the chunk;
        # values on the LAST axis so the prefix cumsum runs over
        # contiguous memory.  ``flat`` first indexes X, then the
        # histogram (in place: it is the level's largest temporary).
        flat = cand[lo:hi].take(local, axis=0)
        flat += (row[a:b] * n_features)[:, None]
        values = Xs_flat.take(flat)
        np.add((local * per_node + label[a:b] * n_values)[:, None], slot_base, out=flat)
        flat += values
        histogram = np.bincount(
            flat.reshape(-1),
            weights=np.repeat(weight[a:b], n_slots),
            minlength=n_chunk * per_node,
        ).reshape(n_chunk, n_slots, n_classes, n_values)
        prefix = histogram[:, :, :, :-1].cumsum(axis=3)
        left_totals = prefix.sum(axis=2)
        node_sizes = sizes[lo:hi, None, None]
        right_totals = node_sizes - left_totals
        valid = (left_totals >= min_samples_leaf) & (
            right_totals >= min_samples_leaf
        )
        # the reference's Gini arithmetic, operation for operation
        with np.errstate(divide="ignore", invalid="ignore"):
            share = prefix / left_totals[:, :, None, :]
            gini_left = 1.0 - sum_over_classes(np.square(share, out=share), axis=2)
            share = totals[lo:hi, None, :, None] - prefix
            share /= right_totals[:, :, None, :]
            gini_right = 1.0 - sum_over_classes(np.square(share, out=share), axis=2)
        weighted = gini_left
        weighted *= left_totals
        gini_right *= right_totals
        weighted += gini_right
        weighted /= node_sizes
        weighted[~valid] = np.inf
        pos = np.argmin(weighted, axis=2)
        score = np.take_along_axis(weighted, pos[:, :, None], axis=2)[:, :, 0]
        slot = np.argmin(score, axis=1)
        chunk_index = np.arange(n_chunk)
        best_score[lo:hi] = score[chunk_index, slot]
        best_slot[lo:hi] = slot
        best_pos[lo:hi] = pos[chunk_index, slot]
    return best_score, best_slot, best_pos


def grow_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    *,
    base_seeds: Sequence[int],
    weights: Optional[np.ndarray],
    max_depth: Optional[int],
    min_samples_split: int,
    min_samples_leaf: int,
    n_candidates: int,
) -> List[GrownTree]:
    """Grow one CART tree per base seed, all trees as one frontier.

    *y* must be integer-encoded class labels (``0 .. n_classes - 1``).
    ``weights[t, r]`` is how often tree ``t``'s sample holds row ``r``
    (its bootstrap multiplicity); ``None`` gives every tree every row
    once.  Tree ``t`` equals the depth-first reference grown on the rows
    ``weights[t]`` selects, with base seed ``base_seeds[t]``.
    """
    X = np.ascontiguousarray(X)
    n_rows, n_features = X.shape
    n_trees = len(base_seeds)
    seeds = np.array([int(s) for s in base_seeds], dtype=np.uint64)
    # Frontier rows ("lanes"): (tree, distinct row) pairs, tree-major.
    # The roots are the first frontier, so a lane's node is its tree.
    if weights is None:
        lane_node = np.repeat(np.arange(n_trees), n_rows)
        lane_row = np.tile(np.arange(n_rows), n_trees)
        lane_w = np.ones(len(lane_row))
    else:
        lane_node, lane_row = np.nonzero(weights)
        lane_w = weights[lane_node, lane_row].astype(np.float64)
    lane_y = np.asarray(y, dtype=np.int64)[lane_row]

    # The reference truncates each column with ``astype(np.int64)`` for
    # histogramming but routes samples on the *original* values; do the
    # same, with one forest-wide shift instead of per-node offsets.
    if n_features and n_rows:
        Xi = X.astype(np.int64)
        shift = Xi.min(axis=0)
        Xs = Xi - shift
        n_values = int(Xs.max()) + 1
        for narrow in (np.int8, np.int16):
            if n_values <= np.iinfo(narrow).max:
                # values only feed the flat histogram index; a narrow
                # dtype cuts the gather traffic without changing a count
                Xs = Xs.astype(narrow)
                break
    else:
        shift = np.zeros(n_features, dtype=np.int64)
        Xs = X.astype(np.int64)
        n_values = 1
    can_split = n_candidates > 0 and n_features > 0 and n_values > 1
    X_flat = X.reshape(-1)

    # Frontier: one entry per node of the current level, tree-major.
    node_tree = np.arange(n_trees)
    node_key = np.ones(n_trees, dtype=np.uint64)
    levels: List[Tuple[np.ndarray, ...]] = []
    level_base = 0
    depth = 0
    metrics = obs.metrics()
    while len(node_tree):
        n_frontier = len(node_tree)
        metrics.inc(M_FRONTIER_NODES, n_frontier)
        counts = np.bincount(
            lane_node * n_classes + lane_y,
            weights=lane_w,
            minlength=n_frontier * n_classes,
        ).reshape(n_frontier, n_classes)
        sizes = counts.sum(axis=1)
        feature = np.full(n_frontier, -1, dtype=np.int64)
        threshold = np.zeros(n_frontier)
        left = np.full(n_frontier, -1, dtype=np.int64)
        right = np.full(n_frontier, -1, dtype=np.int64)
        levels.append((node_tree, feature, threshold, left, right, counts))

        # Stopping criteria — mirrors the reference exactly: too small,
        # depth-capped (uniform per level), or pure.
        if not can_split or (max_depth is not None and depth >= max_depth):
            break
        open_mask = (sizes >= min_samples_split) & (counts.max(axis=1) != sizes)
        open_ranks = np.flatnonzero(open_mask)
        n_open = len(open_ranks)
        if n_open == 0:
            break
        rank_to_open = np.full(n_frontier, -1, dtype=np.int64)
        rank_to_open[open_ranks] = np.arange(n_open)
        lane_open = rank_to_open[lane_node]
        in_open = lane_open >= 0
        lane_open, lane_row, lane_w, lane_y = (
            a[in_open] for a in (lane_open, lane_row, lane_w, lane_y)
        )

        cand = _draw_candidates(
            seeds[node_tree[open_ranks]],
            node_key[open_ranks],
            n_features,
            n_candidates,
        )
        best_score, best_slot, best_pos = _best_splits(
            Xs,
            n_values,
            n_classes,
            cand,
            counts[open_ranks],
            sizes[open_ranks],
            lane_row,
            lane_w,
            lane_y,
            lane_open,
            min_samples_leaf,
        )
        split_feature = cand[np.arange(n_open), best_slot]
        split_threshold = shift[split_feature] + best_pos + 0.5

        # Route on the ORIGINAL values, like the reference, which also
        # re-checks the routed child weights (they can differ from the
        # histogram totals only for non-integer features).
        go_right = ~(
            X_flat.take(lane_row * n_features + split_feature[lane_open])
            <= split_threshold[lane_open]
        )
        sides = np.bincount(
            2 * lane_open + go_right, weights=lane_w, minlength=2 * n_open
        ).reshape(n_open, 2)
        ok = np.isfinite(best_score) & (sides >= min_samples_leaf).all(axis=1)
        splitting = np.flatnonzero(ok)
        n_split = len(splitting)
        if n_split == 0:
            break

        parents = open_ranks[splitting]
        feature[parents] = split_feature[splitting]
        threshold[parents] = split_threshold[splitting]
        children = level_base + n_frontier + 2 * np.arange(n_split)
        left[parents] = children
        right[parents] = children + 1

        child_of = np.full(n_open, -1, dtype=np.int64)
        child_of[splitting] = np.arange(n_split)
        lane_child = child_of[lane_open]
        keep = lane_child >= 0
        lane_node = 2 * lane_child[keep] + go_right[keep]
        lane_row, lane_w, lane_y = (a[keep] for a in (lane_row, lane_w, lane_y))

        keys = node_key[parents]
        if depth >= 63 and keys.dtype != object:
            keys = keys.astype(object)  # children's keys pass 2**64
        node_key = np.empty(2 * n_split, dtype=keys.dtype)
        node_key[0::2] = 2 * keys
        node_key[1::2] = 2 * keys + 1
        node_tree = np.repeat(node_tree[parents], 2)
        level_base += n_frontier
        depth += 1
    return _assemble(levels, n_trees)


def _assemble(levels: List[Tuple[np.ndarray, ...]], n_trees: int) -> List[GrownTree]:
    """Renumber breadth-first nodes into each tree's DFS preorder.

    Subtree sizes come bottom-up, preorder numbers top-down (a left
    child follows its parent, a right child follows the left subtree),
    one array operation per level.
    """
    tree, feature, threshold, left, right = (
        np.concatenate([level[i] for level in levels]) for i in range(5)
    )
    counts = np.concatenate([level[5] for level in levels])
    level_sizes = np.array([len(level[0]) for level in levels])
    ends = np.cumsum(level_sizes)
    starts = ends - level_sizes
    internal = [
        start + np.flatnonzero(left[start:end] >= 0)
        for start, end in zip(starts, ends)
    ]
    size = np.ones(len(tree), dtype=np.int64)
    for parents in reversed(internal):
        size[parents] += size[left[parents]] + size[right[parents]]
    preorder = np.zeros(len(tree), dtype=np.int64)
    for parents in internal:
        preorder[left[parents]] = preorder[parents] + 1
        preorder[right[parents]] = preorder[parents] + 1 + size[left[parents]]

    offsets = np.concatenate(([0], np.cumsum(size[:n_trees])))
    position = offsets[tree] + preorder
    is_leaf = left < 0

    def placed(values: np.ndarray) -> np.ndarray:
        out = np.empty_like(values)
        out[position] = values
        return out

    feature, threshold, counts = placed(feature), placed(threshold), placed(counts)
    left = placed(np.where(is_leaf, -1, preorder[np.maximum(left, 0)]))
    right = placed(np.where(is_leaf, -1, preorder[np.maximum(right, 0)]))
    grown = []
    for t in range(n_trees):
        nodes = slice(offsets[t], offsets[t + 1])
        classes = np.flatnonzero(counts[offsets[t]] > 0)
        grown.append(
            GrownTree(
                feature=feature[nodes],
                threshold=threshold[nodes],
                left=left[nodes],
                right=right[nodes],
                counts=counts[nodes][:, classes],
                classes=classes,
            )
        )
    return grown


# ----------------------------------------------------------------------
# Fused multi-tree inference
# ----------------------------------------------------------------------
@dataclass
class PackedForest:
    """All estimators of a forest in one offset-indexed node table.

    ``feature/threshold/left/right`` concatenate the per-tree flattened
    arrays with child indices rebased to the global table; tree ``t``
    owns rows ``offsets[t]:offsets[t + 1]`` and its root is
    ``offsets[t]``.  ``leaf_proba`` holds each node's class
    distribution already aligned to the *forest's* class order (a
    bootstrap can miss a class entirely), ``leaf_vote`` each node's
    majority class index — so inference never touches per-tree class
    maps.  Built by :meth:`from_forest`; persisted via
    :mod:`repro.learning.persistence`.
    """

    classes_: np.ndarray
    n_estimators: int
    offsets: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_proba: np.ndarray
    leaf_vote: np.ndarray

    def __post_init__(self) -> None:
        # Descent-ready views: leaves become self-loops with a
        # never-taken split (threshold -inf routes right, back to the
        # leaf itself), so a step is unconditional — no per-level leaf
        # masking.
        n_nodes = len(self.feature)
        node_index = np.arange(n_nodes, dtype=np.int64)
        is_leaf = self.left < 0
        self._feature_d: np.ndarray = np.where(is_leaf, 0, self.feature)
        self._threshold_d: np.ndarray = np.where(
            is_leaf, -np.inf, self.threshold
        )
        # Descent runs in *edge space*: the state is ``s = 2*node`` and
        # one step is ``s = child_e.take(s + go_left)`` over tables
        # duplicated per branch — ``feature_e[2n] == feature_e[2n+1] ==
        # feature[n]`` and ``child_e[2n+g] == 2*child[n][g]`` (column 0
        # right, column 1 left, leaves self-looping).  Pre-doubling the
        # child entries removes the per-level ``2*node`` multiply, and
        # every gather is a flat ``np.take`` (several-fold faster than
        # two-array fancy indexing).
        self._feature_e: np.ndarray = np.repeat(self._feature_d, 2)
        self._threshold_e: np.ndarray = np.repeat(self._threshold_d, 2)
        child_e = np.empty(2 * n_nodes, dtype=np.int64)
        child_e[0::2] = 2 * np.where(is_leaf, node_index, self.right)
        child_e[1::2] = 2 * np.where(is_leaf, node_index, self.left)
        self._child_e: np.ndarray = child_e
        self._is_leaf_e: np.ndarray = np.repeat(is_leaf, 2)
        self._is_leaf: np.ndarray = is_leaf
        # Half-width compare tables for the exact float32 fast path:
        # when every threshold round-trips through float32 unchanged
        # AND the query matrix is narrow-integer (so its values are
        # float32-exact too), comparing in float32 gives bit-identical
        # branch decisions at half the memory traffic.
        threshold_e32 = self._threshold_e.astype(np.float32)
        self._threshold_e32: np.ndarray = threshold_e32
        self._exact32: bool = bool(
            np.all(threshold_e32.astype(np.float64) == self._threshold_e)
        )
        # Depth of the deepest tree bounds the descent's step count.
        # Children follow their parent in DFS preorder, so one reverse
        # pass resolves every subtree depth bottom-up.
        below = np.zeros(n_nodes, dtype=np.int64)
        left, right = self.left, self.right
        for node in range(n_nodes - 1, -1, -1):
            if left[node] >= 0:
                below[node] = 1 + max(below[left[node]], below[right[node]])
        roots = self.offsets[:-1]
        self._max_depth: int = (
            int(below[roots].max()) if len(roots) else 0
        )

    @classmethod
    def from_forest(cls, forest: object) -> "PackedForest":
        """Pack a fitted ``RandomForestClassifier``."""
        estimators = getattr(forest, "estimators_", [])
        classes = getattr(forest, "classes_", None)
        if not estimators or classes is None:
            raise ValueError("cannot pack an unfitted forest")
        n_classes = len(classes)
        offsets = np.zeros(len(estimators) + 1, dtype=np.int64)
        features: List[np.ndarray] = []
        thresholds: List[np.ndarray] = []
        lefts: List[np.ndarray] = []
        rights: List[np.ndarray] = []
        probas: List[np.ndarray] = []
        votes: List[np.ndarray] = []
        for t, tree in enumerate(estimators):
            n_nodes = tree.node_count
            offset = offsets[t]
            offsets[t + 1] = offset + n_nodes
            features.append(tree._feature.astype(np.int64))
            thresholds.append(tree._threshold.astype(np.float64))
            lefts.append(
                np.where(tree._left < 0, -1, tree._left + offset).astype(
                    np.int64
                )
            )
            rights.append(
                np.where(tree._right < 0, -1, tree._right + offset).astype(
                    np.int64
                )
            )
            counts = tree._counts
            # Exactly the reference's per-leaf normalization ...
            proba = counts / np.maximum(
                counts.sum(axis=1, keepdims=True), 1.0
            )
            # ... scattered into the forest's class order.
            columns = np.searchsorted(classes, tree.classes_)
            aligned = np.zeros((n_nodes, n_classes))
            aligned[:, columns] = proba
            probas.append(aligned)
            votes.append(columns[np.argmax(counts, axis=1)].astype(np.int64))
        return cls(
            classes_=np.asarray(classes),
            n_estimators=len(estimators),
            offsets=offsets,
            feature=np.concatenate(features),
            threshold=np.concatenate(thresholds),
            left=np.concatenate(lefts),
            right=np.concatenate(rights),
            leaf_proba=np.vstack(probas),
            leaf_vote=np.concatenate(votes),
        )

    @property
    def node_count(self) -> int:
        return len(self.feature)

    # ------------------------------------------------------------------
    #: levels stepped between two compaction passes — small enough that
    #: pathological chain-shaped trees shed finished lanes quickly, big
    #: enough that bookkeeping amortizes away on balanced trees
    _COMPACT_EVERY = 8

    def descend(self, X: np.ndarray) -> np.ndarray:
        """Leaf node per ``(tree, sample)`` lane, one fused descent.

        All ``n_samples * n_trees`` lanes step level-synchronously.
        Leaves self-loop (see ``__post_init__``), so the inner loop is
        four array ops per level with no leaf masking; every
        ``_COMPACT_EVERY`` levels finished lanes are compacted out, so
        degenerate deep trees don't drag every lane to their depth.
        """
        X = np.asarray(X)
        n_samples = len(X)
        n_features = X.shape[1] if X.ndim == 2 else 0
        # float32 compares are bit-identical to the float64 reference
        # when both sides are float32-exact: narrow-integer queries
        # (every int8/int16 value is exact) against round-trip-checked
        # thresholds.  Wider or float queries take the float64 tables.
        if self._exact32 and X.dtype.kind in "iu" and X.dtype.itemsize <= 2:
            values = X.astype(np.float32).ravel()
            threshold = self._threshold_e32
        else:
            values = (
                X if X.dtype == np.float64 else X.astype(np.float64)
            ).ravel()
            threshold = self._threshold_e
        s = np.repeat(2 * self.offsets[:-1], n_samples)
        # lanes are tree-major, so each lane's row offset into the
        # flattened sample matrix tiles across trees
        row_base = np.tile(
            np.arange(n_samples) * n_features, self.n_estimators
        )
        obs.metrics().inc(M_PACKED_LANES, n_samples * self.n_estimators)
        feature, child = self._feature_e, self._child_e
        out = s.copy()
        lane = np.arange(len(s))
        remaining = self._max_depth
        while remaining > 0 and s.size:
            for _ in range(min(remaining, self._COMPACT_EVERY)):
                go_left = values.take(
                    row_base + feature.take(s)
                ) <= threshold.take(s)
                s = child.take(s + go_left)
            remaining -= self._COMPACT_EVERY
            if remaining > 0:
                done = self._is_leaf_e.take(s)
                out[lane[done]] = s[done]
                keep = ~done
                s = s[keep]
                row_base = row_base[keep]
                lane = lane[keep]
        out[lane] = s
        return (out >> 1).reshape(self.n_estimators, n_samples)

    def _proba_from_leaves(self, leaves: np.ndarray) -> np.ndarray:
        # One gather for all trees; summing the tree axis of the
        # (trees, samples, classes) stack adds trees in index order,
        # exactly like the per-tree reference loop (bit-for-bit).
        stacked = self.leaf_proba.take(leaves, axis=0)
        return stacked.sum(axis=0) / self.n_estimators

    def _dispersion_from_leaves(self, leaves: np.ndarray) -> np.ndarray:
        n_samples = leaves.shape[1]
        n_classes = len(self.classes_)
        votes = self.leaf_vote.take(leaves)
        tally = np.bincount(
            (np.arange(n_samples)[None, :] * n_classes + votes).ravel(),
            minlength=n_samples * n_classes,
        ).reshape(n_samples, n_classes)
        return 1.0 - tally.max(axis=1) / self.n_estimators

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Soft-vote class probabilities, fused across all trees."""
        return self._proba_from_leaves(self.descend(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def vote_dispersion(self, X: np.ndarray) -> np.ndarray:
        """Per-sample tree disagreement in ``[0, 1 - 1/n_trees]``.

        ``0`` means every tree voted the same class; higher values mean
        the forest is uncertain — the routing signal for the
        uncertainty-gated hybrid flow.
        """
        return self._dispersion_from_leaves(self.descend(X))

    def predict_with_dispersion(
        self, X: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(predicted labels, vote dispersion) from one shared descent."""
        leaves = self.descend(X)
        proba = self._proba_from_leaves(leaves)
        labels = self.classes_[np.argmax(proba, axis=1)]
        return labels, self._dispersion_from_leaves(leaves)
