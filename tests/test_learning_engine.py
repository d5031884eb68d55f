"""Differential tests: fused forest engine vs the references.

Five contracts, each against its scalar oracle:

* Frontier-grown trees are **node-for-node identical** to the
  depth-first oracle ``fit_depth_first`` — same features, thresholds,
  child links, class counts and DFS-preorder numbering — on synthetic
  corpora, real CA-matrix data, and Hypothesis-generated random integer
  datasets.
* A fused forest fit (every tree in one frontier, bootstrap rows as
  multiplicity weights) serializes exactly like the per-tree oracle
  ``fit_per_tree`` (depth-first fits on bootstrap copies), across every
  forest option.
* The batched candidate draw equals ``candidate_features`` (a per-node
  ``default_rng((seed, key)).choice``) row for row, fallback lanes
  included — a NumPy release that changes ``choice`` fails here instead
  of silently growing different forests.
* ``PackedForest`` inference is bit-for-bit equal to the per-tree vote
  loop oracle ``predict_proba_per_tree``.
* Parallel fits are byte-identical to serial fits (same serialized
  forest), and parallel grid search ranks candidates identically.
* Corrupt forest payloads fail at load with a ``ValueError`` naming the
  field, and forest writes are atomic.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.camodel import generate_ca_model
from repro.learning import (
    PackedForest,
    RandomForestClassifier,
    build_samples,
    grid_search,
)
from repro.learning import engine
from repro.learning.datasets import stack_group
from repro.learning.engine import (
    batched_candidate_features,
    candidate_features,
    grow_forest,
)
from repro.learning.forest import fit_per_tree, predict_proba_per_tree
from repro.learning.persistence import (
    forest_from_dict,
    forest_to_dict,
    load_classifier,
    load_packed_forest,
    packed_forest_from_dict,
    packed_forest_to_dict,
    save_classifier,
    save_packed_forest,
    tree_from_dict,
    tree_to_dict,
)
from repro.learning.tree import DecisionTreeClassifier, fit_depth_first
from repro.library import SOI28, build_cell


def _assert_trees_identical(a, b):
    """Every observable of two fitted trees must match exactly."""
    assert a.node_count == b.node_count
    assert np.array_equal(a._feature, b._feature)
    assert np.array_equal(a._threshold, b._threshold)
    assert np.array_equal(a._left, b._left)
    assert np.array_equal(a._right, b._right)
    assert np.array_equal(a._counts, b._counts)
    assert np.array_equal(a.classes_, b.classes_)


def _fit_both(X, y, **params):
    a = fit_depth_first(DecisionTreeClassifier(**params), X, y)
    b = DecisionTreeClassifier(**params).fit(X, y)
    return a, b


def _random_dataset(seed, n=300, n_features=8, n_values=5, n_classes=3):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, n_values, size=(n, n_features)).astype(np.int8)
    y = rng.integers(0, n_classes, size=n)
    return X, y


class TestFrontierEqualsRecursive:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        "max_features", [None, "sqrt", "log2", 0.5, 2], ids=str
    )
    def test_random_integer_data(self, seed, max_features):
        X, y = _random_dataset(seed)
        a, b = _fit_both(
            X, y, max_features=max_features, random_state=seed
        )
        _assert_trees_identical(a, b)

    @pytest.mark.parametrize("max_depth", [None, 1, 3])
    @pytest.mark.parametrize("min_samples_leaf", [1, 5, 40])
    def test_depth_and_leaf_constraints(self, max_depth, min_samples_leaf):
        X, y = _random_dataset(11, n=200)
        a, b = _fit_both(
            X,
            y,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            max_features=0.5,
            random_state=7,
        )
        _assert_trees_identical(a, b)

    def test_min_samples_split(self):
        X, y = _random_dataset(12, n=120)
        a, b = _fit_both(X, y, min_samples_split=30, random_state=0)
        _assert_trees_identical(a, b)

    def test_negative_and_shifted_features(self):
        rng = np.random.default_rng(4)
        X = rng.integers(-3, 9, size=(150, 5)).astype(np.int64)
        y = rng.integers(0, 2, size=150)
        a, b = _fit_both(X, y, max_features=0.5, random_state=4)
        _assert_trees_identical(a, b)

    def test_single_class(self):
        X = np.zeros((20, 3), dtype=np.int8)
        y = np.ones(20, dtype=int)
        a, b = _fit_both(X, y, random_state=0)
        _assert_trees_identical(a, b)
        assert a.node_count == 1

    def test_constant_features(self):
        X = np.full((40, 4), 7, dtype=np.int8)
        y = np.arange(40) % 2
        a, b = _fit_both(X, y, random_state=0)
        _assert_trees_identical(a, b)
        assert a.node_count == 1  # nothing to split on

    def test_single_column(self):
        X, y = _random_dataset(5, n_features=1)
        a, b = _fit_both(X, y, random_state=5)
        _assert_trees_identical(a, b)

    def test_binary_features(self):
        X, y = _random_dataset(6, n_values=2)
        a, b = _fit_both(X, y, max_features="sqrt", random_state=6)
        _assert_trees_identical(a, b)

    def test_tiny_dataset(self):
        X = np.array([[0], [1]], dtype=np.int8)
        y = np.array([0, 1])
        a, b = _fit_both(X, y, random_state=0)
        _assert_trees_identical(a, b)
        assert a.node_count == 3

    def test_real_ca_matrix_rows(self):
        cell = build_cell(SOI28, "AOI21", 1)
        model = generate_ca_model(cell, params=SOI28.electrical)
        sample = build_samples([(cell, model)])[0]
        X = sample.matrix.features
        y = sample.matrix.labels
        for mf in (None, 0.5, "sqrt"):
            a, b = _fit_both(X, y, max_features=mf, random_state=1)
            _assert_trees_identical(a, b)
            assert (a.predict(X) == b.predict(X)).all()

    def test_forest_engines_identical(self):
        X, y = _random_dataset(13)
        params = dict(n_estimators=5, max_features=0.5, random_state=2)
        a = fit_per_tree(RandomForestClassifier(**params), X, y)
        b = RandomForestClassifier(**params).fit(X, y)
        assert forest_to_dict(a) == forest_to_dict(b)

    def test_min_samples_leaf_validated(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_leaf=0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(2, 120),
        n_features=st.integers(1, 10),
        n_values=st.integers(1, 9),
        n_classes=st.integers(1, 4),
        max_features=st.sampled_from([None, "sqrt", 0.5, 1]),
        min_samples_leaf=st.integers(1, 8),
    )
    def test_property_identical_on_random_data(
        self, seed, n, n_features, n_values, n_classes, max_features,
        min_samples_leaf,
    ):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, n_values, size=(n, n_features)).astype(np.int16)
        y = rng.integers(0, n_classes, size=n)
        a, b = _fit_both(
            X,
            y,
            max_features=max_features,
            min_samples_leaf=min_samples_leaf,
            random_state=seed,
        )
        _assert_trees_identical(a, b)


class TestCandidateFeatures:
    def test_traversal_order_independent(self):
        # Same (seed, path) always draws the same subset — the property
        # both engines' equivalence rests on.
        a = candidate_features(123, 5, 20, 4)
        b = candidate_features(123, 5, 20, 4)
        assert np.array_equal(a, b)
        assert len(set(a.tolist())) == 4

    def test_all_features_shortcut(self):
        assert np.array_equal(
            candidate_features(1, 1, 5, 5), np.arange(5)
        )
        assert np.array_equal(
            candidate_features(1, 1, 5, 9), np.arange(5)
        )

    def test_grow_forest_nodes_are_dfs_preorder(self):
        X, y = _random_dataset(3, n=80)
        weights = np.random.default_rng(3).integers(0, 3, size=(2, 80))
        for tree in grow_forest(
            X,
            y.astype(np.int64),
            3,
            base_seeds=[99, 100],
            weights=weights,
            max_depth=None,
            min_samples_split=2,
            min_samples_leaf=1,
            n_candidates=X.shape[1],
        ):
            # Preorder: both children of node i come after i, left first.
            for i, (left, right) in enumerate(zip(tree.left, tree.right)):
                if left >= 0:
                    assert left == i + 1
                    assert right > left


class TestBatchedDraw:
    """``batched_candidate_features`` against the per-node oracle."""

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        n_features=st.integers(2, 200),
        n_lanes=st.integers(1, 300),
        wide_seeds=st.booleans(),
    )
    def test_equals_candidate_features_row_for_row(
        self, data, n_features, n_lanes, wide_seeds
    ):
        k = data.draw(st.integers(1, n_features - 1), label="k")
        seed_range = (2**32, 2**64 - 1) if wide_seeds else (0, 2**32 - 1)
        seeds = data.draw(
            st.lists(st.integers(*seed_range), min_size=n_lanes, max_size=n_lanes),
            label="seeds",
        )
        # heap keys of every depth up to 70 (a key's bit length is its
        # depth + 1); keys past 2**64 take the fallback lane
        heap_key = st.integers(0, 69).flatmap(
            lambda depth: st.integers(2**depth, 2 ** (depth + 1))
        )
        keys = data.draw(
            st.lists(heap_key, min_size=n_lanes, max_size=n_lanes),
            label="keys",
        )
        got = batched_candidate_features(
            np.array(seeds, dtype=np.uint64),
            np.array(keys, dtype=object),
            n_features,
            k,
        )
        assert got.shape == (n_lanes, k)
        for lane in range(n_lanes):
            assert np.array_equal(
                got[lane],
                candidate_features(seeds[lane], keys[lane], n_features, k),
            )

    def test_small_keys_as_uint64(self):
        seeds = np.arange(1, 41, dtype=np.uint64) * 2**40
        keys = np.arange(1, 41, dtype=np.uint64) ** 3
        got = batched_candidate_features(seeds, keys, 99, 49)
        for lane in range(40):
            assert np.array_equal(
                got[lane],
                candidate_features(int(seeds[lane]), int(keys[lane]), 99, 49),
            )

    def test_lemire_rejection_lanes_fall_back(self):
        # These three lanes each hit a rejected 32-bit draw while sampling
        # 100 of 10000 features; the other keys do not.
        keys = np.array([5, 688, 6897, 7841, 9], dtype=np.uint64)
        got = batched_candidate_features(np.full(5, 12345), keys, 10000, 100)
        for lane, key in enumerate(keys.tolist()):
            assert np.array_equal(
                got[lane], candidate_features(12345, key, 10000, 100)
            )

    def test_all_features_and_no_lanes(self):
        assert np.array_equal(
            batched_candidate_features([1, 2], [1, 3], 5, 5),
            np.tile(np.arange(5), (2, 1)),
        )
        empty = batched_candidate_features(
            np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint64), 9, 3
        )
        assert empty.shape == (0, 3)


def _fused_equals_recursive(X, y, **params):
    fused = RandomForestClassifier(**params).fit(X, y)
    recursive = fit_per_tree(RandomForestClassifier(**params), X, y)
    assert forest_to_dict(fused) == forest_to_dict(recursive)
    return fused


@pytest.fixture(params=["cutover", "batched"])
def draw_path(request, monkeypatch):
    """Run a test with the shipped cutover and with every level batched."""
    if request.param == "batched":
        monkeypatch.setattr(engine, "_BATCH_MIN_LANES", 1)
    return request.param


class TestFusedForestEqualsRecursive:
    """One fused frontier for all trees == per-tree recursive fits."""

    @pytest.mark.parametrize(
        "max_features", [None, "sqrt", "log2", 0.5, 3], ids=str
    )
    def test_max_features_modes(self, draw_path, max_features):
        X, y = _random_dataset(30, n=250, n_features=12)
        _fused_equals_recursive(
            X, y, n_estimators=6, max_features=max_features, random_state=4
        )

    @pytest.mark.parametrize(
        "params",
        [
            {"max_samples": 0.3},
            {"bootstrap": False},
            {"min_samples_leaf": 7},
            {"max_depth": 3},
            {"max_depth": 0},
        ],
        ids=lambda p: ",".join(f"{k}={v}" for k, v in p.items()),
    )
    def test_forest_options(self, draw_path, params):
        X, y = _random_dataset(31, n=200)
        _fused_equals_recursive(
            X, y, n_estimators=5, max_features=0.5, random_state=5, **params
        )

    def test_class_missing_from_bootstraps(self, draw_path):
        rng = np.random.default_rng(8)
        X = rng.integers(0, 4, size=(30, 5)).astype(np.int8)
        y = np.concatenate([np.zeros(27, dtype=int), np.array([1, 2, 3])])
        forest = _fused_equals_recursive(
            X, y, n_estimators=12, max_samples=0.2, random_state=0
        )
        assert any(
            len(tree.classes_) < len(forest.classes_)
            for tree in forest.estimators_
        )

    def test_many_classes_summed_in_order(self, draw_path):
        # 10 classes: numpy's pairwise summation would regroup the Gini
        # terms; both engines sum classes strictly left to right.
        rng = np.random.default_rng(9)
        X = rng.integers(0, 4, size=(300, 6)).astype(np.int8)
        y = rng.integers(0, 10, size=300)
        _fused_equals_recursive(
            X, y, n_estimators=6, max_features=0.5, random_state=1
        )

    def test_single_class(self, draw_path):
        X, _ = _random_dataset(32, n=40)
        forest = _fused_equals_recursive(
            X, np.full(40, 7), n_estimators=3, random_state=0
        )
        assert all(tree.node_count == 1 for tree in forest.estimators_)

    def test_constant_and_shifted_columns(self, draw_path):
        rng = np.random.default_rng(33)
        X = rng.integers(-3, 9, size=(150, 6)).astype(np.int64)
        X[:, 2] = 5
        X[:, 4] = -2
        y = rng.integers(0, 3, size=150)
        _fused_equals_recursive(
            X, y, n_estimators=5, max_features=0.5, random_state=3
        )

    def test_multi_chunk_levels(self, draw_path, monkeypatch):
        monkeypatch.setattr(engine, "_CHUNK_ELEMENTS", 64)
        monkeypatch.setattr(engine, "_HISTOGRAM_BUDGET", 512)
        X, y = _random_dataset(34, n=300)
        _fused_equals_recursive(
            X, y, n_estimators=6, max_features=0.5, random_state=6
        )

    def test_chain_deeper_than_64_levels(self, draw_path):
        # nodes 64+ levels deep have heap keys >= 2**64 (object keys,
        # fallback draws)
        column = np.arange(160)
        X = np.stack([column, column], axis=1).astype(np.int16)
        y = column % 2
        forest = _fused_equals_recursive(
            X, y, n_estimators=2, max_features=1, bootstrap=False,
            random_state=1,
        )
        assert min(tree.depth() for tree in forest.estimators_) > 64

    def test_frontier_node_count_metric(self):
        from repro import obs

        X, y = _random_dataset(35, n=200)
        metrics = obs.metrics()
        before = metrics.get(engine.M_FRONTIER_NODES)
        forest = RandomForestClassifier(
            n_estimators=4, max_features=0.5, random_state=2
        ).fit(X, y)
        # every node of every tree passes through the frontier once
        assert metrics.get(engine.M_FRONTIER_NODES) - before == sum(
            tree.node_count for tree in forest.estimators_
        )

    def test_real_ca_matrix_group(self, draw_path, ca_group):
        X, y = ca_group
        _fused_equals_recursive(
            X, y, n_estimators=8, max_features=0.5, random_state=0
        )


@pytest.fixture(scope="module")
def ca_group():
    """A real CA-matrix training group: NAND2 and NOR2 in every flavor."""
    cells = [
        build_cell(SOI28, fn, 1, flavor)
        for fn in ("NAND2", "NOR2")
        for flavor in SOI28.flavors
    ]
    samples = build_samples(
        [(c, generate_ca_model(c, params=SOI28.electrical)) for c in cells],
        SOI28.electrical,
    )
    return stack_group(samples)


class TestPackedForest:
    def _forest(self, seed=0, **kw):
        X, y = _random_dataset(seed, n=400)
        kw.setdefault("n_estimators", 6)
        kw.setdefault("max_features", 0.5)
        forest = RandomForestClassifier(random_state=seed, **kw).fit(X, y)
        return forest, X

    def test_packed_equals_loop_bitwise(self):
        forest, X = self._forest()
        loop = predict_proba_per_tree(forest, X)
        fused = forest.predict_proba(X)
        assert np.array_equal(loop, fused)

    def test_packed_predict_equals_loop_predict(self):
        forest, X = self._forest(seed=1)
        assert (
            forest.predict(X)
            == forest.classes_[
                np.argmax(predict_proba_per_tree(forest, X), axis=1)
            ]
        ).all()

    def test_missing_class_in_bootstrap(self):
        # Tiny bootstraps routinely miss a class; the packed alignment
        # must scatter per-tree probabilities into the forest's order.
        rng = np.random.default_rng(8)
        X = rng.integers(0, 4, size=(30, 5)).astype(np.int8)
        y = np.concatenate([np.zeros(27, dtype=int), np.array([1, 2, 3])])
        forest = RandomForestClassifier(
            n_estimators=12, random_state=0, max_samples=0.2
        ).fit(X, y)
        assert np.array_equal(
            predict_proba_per_tree(forest, X),
            forest.predict_proba(X),
        )

    def test_dispersion_bounds_and_unanimity(self):
        forest, X = self._forest(seed=2)
        dispersion = forest.vote_dispersion(X)
        n = forest.n_estimators
        assert (dispersion >= 0).all()
        assert (dispersion <= 1 - 1 / n + 1e-12).all()
        # On its own noise-free training set the forest is mostly sure;
        # unanimous rows must score exactly zero.
        packed = forest.packed_forest()
        votes = packed.leaf_vote[packed.descend(X)]
        unanimous = (votes == votes[0]).all(axis=0)
        assert np.array_equal(dispersion == 0.0, unanimous)

    def test_predict_with_dispersion_matches_separate_calls(self):
        forest, X = self._forest(seed=3)
        labels, dispersion = forest.predict_with_dispersion(X)
        assert (labels == forest.predict(X)).all()
        assert np.array_equal(dispersion, forest.vote_dispersion(X))

    def test_packed_cache_invalidated_on_refit(self):
        forest, X = self._forest(seed=4)
        first = forest.packed_forest()
        assert forest.packed_forest() is first  # cached
        X2, y2 = _random_dataset(5, n=100)
        forest.fit(X2, y2)
        assert forest.packed_forest() is not first

    def test_pack_unfitted_rejected(self):
        with pytest.raises(ValueError):
            PackedForest.from_forest(RandomForestClassifier())
        with pytest.raises(RuntimeError):
            RandomForestClassifier().packed_forest()

    def test_offsets_partition_node_table(self):
        forest, _ = self._forest(seed=6)
        packed = forest.packed_forest()
        sizes = np.diff(packed.offsets)
        assert sizes.tolist() == [
            t.node_count for t in forest.estimators_
        ]
        assert packed.offsets[-1] == packed.node_count

    def test_persistence_round_trip(self, tmp_path):
        forest, X = self._forest(seed=7)
        packed = forest.packed_forest()
        path = save_packed_forest(packed, tmp_path / "packed.json")
        loaded = load_packed_forest(path)
        assert np.array_equal(loaded.classes_, packed.classes_)
        assert np.array_equal(
            loaded.predict_proba(X), packed.predict_proba(X)
        )
        assert np.array_equal(
            loaded.vote_dispersion(X), packed.vote_dispersion(X)
        )
        # dict round trip preserves every field exactly
        again = packed_forest_from_dict(packed_forest_to_dict(packed))
        assert np.array_equal(again.leaf_proba, packed.leaf_proba)

    def test_bad_payloads_rejected(self):
        with pytest.raises(ValueError):
            packed_forest_from_dict({"kind": "nope"})
        forest, _ = self._forest(seed=8)
        payload = packed_forest_to_dict(forest.packed_forest())
        payload["format"] = 999
        with pytest.raises(ValueError):
            packed_forest_from_dict(payload)


class TestParallelFit:
    def test_parallel_fit_byte_identical(self):
        X, y = _random_dataset(20, n=250)
        serial = RandomForestClassifier(
            n_estimators=6, max_features=0.5, random_state=5
        ).fit(X, y)
        pooled = RandomForestClassifier(
            n_estimators=6, max_features=0.5, random_state=5, parallelism=3
        ).fit(X, y)
        assert forest_to_dict(serial) == forest_to_dict(pooled)
        assert np.array_equal(
            serial.predict_proba(X), pooled.predict_proba(X)
        )

    def test_parallelism_one_stays_serial(self):
        X, y = _random_dataset(21, n=100)
        a = RandomForestClassifier(
            n_estimators=3, random_state=1, parallelism=1
        ).fit(X, y)
        b = RandomForestClassifier(n_estimators=3, random_state=1).fit(X, y)
        assert forest_to_dict(a) == forest_to_dict(b)

    def test_no_bootstrap_parallel(self):
        X, y = _random_dataset(22, n=100)
        a = RandomForestClassifier(
            n_estimators=4, random_state=2, bootstrap=False
        ).fit(X, y)
        b = RandomForestClassifier(
            n_estimators=4, random_state=2, bootstrap=False, parallelism=2
        ).fit(X, y)
        assert forest_to_dict(a) == forest_to_dict(b)


    def test_uneven_tree_groups(self):
        # 7 trees on 3 workers: groups of 3, 2 and 2 contiguous trees
        X, y = _random_dataset(23, n=150)
        params = dict(n_estimators=7, max_features=0.5, random_state=3)
        serial = RandomForestClassifier(**params).fit(X, y)
        pooled = RandomForestClassifier(parallelism=3, **params).fit(X, y)
        assert forest_to_dict(serial) == forest_to_dict(pooled)


class TestParallelGridSearch:
    def _samples(self):
        cells = [
            build_cell(SOI28, "NAND2", 1),
            build_cell(SOI28, "NOR2", 1),
            build_cell(SOI28, "NAND2", 2),
        ]
        return build_samples(
            [
                (c, generate_ca_model(c, params=SOI28.electrical))
                for c in cells
            ],
            params=SOI28.electrical,
        )

    def test_parallel_ranking_identical(self):
        samples = self._samples()
        grid = {"n_estimators": [2, 4], "max_features": [0.5, None]}
        serial = grid_search(samples, grid, seed=3)
        pooled = grid_search(samples, grid, seed=3, parallelism=2)
        assert serial.ranking == pooled.ranking
        assert serial.best_params == pooled.best_params


class TestCorruptPayloads:
    """Forest payloads are validated at load, never trusted."""

    def _forest(self):
        X, y = _random_dataset(40, n=200)
        forest = RandomForestClassifier(
            n_estimators=4, max_features=0.5, random_state=1
        ).fit(X, y)
        return forest, X

    @staticmethod
    def _internal(nodes):
        return next(i for i, n in enumerate(nodes) if n["left"] >= 0 and i > 0)

    def test_child_pointing_back_at_root(self):
        # Used to load silently: the per-tree vote loop looped
        # forever and the packed path returned different probabilities.
        forest, _ = self._forest()
        payload = tree_to_dict(forest.estimators_[0])
        payload["nodes"][self._internal(payload["nodes"])]["left"] = 0
        with pytest.raises(ValueError, match="'left'"):
            tree_from_dict(payload)
        data = forest_to_dict(forest)
        data["estimators"][0] = payload
        with pytest.raises(ValueError, match="'left'"):
            forest_from_dict(data)

    def test_packed_backward_right_pointer(self):
        # Used to load silently, and the packed descent mispredicted.
        forest, _ = self._forest()
        payload = packed_forest_to_dict(forest.packed_forest())
        right = payload["right"]
        node = next(i for i in range(1, len(right)) if right[i] > 0)
        right[node] = node - 1
        with pytest.raises(ValueError, match="'right'"):
            packed_forest_from_dict(payload)

    def test_out_of_range_child(self):
        # Used to raise a bare IndexError from inside PackedForest.
        forest, _ = self._forest()
        payload = packed_forest_to_dict(forest.packed_forest())
        node = payload["left"].index(next(v for v in payload["left"] if v > 0))
        payload["left"][node] = len(payload["left"]) + 5
        with pytest.raises(ValueError, match="'left'"):
            packed_forest_from_dict(payload)
        tree = tree_to_dict(forest.estimators_[1])
        tree["nodes"][0]["right"] = len(tree["nodes"])
        with pytest.raises(ValueError, match="'right'"):
            tree_from_dict(tree)

    def test_child_in_another_tree(self):
        forest, _ = self._forest()
        payload = packed_forest_to_dict(forest.packed_forest())
        # the first tree's root points into the second tree
        payload["left"][0] = payload["offsets"][1]
        with pytest.raises(ValueError, match="'left'"):
            packed_forest_from_dict(payload)

    def test_split_feature_out_of_range(self):
        forest, _ = self._forest()
        payload = tree_to_dict(forest.estimators_[0])
        payload["nodes"][0]["feature"] = payload["n_features"]
        with pytest.raises(ValueError, match="'feature'"):
            tree_from_dict(payload)
        packed = packed_forest_to_dict(forest.packed_forest())
        packed["feature"][0] = -3
        with pytest.raises(ValueError, match="'feature'"):
            packed_forest_from_dict(packed)

    @pytest.mark.parametrize("field", ["leaf_proba", "leaf_vote", "threshold", "right"])
    def test_packed_shapes_match_node_count(self, field):
        forest, _ = self._forest()
        payload = packed_forest_to_dict(forest.packed_forest())
        payload[field] = payload[field][:-1]
        with pytest.raises(ValueError, match=repr(field)):
            packed_forest_from_dict(payload)

    def test_tree_counts_shape(self):
        forest, _ = self._forest()
        payload = tree_to_dict(forest.estimators_[0])
        payload["nodes"][2]["counts"] = payload["nodes"][2]["counts"][:-1]
        with pytest.raises(ValueError, match="'counts'"):
            tree_from_dict(payload)

    @pytest.mark.parametrize(
        "offsets",
        [lambda o: [1] + o[1:], lambda o: o[:-1] + [o[-1] + 1],
         lambda o: [o[0], o[2], o[1]] + o[3:]],
        ids=["start", "end", "decreasing"],
    )
    def test_offsets_partition_the_table(self, offsets):
        forest, _ = self._forest()
        payload = packed_forest_to_dict(forest.packed_forest())
        payload["offsets"] = offsets(payload["offsets"])
        with pytest.raises(ValueError, match="'offsets'"):
            packed_forest_from_dict(payload)

    def test_missing_or_non_numeric_fields(self):
        forest, _ = self._forest()
        payload = tree_to_dict(forest.estimators_[0])
        del payload["nodes"][1]["threshold"]
        with pytest.raises(ValueError, match="'threshold'"):
            tree_from_dict(payload)
        packed = packed_forest_to_dict(forest.packed_forest())
        packed["leaf_vote"][3] = "x"
        with pytest.raises(ValueError, match="'leaf_vote'"):
            packed_forest_from_dict(packed)
        del packed["offsets"]
        with pytest.raises(ValueError, match="'offsets'"):
            packed_forest_from_dict(packed)


class TestAtomicWrites:
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        X, y = _random_dataset(41, n=100)
        forest = RandomForestClassifier(n_estimators=2, random_state=0).fit(X, y)
        path = save_classifier(forest, tmp_path / "forest.json")
        packed_path = save_packed_forest(
            forest.packed_forest(), tmp_path / "packed.json"
        )
        before = path.read_text(), packed_path.read_text()

        import os

        real_fdopen = os.fdopen

        def torn_fdopen(fd, mode):
            # The atomic writer's temp-file handle tears mid-write.
            handle = real_fdopen(fd, mode)

            def torn_write(text):
                type(handle).write(handle, text[:19])
                raise OSError("disk full")

            handle.write = torn_write
            return handle

        monkeypatch.setattr(os, "fdopen", torn_fdopen)
        with pytest.raises(OSError):
            save_classifier(forest, path)
        with pytest.raises(OSError):
            save_packed_forest(forest.packed_forest(), packed_path)
        assert (path.read_text(), packed_path.read_text()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "forest.json", "packed.json"
        ]
        assert forest_to_dict(load_classifier(path)) == forest_to_dict(forest)
