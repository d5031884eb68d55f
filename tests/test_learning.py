"""Unit tests for the from-scratch estimators and metrics."""

import numpy as np
import pytest

from repro.learning import (
    DecisionTreeClassifier,
    KNeighborsClassifier,
    LinearSVC,
    LogisticRegression,
    RandomForestClassifier,
    RidgeClassifier,
    accuracy_score,
    classification_report,
    confusion_matrix,
    precision_recall_f1,
)
from repro.learning.forest import predict_proba_per_tree


def _separable(n=600, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(n, 10)).astype(np.int8)
    y = ((X[:, 0] >= 2) ^ (X[:, 3] == 1)).astype(int)
    return X, y


def _linear(n=600, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    y = (X @ np.array([1.0, -2.0, 0.5, 0, 0, 1.0]) > 0.2).astype(int)
    return X, y


class TestDecisionTree:
    def test_fits_exactly_on_consistent_data(self):
        X, y = _separable()
        tree = DecisionTreeClassifier().fit(X, y)
        assert accuracy_score(y, tree.predict(X)) == 1.0

    def test_generalizes(self):
        X, y = _separable(1200)
        tree = DecisionTreeClassifier().fit(X[:800], y[:800])
        assert accuracy_score(y[800:], tree.predict(X[800:])) > 0.95

    def test_max_depth_limits(self):
        X, y = _separable()
        stump = DecisionTreeClassifier(max_depth=1).fit(X, y)
        assert stump.depth() <= 1

    def test_min_samples_leaf(self):
        X, y = _separable(100)
        tree = DecisionTreeClassifier(min_samples_leaf=40).fit(X, y)
        assert tree.node_count < 7

    def test_predict_proba_rows_sum_to_one(self):
        X, y = _separable()
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        proba = tree.predict_proba(X[:50])
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_single_class(self):
        X = np.zeros((10, 3), dtype=np.int8)
        y = np.ones(10, dtype=int)
        tree = DecisionTreeClassifier().fit(X, y)
        assert (tree.predict(X) == 1).all()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((0, 3)), np.zeros(0))

    def test_depth_on_degenerate_chain(self):
        """depth() must survive trees far deeper than the recursion limit.

        ``fit`` cannot grow such a tree in-process (``_grow`` itself
        recurses), so build the node list directly: a left-descending
        chain with one leaf hanging off every internal node, the shape a
        pathological ``max_depth=None`` fit degenerates to.
        """
        import sys

        from repro.learning.tree import _Node

        chain = sys.getrecursionlimit() * 3
        tree = DecisionTreeClassifier()
        counts = np.array([1.0, 1.0])
        nodes = []
        for level in range(chain):
            # internal node at 2*level: right leaf at 2*level+1, left
            # child at 2*level+2 (the next internal node, or the final
            # leaf after the loop).
            nodes.append(
                _Node(
                    feature=0,
                    threshold=0.5,
                    left=2 * level + 2,
                    right=2 * level + 1,
                    counts=counts,
                )
            )
            nodes.append(_Node(counts=counts))
        nodes.append(_Node(counts=counts))  # final left leaf
        tree._set_nodes(nodes)
        assert tree.depth() == chain

    def test_depth_matches_fitted_shape(self):
        X, y = _separable()
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        depth = tree.depth()
        assert 1 <= depth <= 4
        # Node count bounds the depth from below for a binary tree.
        assert tree.node_count >= 2 * depth + 1

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((5, 3)), np.zeros(4))

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict(np.zeros((1, 3)))

    def test_multiclass(self):
        rng = np.random.default_rng(2)
        X = rng.integers(0, 3, size=(300, 4))
        y = X[:, 0]
        tree = DecisionTreeClassifier().fit(X, y)
        assert accuracy_score(y, tree.predict(X)) == 1.0


class TestRandomForest:
    def test_beats_noise(self):
        rng = np.random.default_rng(3)
        X, y = _separable(2000, seed=3)
        flip = rng.random(len(y)) < 0.05
        noisy = np.where(flip, 1 - y, y)
        forest = RandomForestClassifier(
            n_estimators=10, max_features=0.6, random_state=0
        ).fit(X[:1500], noisy[:1500])
        assert accuracy_score(y[1500:], forest.predict(X[1500:])) > 0.93

    def test_deterministic_given_seed(self):
        X, y = _separable()
        a = RandomForestClassifier(n_estimators=5, random_state=42).fit(X, y)
        b = RandomForestClassifier(n_estimators=5, random_state=42).fit(X, y)
        assert (a.predict(X) == b.predict(X)).all()

    def test_score(self):
        X, y = _separable()
        forest = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        assert forest.score(X, y) > 0.98

    def test_max_samples(self):
        X, y = _separable()
        forest = RandomForestClassifier(
            n_estimators=3, max_samples=0.1, random_state=0
        ).fit(X, y)
        assert forest.predict(X[:5]).shape == (5,)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict_proba(np.zeros((1, 2)))

    def test_loop_path_matches_packed_default(self):
        X, y = _separable()
        forest = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        assert np.array_equal(
            forest.predict_proba(X[:100]),
            predict_proba_per_tree(forest, X[:100]),
        )

    def test_dispersion_shape(self):
        X, y = _separable(200)
        forest = RandomForestClassifier(n_estimators=4, random_state=0).fit(X, y)
        labels, dispersion = forest.predict_with_dispersion(X[:17])
        assert labels.shape == dispersion.shape == (17,)


class TestKindRowMask:
    def _matrix(self, seed=0, n_defects=9):
        """A minimal stand-in exposing the fields kind_row_mask reads."""
        from types import SimpleNamespace

        from repro.camatrix.matrix import FREE_ROW

        rng = np.random.default_rng(seed)
        defects = [
            SimpleNamespace(kind=rng.choice(["open", "short"]))
            for _ in range(n_defects)
        ]
        row_defect = rng.integers(-1, n_defects, size=40)
        row_defect[row_defect == -1] = FREE_ROW
        return SimpleNamespace(
            n_rows=40, defects=defects, row_defect=row_defect
        )

    @pytest.mark.parametrize("kinds", [None, {"open"}, {"short"}, set()])
    def test_matches_scalar_reference(self, kinds):
        from repro.camatrix.matrix import FREE_ROW
        from repro.learning import kind_row_mask

        matrix = self._matrix()
        mask = kind_row_mask(matrix, kinds)
        for row in range(matrix.n_rows):
            d = matrix.row_defect[row]
            if kinds is None or d == FREE_ROW:
                assert mask[row]
            else:
                assert mask[row] == (matrix.defects[d].kind in kinds)

    def test_no_defects(self):
        from repro.learning import kind_row_mask

        matrix = self._matrix(n_defects=0)
        matrix.row_defect[:] = -1
        assert kind_row_mask(matrix, {"open"}).all()


class TestKNN:
    def test_memorizes_training_data(self):
        X, y = _separable(200)
        knn = KNeighborsClassifier(n_neighbors=1).fit(X, y)
        assert accuracy_score(y, knn.predict(X)) == 1.0

    def test_euclidean_metric(self):
        X, y = _linear(300)
        knn = KNeighborsClassifier(n_neighbors=5, metric="euclidean").fit(
            X[:200], y[:200]
        )
        assert accuracy_score(y[200:], knn.predict(X[200:])) > 0.8

    def test_bad_metric(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(metric="cosine")

    def test_k_clamped_to_train_size(self):
        X, y = _separable(3)
        knn = KNeighborsClassifier(n_neighbors=10).fit(X, y)
        assert knn.predict(X).shape == (3,)


class TestLinearModels:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: RidgeClassifier(alpha=0.1),
            lambda: LogisticRegression(n_iterations=400),
            lambda: LinearSVC(random_state=0),
        ],
        ids=["ridge", "logreg", "svm"],
    )
    def test_solves_linear_problem(self, factory):
        X, y = _linear(800)
        clf = factory().fit(X[:600], y[:600])
        assert accuracy_score(y[600:], clf.predict(X[600:])) > 0.9

    def test_logreg_proba(self):
        X, y = _linear(200)
        clf = LogisticRegression().fit(X, y)
        proba = clf.predict_proba(X[:10])
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_unfitted_raises(self):
        for clf in (RidgeClassifier(), LogisticRegression(), LinearSVC()):
            with pytest.raises(RuntimeError):
                clf.decision_function(np.zeros((1, 2)))


class TestMetrics:
    def test_accuracy(self):
        assert accuracy_score(np.array([1, 0, 1]), np.array([1, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy_score(np.array([1]), np.array([1, 0]))

    def test_accuracy_empty(self):
        with pytest.raises(ValueError):
            accuracy_score(np.array([]), np.array([]))

    def test_confusion(self):
        cm = confusion_matrix(np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1]))
        assert cm.tolist() == [[1, 1], [0, 2]]

    def test_precision_recall_f1(self):
        p, r, f1 = precision_recall_f1(np.array([1, 1, 0, 0]), np.array([1, 0, 1, 0]))
        assert p == 0.5 and r == 0.5 and f1 == 0.5

    def test_degenerate_no_positives(self):
        p, r, f1 = precision_recall_f1(np.array([0, 0]), np.array([0, 0]))
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_report_keys(self):
        report = classification_report(np.array([1, 0]), np.array([1, 0]))
        assert set(report) == {"accuracy", "precision", "recall", "f1"}
        assert report["accuracy"] == 1.0
