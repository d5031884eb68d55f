"""CART decision-tree classifier (NumPy, from scratch).

scikit-learn (the paper's ML backend) is not available offline, so the
estimators are re-implemented.  The tree exploits a property of the
CA-matrix: every feature is a small integer code, so exhaustive split
search per feature is a bincount away and splits are exact.

:meth:`DecisionTreeClassifier.fit` is a one-tree, unit-weight call of
the fused level-synchronous grower
:func:`repro.learning.engine.grow_forest`: one flat histogram pass per
level over the whole frontier of open nodes, no recursion (deep
chain-shaped trees cannot hit the recursion limit).
:func:`fit_depth_first` is the original depth-first grower, kept only
as the oracle the frontier must equal **node for node** (the
differential suite in ``tests/test_learning_engine.py`` and the fit
bench compare against it).

Both draw each node's candidate-feature subset from a per-node
generator keyed on the node's heap path
(:func:`repro.learning.engine.candidate_features`), so the trees they
grow do not depend on traversal order.  A fitted tree is a set of flat
node arrays (feature, threshold, left, right, class counts) in
DFS-preorder.

The API follows the scikit-learn conventions the paper's flow relies on:
``fit(X, y)`` / ``predict(X)`` / ``predict_proba(X)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.learning.engine import (
    GrownTree,
    candidate_features,
    grow_forest,
    sum_over_classes,
)


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    #: class-count distribution at the node (leaf payload)
    counts: Optional[np.ndarray] = None

    @property
    def is_leaf(self) -> bool:
        return self.left < 0


class DecisionTreeClassifier:
    """Binary-split CART with Gini impurity on integer-coded features."""

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Optional[object] = None,
        random_state: Optional[int] = None,
    ) -> None:
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self._set_nodes([])
        self.classes_: Optional[np.ndarray] = None
        self.n_features_: int = 0

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        X, classes, labels = _encode(X, y)
        (grown,) = grow_forest(
            X,
            labels,
            len(classes),
            base_seeds=[self._start_fit(X.shape[1])],
            weights=None,
            **self._growth_params(),
        )
        self._adopt(grown, classes)
        return self

    def _start_fit(self, n_features: int) -> int:
        """Record the input width and draw the base seed (returned).

        One draw turns ``random_state`` into the base entropy every
        per-node candidate draw derives from (None stays entropic).
        """
        self.n_features_ = n_features
        seed_rng = np.random.default_rng(self.random_state)
        self._base_seed = int(seed_rng.integers(0, 2**63 - 1))
        return self._base_seed

    def _growth_params(self) -> Dict[str, Any]:
        """Keyword arguments of :func:`grow_forest` for this tree."""
        return {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "n_candidates": self._n_candidate_features(),
        }

    def _adopt(self, grown: GrownTree, classes: np.ndarray) -> None:
        """Install a tree grown by :func:`grow_forest`.

        *classes* maps the grower's label codes back to labels; the tree
        keeps the ones its rows held.
        """
        self.classes_ = classes[grown.classes]
        self._n_classes = len(self.classes_)
        self._set_arrays(
            grown.feature, grown.threshold, grown.left, grown.right, grown.counts
        )

    def _set_arrays(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        """Install the flat node arrays (int64 links and features, float64
        thresholds and counts) used for prediction and export."""
        self._feature = feature
        self._threshold = threshold
        self._left = left
        self._right = right
        self._leaf = left < 0
        self._counts = counts

    def _set_nodes(self, nodes: List[_Node]) -> None:
        """Install the depth-first grower's node objects as flat arrays."""
        self._set_arrays(
            np.array([node.feature for node in nodes], dtype=np.int64),
            np.array([node.threshold for node in nodes], dtype=np.float64),
            np.array([node.left for node in nodes], dtype=np.int64),
            np.array([node.right for node in nodes], dtype=np.int64),
            np.vstack([node.counts for node in nodes]) if nodes else np.zeros((0, 0)),
        )

    def _n_candidate_features(self) -> int:
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        if self.max_features == "log2":
            return max(1, int(np.log2(self.n_features_)))
        if isinstance(self.max_features, float):
            return max(1, int(self.max_features * self.n_features_))
        return min(self.n_features_, int(self.max_features))

    # ------------------------------------------------------------------
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        if self.classes_ is None:
            raise RuntimeError("classifier is not fitted")
        rows = np.arange(len(X))
        node_ids = np.zeros(len(X), dtype=np.int64)
        # Level-synchronous descent: every sample takes one step per pass.
        while True:
            at_leaf = self._leaf[node_ids]
            if at_leaf.all():
                break
            features = np.where(at_leaf, 0, self._feature[node_ids])
            go_left = X[rows, features] <= self._threshold[node_ids]
            stepped = np.where(
                go_left, self._left[node_ids], self._right[node_ids]
            )
            node_ids = np.where(at_leaf, node_ids, stepped)
        counts = self._counts[node_ids]
        totals = counts.sum(axis=1, keepdims=True)
        return counts / np.maximum(totals, 1.0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    @property
    def node_count(self) -> int:
        return len(self._feature)

    def depth(self) -> int:
        """Actual depth of the grown tree.

        Iterative: children always follow their parent, so a single
        reverse pass over the nodes computes every subtree depth
        bottom-up.  Degenerate chain-shaped trees (one node per level,
        as ``max_depth=None`` can grow on adversarial data) must not hit
        Python's recursion limit here.
        """
        left, right = self._left.tolist(), self._right.tolist()
        if not left:
            return 0
        below = [0] * len(left)
        for node_id in range(len(left) - 1, -1, -1):
            if left[node_id] >= 0:
                below[node_id] = 1 + max(below[left[node_id]], below[right[node_id]])
        return below[0]


def _encode(
    X: np.ndarray, y: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate a training set; returns ``(X, classes, label codes)``."""
    X = np.asarray(X)
    y = np.asarray(y)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be 2-D and aligned with y")
    if len(y) == 0:
        raise ValueError("cannot fit on an empty dataset")
    classes, encoded = np.unique(y, return_inverse=True)
    return X, classes, encoded.astype(np.int64)


def fit_depth_first(
    tree: DecisionTreeClassifier, X: np.ndarray, y: np.ndarray
) -> DecisionTreeClassifier:
    """Oracle: fit *tree* with the recursive depth-first grower.

    :meth:`DecisionTreeClassifier.fit` must produce the same tree node
    for node; tests and benches compare against this reference.
    """
    X, classes, labels = _encode(X, y)
    tree._start_fit(X.shape[1])
    tree.classes_ = classes
    tree._n_classes = len(classes)
    nodes: List[_Node] = []
    _grow_depth_first(tree, nodes, X, labels, np.arange(len(labels)), 0, 1)
    tree._set_nodes(nodes)
    return tree


def _grow_depth_first(
    tree: DecisionTreeClassifier,
    nodes: List[_Node],
    X: np.ndarray,
    y: np.ndarray,
    index: np.ndarray,
    depth: int,
    path_key: int = 1,
) -> int:
    node_id = len(nodes)
    node = _Node()
    nodes.append(node)
    labels = y[index]
    counts = np.bincount(labels, minlength=tree._n_classes).astype(np.float64)
    node.counts = counts

    if (
        len(index) < tree.min_samples_split
        or (tree.max_depth is not None and depth >= tree.max_depth)
        or counts.max() == counts.sum()
    ):
        return node_id

    split = _best_split(tree, X, y, index, path_key)
    if split is None:
        return node_id
    feature, threshold = split
    mask = X[index, feature] <= threshold
    left_index = index[mask]
    right_index = index[~mask]
    if len(left_index) < tree.min_samples_leaf or len(right_index) < tree.min_samples_leaf:
        return node_id
    node.feature = feature
    node.threshold = threshold
    node.left = _grow_depth_first(tree, nodes, X, y, left_index, depth + 1, 2 * path_key)
    node.right = _grow_depth_first(
        tree, nodes, X, y, right_index, depth + 1, 2 * path_key + 1
    )
    return node_id


def _best_split(
    tree: DecisionTreeClassifier,
    X: np.ndarray,
    y: np.ndarray,
    index: np.ndarray,
    path_key: int,
) -> Optional[Tuple[int, float]]:
    n = len(index)
    labels = y[index]
    candidates = candidate_features(
        tree._base_seed,
        path_key,
        tree.n_features_,
        tree._n_candidate_features(),
    )
    best_score = np.inf
    best: Optional[Tuple[int, float]] = None
    min_leaf = tree.min_samples_leaf
    for feature in candidates:
        column = X[index, feature].astype(np.int64)
        low = column.min()
        span = int(column.max() - low)
        if span == 0:
            continue
        shifted = column - low
        # per-value class histogram in one bincount
        flat = shifted * tree._n_classes + labels
        histogram = np.bincount(
            flat, minlength=(span + 1) * tree._n_classes
        ).reshape(span + 1, tree._n_classes)
        prefix = histogram.cumsum(axis=0)[:-1]  # candidate left partitions
        left_totals = prefix.sum(axis=1)
        right_totals = n - left_totals
        valid = (left_totals >= min_leaf) & (right_totals >= min_leaf)
        if not valid.any():
            continue
        total = prefix[-1] + histogram[-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            gini_left = 1.0 - sum_over_classes(
                (prefix / left_totals[:, None]) ** 2, axis=1
            )
            right_counts = total[None, :] - prefix
            gini_right = 1.0 - sum_over_classes(
                (right_counts / right_totals[:, None]) ** 2, axis=1
            )
        weighted = (left_totals * gini_left + right_totals * gini_right) / n
        weighted[~valid] = np.inf
        k = int(np.argmin(weighted))
        if weighted[k] < best_score:
            best_score = weighted[k]
            best = (int(feature), float(low + k + 0.5))
    # Zero-gain splits are allowed (XOR-style regions need them to make
    # progress); termination is guaranteed because both sides of a
    # valid split are non-empty.
    return best
