"""Random Forest classifier (the paper's chosen algorithm, Section II.B).

"A Random Forest Classifier is composed of several Decision Tree
Classifiers ... the Forest averages the responses of all Trees and outputs
the class of the data sample."  Each tree is fitted on a bootstrap sample
with a random feature subset considered per split.

Throughput (all identity-preserving):

* Growth is fused: every tree of the forest grows in one
  level-synchronous frontier (:func:`~repro.learning.engine.grow_forest`)
  whose rows are ``(tree, distinct bootstrap row)`` pairs weighted by
  bootstrap multiplicity.  Per-tree seeds and bootstrap samples are
  drawn from the forest generator in exactly the serial order first,
  and a tree is a pure function of ``(bootstrap sample, seed)``, so the
  forest equals the oracle :func:`fit_per_tree` (each tree grown
  depth-first on its own bootstrap copy).
* Inference runs through the fused :class:`~repro.learning.engine.PackedForest`
  — one level-synchronous descent over every ``(sample, tree)`` lane
  instead of a per-tree Python loop — and is bit-for-bit equal to the
  oracle :func:`predict_proba_per_tree`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.learning.engine import M_FIT_SECONDS, PackedForest, grow_forest
from repro.learning.tree import (
    DecisionTreeClassifier,
    check_split_params,
    fit_depth_first,
)


class RandomForestClassifier:
    """Bootstrap-aggregated CART ensemble with soft voting."""

    def __init__(
        self,
        n_estimators: int = 20,
        max_depth: Optional[int] = None,
        min_samples_leaf: int = 1,
        max_features: object = "sqrt",
        bootstrap: bool = True,
        max_samples: Optional[float] = None,
        random_state: Optional[int] = None,
    ) -> None:
        # a forest without trees would "fit" and then fail to predict
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        check_split_params(min_samples_leaf, max_features)
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.max_samples = max_samples
        self.random_state = random_state
        self.estimators_: List[DecisionTreeClassifier] = []
        self.classes_: Optional[np.ndarray] = None
        self._packed: Optional[PackedForest] = None

    def _tree_params(self) -> Dict[str, object]:
        return {
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": self.max_features,
        }

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        started = time.perf_counter()
        X, labels, trees, samples = self._draw(X, y)
        self._grow(trees, samples, X, labels)
        self.estimators_ = trees
        obs.metrics().observe(M_FIT_SECONDS, time.perf_counter() - started)
        return self

    def _draw(
        self, X: np.ndarray, y: np.ndarray
    ) -> Tuple[
        np.ndarray, np.ndarray, List[DecisionTreeClassifier], List[np.ndarray]
    ]:
        """Reset the fit; returns ``(X, label codes, trees, bootstraps)``."""
        X = np.asarray(X)
        y = np.asarray(y)
        if len(X) != len(y):
            raise ValueError("X and y are misaligned")
        rng = np.random.default_rng(self.random_state)
        self.classes_, encoded = np.unique(y, return_inverse=True)
        self.estimators_ = []
        self._packed = None
        n = len(X)
        sample_size = n
        if self.max_samples is not None:
            sample_size = max(1, int(self.max_samples * n))
        # Seeds and bootstrap samples are drawn in tree order, before
        # any tree grows.
        trees: List[DecisionTreeClassifier] = []
        samples: List[np.ndarray] = []
        for _ in range(self.n_estimators):
            seed = int(rng.integers(0, 2**31 - 1))
            trees.append(
                DecisionTreeClassifier(random_state=seed, **self._tree_params())
            )
            if self.bootstrap:
                samples.append(rng.integers(0, n, size=sample_size))
        return X, encoded.astype(np.int64), trees, samples

    def _grow(
        self,
        trees: List[DecisionTreeClassifier],
        samples: List[np.ndarray],
        X: np.ndarray,
        labels: np.ndarray,
    ) -> None:
        """Grow every tree through the fused frontier and install it."""
        if X.ndim != 2:
            raise ValueError("X must be 2-D and aligned with y")
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        seeds = [tree._start_fit(X.shape[1]) for tree in trees]
        # a tree's rows: each distinct bootstrap row, weighted by how
        # often the bootstrap drew it (None: every row once)
        weights = (
            np.stack([np.bincount(s, minlength=len(X)) for s in samples])
            if self.bootstrap
            else None
        )
        assert self.classes_ is not None
        grown = grow_forest(
            X,
            labels,
            len(self.classes_),
            base_seeds=seeds,
            weights=weights,
            **trees[0]._growth_params(),
        )
        for tree, tree_grown in zip(trees, grown):
            tree._adopt(tree_grown, self.classes_)

    # ------------------------------------------------------------------
    def packed_forest(self) -> PackedForest:
        """The fused inference structure (built lazily, cached per fit)."""
        if not self.estimators_:
            raise RuntimeError("classifier is not fitted")
        if self._packed is None:
            self._packed = PackedForest.from_forest(self)
        return self._packed

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.packed_forest().predict_proba(np.asarray(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(X)
        assert self.classes_ is not None
        return self.classes_[np.argmax(proba, axis=1)]

    def vote_dispersion(self, X: np.ndarray) -> np.ndarray:
        """Per-sample tree disagreement (0 = unanimous) — the
        confidence signal for uncertainty-gated routing."""
        return self.packed_forest().vote_dispersion(np.asarray(X))

    def predict_with_dispersion(
        self, X: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(labels, vote dispersion) from one fused descent."""
        return self.packed_forest().predict_with_dispersion(np.asarray(X))

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy, scikit-learn style."""
        return float((self.predict(X) == np.asarray(y)).mean())


def fit_per_tree(
    forest: RandomForestClassifier, X: np.ndarray, y: np.ndarray
) -> RandomForestClassifier:
    """Oracle: grow each tree depth-first on its own bootstrap copy.

    Seeds and bootstraps are drawn exactly as :meth:`fit` draws them,
    so the fused fit must serialize identically to this one.
    """
    X, _, trees, samples = forest._draw(X, y)
    y = np.asarray(y)
    for t, tree in enumerate(trees):
        index = samples[t] if forest.bootstrap else np.arange(len(X))
        fit_depth_first(tree, X[index], y[index])
    forest.estimators_ = trees
    return forest


def predict_proba_per_tree(
    forest: RandomForestClassifier, X: np.ndarray
) -> np.ndarray:
    """Oracle: average the trees' probabilities, one tree at a time.

    The fused :class:`PackedForest` descent behind
    :meth:`RandomForestClassifier.predict_proba` must equal it bit for
    bit.
    """
    if not forest.estimators_:
        raise RuntimeError("classifier is not fitted")
    assert forest.classes_ is not None
    X = np.asarray(X)
    accumulated = np.zeros((len(X), len(forest.classes_)))
    for tree in forest.estimators_:
        proba = tree.predict_proba(X)
        # align tree classes (a bootstrap can miss a class entirely)
        columns = np.searchsorted(forest.classes_, tree.classes_)
        accumulated[:, columns] += proba
    return accumulated / len(forest.estimators_)
