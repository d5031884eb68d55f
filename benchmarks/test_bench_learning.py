"""Learning benches: the Section II.B algorithm comparison and RF cost.

The paper picked Random Forest "after experimenting several learning
algorithms (k-NN, Support Vector Machine, Random Forest, Linear, Ridge,
etc.) and observing their inference accuracies"; this bench reruns that
comparison on a real group and checks that Random Forest wins.
"""

import numpy as np
import pytest

from repro.camodel import generate_ca_model
from repro.learning import (
    KNeighborsClassifier,
    LinearSVC,
    LogisticRegression,
    RandomForestClassifier,
    RidgeClassifier,
    accuracy_score,
    build_samples,
    sample_rows,
    stack_group,
)
from repro.learning.forest import fit_per_tree
from repro.library import SOI28, build_cell


@pytest.fixture(scope="module")
def group_data():
    cells = [
        build_cell(SOI28, fn, 1, flavor)
        for fn in ("NAND2", "NOR2")
        for flavor in SOI28.flavors
    ]
    samples = build_samples(
        [(c, generate_ca_model(c, params=SOI28.electrical)) for c in cells],
        SOI28.electrical,
    )
    held_out = samples[0]
    train = samples[1:]
    X, y = stack_group(train)
    X_eval, y_eval = sample_rows(held_out)
    return X, y, X_eval, y_eval


ALGORITHMS = {
    "random_forest": lambda: RandomForestClassifier(
        n_estimators=8, max_features=0.5, random_state=0
    ),
    "knn": lambda: KNeighborsClassifier(n_neighbors=3),
    "ridge": lambda: RidgeClassifier(),
    "logistic": lambda: LogisticRegression(n_iterations=200),
    "linear_svm": lambda: LinearSVC(n_iterations=800, random_state=0),
}


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_algorithm_comparison(benchmark, group_data, name):
    X, y, X_eval, y_eval = group_data

    def run():
        clf = ALGORITHMS[name]()
        clf.fit(X, y)
        return accuracy_score(y_eval, clf.predict(X_eval))

    accuracy = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\n{name}: held-out accuracy {accuracy:.4f}")
    if name == "random_forest":
        assert accuracy > 0.98
    else:
        assert accuracy > 0.5


def test_random_forest_wins(group_data):
    """The paper's model-selection conclusion."""
    X, y, X_eval, y_eval = group_data
    scores = {}
    for name, factory in ALGORITHMS.items():
        clf = factory()
        clf.fit(X, y)
        scores[name] = accuracy_score(y_eval, clf.predict(X_eval))
    print("\n" + "\n".join(f"  {k}: {v:.4f}" for k, v in sorted(scores.items())))
    assert scores["random_forest"] >= max(
        v for k, v in scores.items() if k != "random_forest"
    ) - 1e-9


def test_forest_fit_predict(benchmark):
    rng = np.random.default_rng(0)
    X = rng.integers(0, 4, size=(40_000, 60)).astype(np.int8)
    y = ((X[:, 0] > 1) & (X[:, 30] == 0)).astype(int)

    def run():
        clf = RandomForestClassifier(
            n_estimators=8, max_features=0.5, random_state=0
        )
        clf.fit(X[:30_000], y[:30_000])
        return accuracy_score(y[30_000:], clf.predict(X[30_000:]))

    accuracy = benchmark.pedantic(run, rounds=1, iterations=1)
    assert accuracy > 0.99


def _pre_pr_predict_proba(forest, X):
    """The pre-frontier-engine inference path, verbatim.

    Per-tree single-lane descent plus a Python per-class alignment
    loop — the reference the fused :class:`PackedForest` descent is
    measured against (and must match bit-for-bit).
    """
    X = np.asarray(X)
    accumulated = np.zeros((len(X), len(forest.classes_)))
    for tree in forest.estimators_:
        proba = tree.predict_proba(X)
        for j, cls_ in enumerate(tree.classes_):
            k = int(np.searchsorted(forest.classes_, cls_))
            accumulated[:, k] += proba[:, j]
    return accumulated / len(forest.estimators_)


#: rounds of one recursive fit (seconds) followed by FRONTIER_PER_ROUND
#: frontier fits (tens of milliseconds); each side keeps its best time
ROUNDS = 3
FRONTIER_PER_ROUND = 10


def test_frontier_fit_speedup(bench_record, group_data):
    """Level-synchronous growth against the recursive reference.

    Same splits node for node (checked below), only the growth order
    and batching differ; the acceptance bar is 3x on the real
    NAND2/NOR2 training group.
    """
    import gc
    import time

    X, y, _, _ = group_data

    def timed(fit):
        clf = RandomForestClassifier(
            n_estimators=20, max_features=0.5, random_state=0
        )
        # As timeit does: a collection inside the window costs in
        # proportion to every object the test process holds.
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            fit(clf)
            return time.perf_counter() - start, clf
        finally:
            gc.enable()

    # Interleaved, so host drift between the two sides cannot move the
    # ratio.
    recursive_seconds = frontier_seconds = float("inf")
    for _ in range(ROUNDS):
        seconds, recursive = timed(lambda clf: fit_per_tree(clf, X, y))
        recursive_seconds = min(recursive_seconds, seconds)
        for _ in range(FRONTIER_PER_ROUND):
            seconds, frontier = timed(lambda clf: clf.fit(X, y))
            frontier_seconds = min(frontier_seconds, seconds)

    for a, b in zip(recursive.estimators_, frontier.estimators_):
        assert np.array_equal(a._feature, b._feature)
        assert np.array_equal(a._threshold, b._threshold)
        assert np.array_equal(a._counts, b._counts)

    speedup = recursive_seconds / frontier_seconds
    bench_record.add(
        "learning",
        benchmark="frontier_vs_recursive_fit",
        cells="NAND2+NOR2 SOI28",
        train_rows=len(X),
        trees=20,
        recursive_seconds=round(recursive_seconds, 4),
        frontier_seconds=round(frontier_seconds, 4),
        fit_speedup=round(speedup, 2),
    )
    print(f"\nfit: recursive {recursive_seconds:.3f}s "
          f"frontier {frontier_seconds:.3f}s -> {speedup:.2f}x")
    assert speedup >= 3.0


def test_packed_predict_speedup(bench_record, group_data):
    """Fused multi-tree inference against the per-tree reference loop.

    Hybrid-study shape: a 100-tree forest fitted on the NAND2/NOR2
    group scoring the held-out cell's rows.  The packed path must be
    bit-identical and at least 5x faster.
    """
    import time

    X, y, X_eval, _ = group_data

    forest = RandomForestClassifier(
        n_estimators=100, max_features=0.5, random_state=0
    ).fit(X, y)
    packed = forest.packed_forest()

    def best_of(fn, rounds=5):
        best = float("inf")
        value = None
        for _ in range(rounds):
            start = time.perf_counter()
            value = fn()
            best = min(best, time.perf_counter() - start)
        return best, value

    loop_seconds, loop_proba = best_of(
        lambda: _pre_pr_predict_proba(forest, X_eval)
    )
    packed_seconds, packed_proba = best_of(
        lambda: packed.predict_proba(X_eval)
    )

    assert np.array_equal(loop_proba, packed_proba)

    speedup = loop_seconds / packed_seconds
    bench_record.add(
        "learning",
        benchmark="packed_vs_loop_predict",
        cells="NAND2+NOR2 SOI28",
        eval_rows=len(X_eval),
        trees=100,
        loop_seconds=round(loop_seconds, 4),
        packed_seconds=round(packed_seconds, 4),
        predict_speedup=round(speedup, 2),
    )
    print(f"\npredict: loop {loop_seconds*1e3:.1f}ms "
          f"packed {packed_seconds*1e3:.1f}ms -> {speedup:.2f}x")
    assert speedup >= 5.0
