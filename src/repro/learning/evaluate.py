"""Evaluation protocols of Section V.A.

* :func:`leave_one_out` — the same-technology protocol: within each
  (#inputs, #transistors) group, train on m-1 cells and predict the m-th,
  looping so every cell is evaluated once (Table IV.a).
* :func:`cross_technology` — train on every group of one technology,
  evaluate each cell of another technology against its same-key group
  (Tables IV.b / IV.c).  Groups with no training counterpart are reported
  as uncovered (the paper's empty boxes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from repro import obs
from repro.learning.datasets import (
    CellSample,
    GroupKey,
    group_samples,
    sample_rows,
    stack_group,
)
from repro.learning.forest import RandomForestClassifier
from repro.learning.metrics import accuracy_score

#: keep stacked group training sets below this many rows by per-cell
#: subsampling — keeps Random Forest training tractable at library scale
DEFAULT_MAX_GROUP_ROWS = 150_000

ClassifierFactory = Callable[[], object]


def default_classifier_factory(seed: int = 0) -> ClassifierFactory:
    """The reproduction's default Random Forest configuration.

    The CA-matrix labels are nearly noise-free, so a few deep trees with a
    large per-split feature fraction dominate the usual sqrt-features
    setting (which too often misses the one defect-location column a
    split needs).
    """

    def make() -> RandomForestClassifier:
        return RandomForestClassifier(
            n_estimators=8,
            max_depth=None,
            max_features=0.5,
            random_state=seed,
        )

    return make


@dataclass
class CellEvaluation:
    """Accuracy of one predicted cell."""

    cell_name: str
    group_key: GroupKey
    accuracy: float
    n_rows: int
    n_training_cells: int


@dataclass
class EvaluationReport:
    """Per-cell results plus helpers mirroring the paper's aggregations."""

    evaluations: List[CellEvaluation] = field(default_factory=list)
    #: cells that could not be evaluated (no group peer in the training set)
    uncovered: List[str] = field(default_factory=list)

    def by_group(self) -> Dict[GroupKey, List[CellEvaluation]]:
        groups: Dict[GroupKey, List[CellEvaluation]] = {}
        for e in self.evaluations:
            groups.setdefault(e.group_key, []).append(e)
        return groups

    def group_table(self) -> Dict[GroupKey, Dict[str, float]]:
        """Per-group average / max accuracy — the Table IV box contents."""
        out: Dict[GroupKey, Dict[str, float]] = {}
        for key, items in self.by_group().items():
            accuracies = [e.accuracy for e in items]
            out[key] = {
                "mean": float(np.mean(accuracies)),
                "max": float(np.max(accuracies)),
                "cells": len(items),
                "perfect": sum(1 for a in accuracies if a >= 1.0 - 1e-12),
            }
        return out

    def accuracy_fraction_above(self, threshold: float = 0.97) -> float:
        """Fraction of evaluated cells above an accuracy threshold
        (Section V.B reports the > 97 % share)."""
        if not self.evaluations:
            return 0.0
        return float(
            np.mean([e.accuracy > threshold for e in self.evaluations])
        )

    def mean_accuracy(self) -> float:
        if not self.evaluations:
            return 0.0
        return float(np.mean([e.accuracy for e in self.evaluations]))


def _cap_rows(samples: Sequence[CellSample], max_group_rows: int) -> Optional[int]:
    if not samples:
        return None
    per_cell = max(1, max_group_rows // len(samples))
    largest = max(s.matrix.n_rows for s in samples)
    return per_cell if largest > per_cell else None


def leave_one_out(
    samples: Sequence[CellSample],
    kinds: Optional[Set[str]] = frozenset({"open"}),
    classifier_factory: Optional[ClassifierFactory] = None,
    max_group_rows: int = DEFAULT_MAX_GROUP_ROWS,
) -> EvaluationReport:
    """Same-technology protocol (Table IV.a)."""
    factory = classifier_factory or default_classifier_factory()
    report = EvaluationReport()
    for key, group in sorted(group_samples(samples).items()):
        if len(group) < 2:
            # "Empty boxes mean that there is zero or one cell available"
            report.uncovered.extend(s.name for s in group)
            continue
        cap = _cap_rows(group, max_group_rows)
        for held_out in group:
            train = [s for s in group if s is not held_out]
            X, y = stack_group(train, kinds=kinds, max_rows_per_cell=cap)
            clf = factory()
            with obs.tracer().span(
                "learning.fit", group=str(key), rows=len(y), cells=len(train)
            ):
                clf.fit(X, y)
            X_eval, y_eval = sample_rows(held_out, kinds=kinds)
            with obs.tracer().span(
                "learning.predict", cell=held_out.name, rows=len(y_eval)
            ):
                predicted = clf.predict(X_eval)
            accuracy = accuracy_score(y_eval, predicted)
            report.evaluations.append(
                CellEvaluation(
                    cell_name=held_out.name,
                    group_key=key,
                    accuracy=accuracy,
                    n_rows=len(y_eval),
                    n_training_cells=len(train),
                )
            )
    return report


def cross_technology(
    train_samples: Sequence[CellSample],
    eval_samples: Sequence[CellSample],
    kinds: Optional[Set[str]] = frozenset({"open"}),
    classifier_factory: Optional[ClassifierFactory] = None,
    max_group_rows: int = DEFAULT_MAX_GROUP_ROWS,
) -> EvaluationReport:
    """Cross-technology protocol (Tables IV.b and IV.c)."""
    factory = classifier_factory or default_classifier_factory()
    train_groups = group_samples(train_samples)
    report = EvaluationReport()
    classifiers: Dict[GroupKey, object] = {}
    for key, group in sorted(group_samples(eval_samples).items()):
        train = train_groups.get(key, [])
        if not train:
            report.uncovered.extend(s.name for s in group)
            continue
        if key not in classifiers:
            cap = _cap_rows(train, max_group_rows)
            X, y = stack_group(train, kinds=kinds, max_rows_per_cell=cap)
            clf = factory()
            with obs.tracer().span(
                "learning.fit", group=str(key), rows=len(y), cells=len(train)
            ):
                clf.fit(X, y)
            classifiers[key] = clf
        clf = classifiers[key]
        for sample in group:
            X_eval, y_eval = sample_rows(sample, kinds=kinds)
            with obs.tracer().span(
                "learning.predict", cell=sample.name, rows=len(y_eval)
            ):
                predicted = clf.predict(X_eval)
            accuracy = accuracy_score(y_eval, predicted)
            report.evaluations.append(
                CellEvaluation(
                    cell_name=sample.name,
                    group_key=key,
                    accuracy=accuracy,
                    n_rows=len(y_eval),
                    n_training_cells=len(train),
                )
            )
    return report
