"""From-scratch ML: trees, forests, baselines, metrics, protocols."""

from repro.learning.tree import DecisionTreeClassifier
from repro.learning.forest import RandomForestClassifier
from repro.learning.engine import PackedForest, candidate_features, grow_forest
from repro.learning.knn import KNeighborsClassifier
from repro.learning.linear import LinearSVC, LogisticRegression, RidgeClassifier
from repro.learning.metrics import (
    accuracy_score,
    classification_report,
    confusion_matrix,
    precision_recall_f1,
)
from repro.learning.datasets import (
    CellSample,
    build_samples,
    group_samples,
    kind_row_mask,
    sample_rows,
    stack_group,
)
from repro.learning.tuning import TuningResult, grid_search
from repro.learning.persistence import (
    load_classifier,
    load_packed_forest,
    save_classifier,
    save_packed_forest,
)
from repro.learning.importance import grouped_importance, permutation_importance
from repro.learning.evaluate import (
    CellEvaluation,
    EvaluationReport,
    cross_technology,
    default_classifier_factory,
    leave_one_out,
)

__all__ = [
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "PackedForest",
    "candidate_features",
    "grow_forest",
    "KNeighborsClassifier",
    "RidgeClassifier",
    "LogisticRegression",
    "LinearSVC",
    "accuracy_score",
    "confusion_matrix",
    "precision_recall_f1",
    "classification_report",
    "CellSample",
    "build_samples",
    "group_samples",
    "sample_rows",
    "stack_group",
    "kind_row_mask",
    "CellEvaluation",
    "EvaluationReport",
    "leave_one_out",
    "cross_technology",
    "default_classifier_factory",
    "permutation_importance",
    "grouped_importance",
    "save_classifier",
    "load_classifier",
    "save_packed_forest",
    "load_packed_forest",
    "grid_search",
    "TuningResult",
]
