"""Serialization of trained classifiers.

The hybrid flow trains one Random Forest per (inputs, transistors) group;
persisting them means a CA-generation service can answer inference
requests without retraining from the CA model library every start.

The JSON format is self-describing and covers the estimators the flow
uses (:class:`DecisionTreeClassifier`, :class:`RandomForestClassifier`)
and the fused :class:`PackedForest` table.  Loading validates the node
structure — children after their parent inside its own tree, split
features in range, array shapes matching the node count, tree offsets
partitioning the table — and rejects a corrupt payload with a
``ValueError`` naming the field, so it can neither hang a descent nor
silently mispredict.  Writes are atomic (temp file + ``os.replace``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.atomic import write_text_atomic
from repro.learning.engine import PackedForest
from repro.learning.forest import RandomForestClassifier
from repro.learning.tree import DecisionTreeClassifier

FORMAT_VERSION = 1


def _corrupt(field: str, problem: str) -> ValueError:
    return ValueError(f"corrupt classifier payload: {field!r} {problem}")


def _numeric(field: str, values: object, dtype: type) -> np.ndarray:
    """``np.array(values, dtype)``, or a ValueError naming *field*."""
    try:
        return np.array(values, dtype=dtype)
    except (TypeError, ValueError):
        raise _corrupt(field, "is non-numeric or ragged") from None


def _check_shape(field: str, values: np.ndarray, shape: tuple) -> None:
    if values.shape != shape:
        raise _corrupt(field, f"has shape {values.shape}, expected {shape}")


def _check_nodes(
    offsets: np.ndarray,
    feature: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    n_features: Optional[int],
) -> None:
    """Validate the node links of trees laid out back to back.

    Tree ``t`` owns nodes ``offsets[t]:offsets[t + 1]``.  A node's
    children are both -1 (a leaf) or both lie after it inside its tree —
    so every descent moves forward and ends at a leaf of its own tree.
    """
    if len(offsets) < 2 or offsets[0] != 0 or (np.diff(offsets) <= 0).any():
        raise _corrupt(
            "offsets", "must start at 0 and increase (every tree has a root)"
        )
    if offsets[-1] != len(feature):
        raise _corrupt(
            "offsets", f"end at {offsets[-1]}, not the node count {len(feature)}"
        )
    node = np.arange(len(feature))
    tree_end = np.repeat(offsets[1:], np.diff(offsets))
    leaf = (left == -1) & (right == -1)
    for field, child in (("left", left), ("right", right)):
        bad = ~leaf & ~((child > node) & (child < tree_end))
        if bad.any():
            at = int(np.flatnonzero(bad)[0])
            raise _corrupt(
                field,
                f"of node {at} is {int(child[at])}: children must both be -1 "
                "or both lie after their parent inside its tree",
            )
    split_feature = feature[~leaf]
    out_of_range = split_feature < 0
    if n_features is not None:
        out_of_range |= split_feature >= n_features
    if out_of_range.any():
        raise _corrupt(
            "feature",
            f"holds {int(split_feature[out_of_range][0])}, outside "
            f"[0, {n_features if n_features is not None else 'n_features'})",
        )


def tree_to_dict(tree: DecisionTreeClassifier) -> Dict:
    if tree.classes_ is None:
        raise ValueError("cannot serialize an unfitted tree")
    return {
        "kind": "decision_tree",
        "classes": tree.classes_.tolist(),
        "n_features": tree.n_features_,
        "params": {
            "max_depth": tree.max_depth,
            "min_samples_split": tree.min_samples_split,
            "min_samples_leaf": tree.min_samples_leaf,
            "max_features": tree.max_features,
            "random_state": tree.random_state,
        },
        "nodes": [
            {
                "feature": feature,
                "threshold": threshold,
                "left": left,
                "right": right,
                "counts": counts,
            }
            for feature, threshold, left, right, counts in zip(
                tree._feature.tolist(),
                tree._threshold.tolist(),
                tree._left.tolist(),
                tree._right.tolist(),
                tree._counts.tolist(),
            )
        ],
    }


def tree_from_dict(data: Dict) -> DecisionTreeClassifier:
    if data.get("kind") != "decision_tree":
        raise ValueError(f"not a decision tree payload: {data.get('kind')!r}")
    tree = DecisionTreeClassifier(**data["params"])
    tree.classes_ = np.array(data["classes"])
    tree.n_features_ = int(data["n_features"])
    tree._n_classes = len(tree.classes_)
    nodes = data["nodes"]
    if not nodes:
        raise _corrupt("nodes", "is empty")
    try:
        fields = {
            field: _numeric(field, [node[field] for node in nodes], dtype)
            for field, dtype in (
                ("feature", np.int64),
                ("threshold", np.float64),
                ("left", np.int64),
                ("right", np.int64),
                ("counts", np.float64),
            )
        }
    except KeyError as missing:
        raise _corrupt(str(missing.args[0]), "is missing from a node") from None
    _check_shape("counts", fields["counts"], (len(nodes), tree._n_classes))
    _check_nodes(
        np.array([0, len(nodes)]),
        fields["feature"],
        fields["left"],
        fields["right"],
        tree.n_features_,
    )
    tree._set_arrays(**fields)
    return tree


def forest_to_dict(forest: RandomForestClassifier) -> Dict:
    if forest.classes_ is None:
        raise ValueError("cannot serialize an unfitted forest")
    return {
        "format": FORMAT_VERSION,
        "kind": "random_forest",
        "classes": forest.classes_.tolist(),
        "params": {
            "n_estimators": forest.n_estimators,
            "max_depth": forest.max_depth,
            "min_samples_leaf": forest.min_samples_leaf,
            "max_features": forest.max_features,
            "bootstrap": forest.bootstrap,
            "max_samples": forest.max_samples,
            "random_state": forest.random_state,
        },
        "estimators": [tree_to_dict(t) for t in forest.estimators_],
    }


def forest_from_dict(data: Dict) -> RandomForestClassifier:
    if data.get("kind") != "random_forest":
        raise ValueError(f"not a random forest payload: {data.get('kind')!r}")
    if data.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported format {data.get('format')!r}")
    forest = RandomForestClassifier(**data["params"])
    forest.classes_ = np.array(data["classes"])
    forest.estimators_ = [tree_from_dict(t) for t in data["estimators"]]
    return forest


def packed_forest_to_dict(packed: PackedForest) -> Dict:
    """Serialize a :class:`PackedForest` (the fused inference table)."""
    return {
        "format": FORMAT_VERSION,
        "kind": "packed_forest",
        "classes": packed.classes_.tolist(),
        "n_estimators": packed.n_estimators,
        "offsets": packed.offsets.tolist(),
        "feature": packed.feature.tolist(),
        "threshold": packed.threshold.tolist(),
        "left": packed.left.tolist(),
        "right": packed.right.tolist(),
        "leaf_proba": packed.leaf_proba.tolist(),
        "leaf_vote": packed.leaf_vote.tolist(),
    }


def packed_forest_from_dict(data: Dict) -> PackedForest:
    if data.get("kind") != "packed_forest":
        raise ValueError(f"not a packed forest payload: {data.get('kind')!r}")
    if data.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported format {data.get('format')!r}")
    classes = np.array(data["classes"])
    n_estimators = int(data["n_estimators"])
    try:
        arrays = {
            field: _numeric(field, data[field], dtype)
            for field, dtype in (
                ("offsets", np.int64),
                ("feature", np.int64),
                ("threshold", np.float64),
                ("left", np.int64),
                ("right", np.int64),
                ("leaf_proba", np.float64),
                ("leaf_vote", np.int64),
            )
        }
    except KeyError as missing:
        raise _corrupt(str(missing.args[0]), "is missing") from None
    n_nodes = len(arrays["feature"])
    for field in ("feature", "threshold", "left", "right", "leaf_vote"):
        _check_shape(field, arrays[field], (n_nodes,))
    _check_shape("leaf_proba", arrays["leaf_proba"], (n_nodes, len(classes)))
    _check_shape("offsets", arrays["offsets"], (n_estimators + 1,))
    _check_nodes(
        arrays["offsets"], arrays["feature"], arrays["left"], arrays["right"], None
    )
    votes = arrays["leaf_vote"]
    if ((votes < 0) | (votes >= len(classes))).any():
        raise _corrupt("leaf_vote", f"holds a class index outside [0, {len(classes)})")
    return PackedForest(classes_=classes, n_estimators=n_estimators, **arrays)


def save_packed_forest(
    packed: PackedForest, path: Union[str, Path]
) -> Path:
    """Write a packed forest to JSON (inference without retraining)."""
    path = Path(path)
    write_text_atomic(path, json.dumps(packed_forest_to_dict(packed)))
    return path


def load_packed_forest(path: Union[str, Path]) -> PackedForest:
    """Read a packed forest written by :func:`save_packed_forest`."""
    return packed_forest_from_dict(json.loads(Path(path).read_text()))


def save_classifier(
    forest: RandomForestClassifier, path: Union[str, Path]
) -> Path:
    """Write a fitted forest to JSON."""
    path = Path(path)
    write_text_atomic(path, json.dumps(forest_to_dict(forest)))
    return path


def load_classifier(path: Union[str, Path]) -> RandomForestClassifier:
    """Read a forest written by :func:`save_classifier`."""
    return forest_from_dict(json.loads(Path(path).read_text()))
