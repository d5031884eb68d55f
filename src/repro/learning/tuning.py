"""Hyper-parameter search over the grouped evaluation protocol.

A small, dependency-free grid search whose scoring IS the paper's
protocol: leave-one-cell-out accuracy within training groups.  Used to
pick the defaults in :func:`repro.learning.evaluate.default_classifier_factory`
and available to users retuning for their own libraries.

Every candidate trains its own forests from the same deterministic
seed, so the ranking is a pure function of the samples and the grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.learning.datasets import CellSample
from repro.learning.evaluate import leave_one_out
from repro.learning.forest import RandomForestClassifier


def _score_candidate(
    samples: Sequence[CellSample],
    kinds: Optional[Set[str]],
    seed: int,
    params: Dict,
) -> float:
    def factory(params: Dict = params) -> RandomForestClassifier:
        return RandomForestClassifier(random_state=seed, **params)

    report = leave_one_out(samples, kinds=kinds, classifier_factory=factory)
    return report.mean_accuracy()


@dataclass
class TuningResult:
    """Grid-search outcome, best first."""

    #: (parameter dict, mean LOO accuracy) sorted descending
    ranking: List[Tuple[Dict, float]] = field(default_factory=list)

    @property
    def best_params(self) -> Dict:
        if not self.ranking:
            raise ValueError("no configurations evaluated")
        return self.ranking[0][0]

    @property
    def best_score(self) -> float:
        return self.ranking[0][1]

    def render(self) -> str:
        lines = ["params -> mean LOO accuracy"]
        for params, score in self.ranking:
            lines.append(f"  {params}: {score:.4f}")
        return "\n".join(lines)


def grid_search(
    samples: Sequence[CellSample],
    grid: Mapping[str, Sequence],
    kinds: Optional[Set[str]] = frozenset({"open"}),
    base_params: Optional[Dict] = None,
    seed: int = 0,
) -> TuningResult:
    """Evaluate every Random-Forest configuration in *grid* by LOO.

    *grid* maps RandomForestClassifier argument names to candidate value
    lists; *base_params* fixes the remaining arguments.
    """
    base = dict(base_params or {})
    names = sorted(grid)
    candidates: List[Dict] = []
    for values in itertools.product(*(grid[name] for name in names)):
        params = dict(base)
        params.update(dict(zip(names, values)))
        candidates.append(params)
    scores = [
        _score_candidate(samples, kinds, seed, params) for params in candidates
    ]
    ranking = list(zip(candidates, scores))
    ranking.sort(key=lambda item: -item[1])
    return TuningResult(ranking=ranking)
