"""The hybrid CA model generation flow (Fig. 7 of the paper).

For every cell to characterize:

1. **Structural analysis** — check whether the training set holds a cell
   with an identical or equivalent structure (Fig. 6) in the same group.
2. **ML path** — if yes, build the CA-matrix and let the group's trained
   classifier predict the detection table; parse it into a CA model.
3. **Simulation path** — otherwise run the conventional flow, and feed
   the newly simulated model back into the training set ("a feedback loop
   uses this new simulated CA model to supplement the training datasets").

Time accounting runs through :class:`~repro.flow.cost.CostModel`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro import obs
from repro.camatrix.matrix import build_matrix
from repro.camatrix.rename import RenamedCell, rename_transistors
from repro.camodel.generate import generate_ca_model
from repro.camodel.model import CAModel
from repro.flow.cost import CostModel, GenerationLedger
from repro.flow.similarity import SimilarityIndex
from repro.flow.structure import EQUIVALENT, IDENTICAL, NONE, StructuralIndex

#: routing verdict of the relaxed (similarity-based) structural analysis
RELAXED = "relaxed"
from repro.learning.datasets import CellSample, GroupKey, stack_group
from repro.learning.evaluate import (
    ClassifierFactory,
    DEFAULT_MAX_GROUP_ROWS,
    default_classifier_factory,
    _cap_rows,
)
from repro.library.technology import ElectricalParams
from repro.spice.netlist import CellNetlist


@dataclass
class CellDecision:
    """Outcome of the hybrid flow for one cell."""

    cell_name: str
    group_key: GroupKey
    match: str  # identical / equivalent / none
    route: str  # 'ml' or 'simulate'
    seconds: float
    model: Optional[CAModel] = None
    #: ML prediction accuracy against a reference model, when one was
    #: provided; always ``None`` on the simulation route (the simulated
    #: model *is* the reference)
    accuracy: Optional[float] = None


@dataclass
class HybridReport:
    """Aggregate of one hybrid-flow run (the Section V.C study)."""

    decisions: List[CellDecision] = field(default_factory=list)
    ledger: GenerationLedger = field(default_factory=GenerationLedger)

    def count(self, match: str) -> int:
        return sum(1 for d in self.decisions if d.match == match)

    def fractions(self) -> Dict[str, float]:
        total = max(len(self.decisions), 1)
        out = {
            IDENTICAL: self.count(IDENTICAL) / total,
            EQUIVALENT: self.count(EQUIVALENT) / total,
            NONE: self.count(NONE) / total,
        }
        relaxed = self.count(RELAXED)
        if relaxed:
            out[RELAXED] = relaxed / total
        return out

    def summary(self) -> Dict[str, object]:
        out: Dict[str, object] = {"cells": len(self.decisions)}
        out.update(
            {f"match_{k}": round(v, 4) for k, v in self.fractions().items()}
        )
        out.update(self.ledger.summary())
        # Only ML-routed cells carry a prediction accuracy; simulated cells
        # ARE the reference, and averaging them in (as trivially perfect
        # scores) would overstate the classifier's accuracy.
        accuracies = [
            d.accuracy
            for d in self.decisions
            if d.route == "ml" and d.accuracy is not None
        ]
        if accuracies:
            out["ml_mean_accuracy"] = round(float(np.mean(accuracies)), 4)
        return out


class HybridFlow:
    """Stateful hybrid generator seeded with an existing CA model library."""

    def __init__(
        self,
        training_samples: Sequence[CellSample],
        params: Optional[ElectricalParams] = None,
        classifier_factory: Optional[ClassifierFactory] = None,
        cost_model: Optional[CostModel] = None,
        kinds: Optional[Set[str]] = None,
        max_group_rows: int = DEFAULT_MAX_GROUP_ROWS,
        router: str = "strict",
        similarity_threshold: float = 0.6,
    ) -> None:
        if router not in ("strict", "relaxed"):
            raise ValueError(f"unknown router {router!r}")
        self.params = params
        self.classifier_factory = (
            classifier_factory or default_classifier_factory()
        )
        self.cost_model = cost_model or CostModel()
        self.kinds = kinds
        self.max_group_rows = max_group_rows
        self.router = router
        self.similarity_threshold = similarity_threshold

        self.report = HybridReport()
        self.index = StructuralIndex()
        self.similarity = SimilarityIndex()
        self._groups: Dict[GroupKey, List[CellSample]] = {}
        for sample in training_samples:
            self._groups.setdefault(sample.group_key, []).append(sample)
            self.index.add(sample.matrix.renamed)
            self.similarity.add(sample.matrix.renamed)
        self._classifiers: Dict[GroupKey, object] = {}

    # ------------------------------------------------------------------
    def _classifier(self, key: GroupKey) -> object:
        clf = self._classifiers.get(key)
        if clf is None:
            group = self._groups[key]
            cap = _cap_rows(group, self.max_group_rows)
            X, y = stack_group(group, kinds=self.kinds, max_rows_per_cell=cap)
            clf = self.classifier_factory()
            with obs.tracer().span(
                "learning.fit", group=str(key), rows=len(y), cells=len(group)
            ):
                clf.fit(X, y)
            self._classifiers[key] = clf
        return clf

    def decide(self, cell: CellNetlist, renamed: Optional[RenamedCell] = None) -> str:
        """Structural analysis verdict for one cell."""
        renamed = renamed or rename_transistors(cell, params=self.params)
        return self.index.match(renamed)

    # ------------------------------------------------------------------
    def generate(
        self,
        cell: CellNetlist,
        reference: Optional[CAModel] = None,
        policy: str = "auto",
        quarantined: bool = False,
    ) -> CellDecision:
        """Characterize one cell through the hybrid flow.

        The whole per-cell window — structural analysis (rename + match)
        plus whichever path ran — is one ``flow.cell`` span, and on the ML
        route the *same* wall-clock window is what the ledger records, so
        ledger seconds and span durations agree by construction.  The
        routing verdict is emitted as a structured ``hybrid.route`` event
        with the reason.

        ``quarantined=True`` marks a cell a resilient characterization
        run quarantined (see :mod:`repro.resilience`): it is routed
        straight to the simulation lane — its previous failures mean no
        trustworthy model or training row exists for it — and, like any
        simulated cell, feeds the training set on success.
        """
        tracer = obs.tracer()
        started = time.perf_counter()
        with tracer.span("flow.cell", cell=cell.name) as cell_span:
            with tracer.span("flow.structure", cell=cell.name) as structure_span:
                renamed = rename_transistors(cell, params=self.params)
                if quarantined:
                    match = NONE
                    reason = (
                        "quarantined by characterization run; "
                        "routed to simulation lane"
                    )
                else:
                    match = self.index.match(renamed)
                    reason = f"structural match: {match}"
                    if match == NONE and self.router == "relaxed":
                        # Section V.C extension: admit structurally
                        # *similar* cells.
                        if self.similarity.admits(
                            renamed, self.similarity_threshold
                        ):
                            match = RELAXED
                            reason = (
                                "similarity >= "
                                f"{self.similarity_threshold} (relaxed router)"
                            )
                structure_span.set("match", match)
            route = "ml" if match != NONE else "simulate"
            if route == "simulate" and not quarantined:
                reason = "no structural or similar match in training set"
            obs.events().info(
                "hybrid.route",
                cell=cell.name,
                route=route,
                match=match,
                reason=reason,
                quarantined=quarantined,
            )
            cell_span.set("route", route)
            cell_span.set("match", match)
            cell_span.set("reason", reason)

            if match != NONE:
                with tracer.span("flow.ml", cell=cell.name):
                    with tracer.span("camatrix.build", cell=cell.name):
                        matrix = build_matrix(
                            cell, model=reference, params=self.params,
                            policy=policy, renamed=renamed,
                        )
                    clf = self._classifier(cell.group_key)
                    with tracer.span(
                        "learning.predict", cell=cell.name, rows=matrix.n_rows
                    ):
                        predicted_labels = clf.predict(matrix.features)
                    model = matrix.to_model(predicted_labels)
                # The ML wall time covers rename AND predict: the window
                # opened before the structural analysis, because renaming
                # is work the ML path pays (the simulation path would have
                # paid it anyway, but its cost there is noise).
                seconds = time.perf_counter() - started
                accuracy = None
                if reference is not None and matrix.labels is not None:
                    accuracy = float(
                        (np.asarray(predicted_labels) == matrix.labels).mean()
                    )
                self.ledger_record_ml(cell, seconds, policy)
                decision = CellDecision(
                    cell_name=cell.name,
                    group_key=cell.group_key,
                    match=match,
                    route="ml",
                    seconds=seconds,
                    model=model,
                    accuracy=accuracy,
                )
            else:
                model = generate_ca_model(cell, params=self.params, policy=policy)
                seconds = time.perf_counter() - started
                self.report.ledger.record_simulated(
                    self.cost_model.spice_seconds_for_model(model)
                )
                # Feedback: the simulated model supplements the training set.
                with tracer.span("flow.feedback", cell=cell.name):
                    self._feedback(cell, model)
                # No accuracy for simulated cells: the conventional flow is the
                # reference, so a score here would always be a meaningless 1.0.
                decision = CellDecision(
                    cell_name=cell.name,
                    group_key=cell.group_key,
                    match=match,
                    route="simulate",
                    seconds=seconds,
                    model=model,
                    accuracy=None,
                )
            cell_span.set("seconds", seconds)
        self.report.decisions.append(decision)
        return decision

    def ledger_record_ml(self, cell: CellNetlist, seconds: float, policy: str) -> None:
        self.report.ledger.record_predicted(
            ml_seconds=seconds,
            avoided_spice_seconds=self.cost_model.spice_seconds(cell, policy),
        )

    def _feedback(self, cell: CellNetlist, model: CAModel) -> None:
        from repro.camatrix.pipeline import training_matrix

        matrix = training_matrix(cell, model, self.params)
        sample = CellSample(cell=cell, model=model, matrix=matrix)
        self._groups.setdefault(cell.group_key, []).append(sample)
        self.index.add(matrix.renamed)
        self.similarity.add(matrix.renamed)
        self._classifiers.pop(cell.group_key, None)  # retrain lazily

    # ------------------------------------------------------------------
    def run(
        self,
        cells: Iterable[CellNetlist],
        references: Optional[Dict[str, CAModel]] = None,
        policy: str = "auto",
        quarantined: Optional[Iterable[str]] = None,
    ) -> HybridReport:
        """Characterize a set of cells; returns the aggregate report.

        ``quarantined`` names cells a resilient characterization run
        quarantined (e.g. from
        :func:`repro.resilience.quarantined_cells`); they bypass the ML
        path and go straight to the simulation lane.
        """
        self.report = HybridReport()
        quarantine = set(quarantined or ())
        for cell in cells:
            reference = references.get(cell.name) if references else None
            self.generate(
                cell,
                reference=reference,
                policy=policy,
                quarantined=cell.name in quarantine,
            )
        return self.report
