"""Integration tests: obs instrumentation across generation, flow, stats.

Pins down the subsystem's load-bearing guarantees:

* a two-worker service run produces one coherent span tree (every
  worker's ``camodel.generate`` span under the coordinator's
  ``service.serve``, no orphaned parents), and disabled tracing buffers
  nothing;
* ``GenerationStats`` is a view over the metrics registry (same numbers,
  single source of truth);
* the hybrid flow's ledger ML seconds equal the per-cell span windows;
* ``GenerationStats.from_dict`` names unknown keys in a structured
  warning event and still round-trips.
"""

import pytest

from repro import obs
from repro.camodel import generate_ca_model
from repro.camodel.stats import (
    GenerationStats,
    M_CACHE_HITS,
    M_DEFECT_SECONDS,
    M_GOLDEN_SECONDS,
    M_SIMULATED,
    M_SKIPPED,
    M_SOLVES,
    M_TOTAL_SECONDS,
)
from repro.flow import HybridFlow
from repro.learning import build_samples
from repro.library import C28, SOI28, build_cell
from repro.service import serve, submit_library


def traced_state():
    """Fresh enabled scope for one test."""
    return dict(
        tracer=obs.Tracer(enabled=True),
        metrics=obs.Metrics(),
        events=obs.EventLog(obs.ListSink()),
    )


class TestParallelTraceMerge:
    def test_disabled_tracing_buffers_nothing(self, nand2):
        with obs.scoped(
            tracer=obs.Tracer(enabled=False), metrics=obs.Metrics()
        ) as state:
            generate_ca_model(nand2, params=SOI28.electrical)
            assert state.tracer.export() == []

    def test_batch_pool_reparents_under_library_span(self, tmp_path):
        cells = [build_cell(SOI28, fn, 1) for fn in ("NAND2", "NOR2")]
        with obs.scoped(**traced_state()) as state:
            submit_library(
                cells, run_dir=tmp_path / "run", params=SOI28.electrical
            )
            models = serve(tmp_path / "run", workers=2).models
            spans = state.tracer.export()
            registry = state.metrics
        assert set(models) == {c.name for c in cells}
        library_span = next(s for s in spans if s["name"] == "service.serve")
        generate_spans = [s for s in spans if s["name"] == "camodel.generate"]
        assert len(generate_spans) == 2
        for span in generate_spans:
            assert span["parent_id"] == library_span["span_id"]
            assert span["pid"] != library_span["pid"]
        assert obs.orphan_parents(spans) == []
        # worker metric deltas merged into the parent registry
        total_simulated = sum(
            m.stats.simulated_defects for m in models.values()
        )
        assert registry.get(M_SIMULATED) == total_simulated


class TestStatsAreMetricsView:
    def test_stats_equal_registry_deltas(self, nand2):
        with obs.scoped(metrics=obs.Metrics()) as state:
            model = generate_ca_model(nand2, params=SOI28.electrical)
            registry = state.metrics
        stats = model.stats
        assert stats.solves == registry.get(M_SOLVES)
        assert stats.cache_hits == registry.get(M_CACHE_HITS)
        assert stats.simulated_defects == registry.get(M_SIMULATED)
        assert stats.skipped_defects == registry.get(M_SKIPPED)
        assert stats.golden_seconds == registry.get(M_GOLDEN_SECONDS)
        assert stats.defect_seconds == registry.get(M_DEFECT_SECONDS)
        assert stats.total_seconds == registry.get(M_TOTAL_SECONDS)
        assert stats.simulated_defects + stats.skipped_defects == model.n_defects

    def test_registry_accumulates_across_cells(self):
        cells = [build_cell(SOI28, "NAND2", 1), build_cell(SOI28, "NOR2", 1)]
        with obs.scoped(metrics=obs.Metrics()) as state:
            models = [
                generate_ca_model(c, params=SOI28.electrical) for c in cells
            ]
            registry = state.metrics
        assert registry.get(M_SOLVES) == sum(m.stats.solves for m in models)
        assert registry.get(M_SIMULATED) == sum(
            m.stats.simulated_defects for m in models
        )


class TestHybridLedgerMatchesSpans:
    @pytest.fixture(scope="class")
    def train_samples(self):
        cells = [
            build_cell(SOI28, "NAND2", drive, flavor)
            for drive in (1, 2)
            for flavor in SOI28.flavors[:2]
        ]
        return build_samples(
            [(c, generate_ca_model(c, params=SOI28.electrical)) for c in cells],
            SOI28.electrical,
        )

    def test_ml_ledger_seconds_equal_span_windows(self, train_samples):
        target = build_cell(C28, "NAND2", 1)
        with obs.scoped(**traced_state()) as state:
            flow = HybridFlow(train_samples, params=C28.electrical)
            decision = flow.generate(target)
            spans = state.tracer.export()
            sink = state.events.sink
        assert decision.route == "ml"

        cell_span = next(s for s in spans if s["name"] == "flow.cell")
        # the seconds the ledger recorded are the span's own window
        assert cell_span["attrs"]["seconds"] == decision.seconds
        assert flow.report.ledger.ml_seconds == decision.seconds
        assert cell_span["duration"] == pytest.approx(
            decision.seconds, abs=0.05
        )
        # the ML path decomposes inside the window
        assert {s["name"] for s in spans} >= {
            "flow.cell",
            "flow.structure",
            "flow.ml",
            "camatrix.build",
            "learning.fit",
            "learning.predict",
        }
        assert obs.orphan_parents(spans) == []

        # routing decision surfaced as a structured event with a reason
        route_events = sink.named("hybrid.route")
        assert len(route_events) == 1
        fields = route_events[0].fields
        assert fields["cell"] == target.name
        assert fields["route"] == "ml"
        assert "match" in fields and fields["reason"]

    def test_simulation_route_event_has_reason(self, train_samples):
        target = build_cell(SOI28, "AOI21", 1)  # no group peer in training
        with obs.scoped(**traced_state()) as state:
            flow = HybridFlow(train_samples, params=SOI28.electrical)
            decision = flow.generate(target)
            sink = state.events.sink
        assert decision.route == "simulate"
        (event,) = sink.named("hybrid.route")
        assert event.fields["route"] == "simulate"
        assert "no structural or similar match" in event.fields["reason"]


class TestStatsUnknownKeys:
    def test_unknown_keys_warn_and_roundtrip(self):
        stats = GenerationStats(workers=2, solves=10, cache_hits=5)
        payload = stats.to_dict()
        payload["future_field"] = 123
        payload["zz_other"] = "x"
        sink = obs.ListSink()
        with obs.scoped(events=obs.EventLog(sink)):
            restored = GenerationStats.from_dict(payload)
        # round-trips the known fields
        assert restored == stats
        (event,) = sink.named("stats.unknown_keys")
        assert event.level == "warning"
        assert event.fields["keys"] == ["future_field", "zz_other"]
        assert "future_field" in event.fields["msg"]

    def test_known_keys_emit_nothing(self):
        stats = GenerationStats(workers=1, solves=1)
        sink = obs.ListSink()
        with obs.scoped(events=obs.EventLog(sink)):
            GenerationStats.from_dict(stats.to_dict())
        assert sink.events == []

    def test_from_metrics_view(self):
        counters = {
            M_SOLVES: 11,
            M_CACHE_HITS: 4,
            M_SIMULATED: 7,
            M_SKIPPED: 3,
            M_GOLDEN_SECONDS: 0.25,
            M_DEFECT_SECONDS: 1.5,
            M_TOTAL_SECONDS: 2.0,
        }
        stats = GenerationStats.from_metrics(counters)
        assert stats.workers == 1
        assert stats.solves == 11 and stats.cache_hits == 4
        assert stats.simulated_defects == 7 and stats.skipped_defects == 3
        assert stats.golden_seconds == 0.25
        assert stats.defect_seconds == 1.5
        assert stats.merge_seconds == 0.0
        assert stats.total_seconds == 2.0
