"""Unit tests for the repro.obs subsystem (tracer, metrics, events)."""

import json

import pytest

from repro import obs
from repro.obs import (
    EventLog,
    JsonlSink,
    ListSink,
    Metrics,
    NullSink,
    TeeSink,
    TextSink,
    Tracer,
    orphan_parents,
)


class TestTracer:
    def test_nesting_records_parents(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        spans = tracer.export()
        assert [s["name"] for s in spans] == ["inner", "outer"]
        by_name = {s["name"]: s for s in spans}
        assert by_name["outer"]["parent_id"] is None
        assert by_name["inner"]["parent_id"] == outer.span_id
        assert inner.parent_id == outer.span_id
        assert by_name["inner"]["duration"] <= by_name["outer"]["duration"]
        assert orphan_parents(spans) == []

    def test_attrs_and_set(self):
        tracer = Tracer()
        with tracer.span("work", cell="NAND2") as sp:
            sp.set("defects", 40)
        span = tracer.export()[0]
        assert span["attrs"] == {"cell": "NAND2", "defects": 40}

    def test_disabled_tracer_is_null(self):
        tracer = Tracer(enabled=False)
        with tracer.span("anything", key="value") as sp:
            sp.set("more", 1)  # no-op, no error
        assert tracer.export() == []
        assert sp is obs.NULL_SPAN

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        spans = {s["name"]: s for s in tracer.export()}
        assert spans["a"]["parent_id"] == root.span_id
        assert spans["b"]["parent_id"] == root.span_id

    def test_absorb_reparents_worker_roots(self):
        worker = Tracer()
        with worker.span("camodel.generate"):
            with worker.span("generate.golden"):
                pass
        parent = Tracer()
        with parent.span("service.serve") as anchor:
            parent.absorb(worker.export(), parent_id=anchor.span_id)
        spans = parent.export()
        root = next(s for s in spans if s["name"] == "camodel.generate")
        golden = next(s for s in spans if s["name"] == "generate.golden")
        assert root["parent_id"] == anchor.span_id
        # non-root worker spans keep their original parent
        assert golden["parent_id"] == root["span_id"]
        assert orphan_parents(spans) == []

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("one", n=1):
            pass
        path = tmp_path / "spans.jsonl"
        tracer.write_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["name"] == "one" and record["attrs"] == {"n": 1}

    def test_chrome_payload_loadable(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        path = tmp_path / "trace.json"
        tracer.write_chrome(path)
        payload = json.loads(path.read_text())
        events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in events} == {"outer", "inner"}
        for event in events:
            assert event["ts"] > 0 and event["dur"] >= 0
        metadata = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert metadata and metadata[0]["args"]["name"] == "main"

    def test_write_dispatches_on_extension(self, tmp_path):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.write(tmp_path / "t.jsonl")
        tracer.write(tmp_path / "t.json")
        assert json.loads((tmp_path / "t.jsonl").read_text().splitlines()[0])["name"] == "x"
        assert "traceEvents" in json.loads((tmp_path / "t.json").read_text())

    def test_orphan_detection(self):
        spans = [
            {"span_id": "1-1", "parent_id": None},
            {"span_id": "1-2", "parent_id": "9-9"},
        ]
        assert orphan_parents(spans) == ["9-9"]

    def test_absorb_emits_orphan_warning_event(self):
        tracer = Tracer()
        sink = ListSink()
        with obs.scoped(events=EventLog(sink)):
            tracer.absorb(
                [
                    {"span_id": "7-1", "parent_id": None, "name": "root",
                     "start": 0.0, "duration": 0.1, "pid": 7, "attrs": {}},
                    {"span_id": "7-2", "parent_id": "9-9", "name": "lost",
                     "start": 0.0, "duration": 0.1, "pid": 7, "attrs": {}},
                ],
                parent_id=None,
            )
        warnings = sink.named(obs.E_ORPHAN_SPANS)
        assert len(warnings) == 1
        assert warnings[0].fields["orphans"] == ["9-9"]
        # the spans are still absorbed — the warning flags, not drops
        assert len(tracer.export()) == 2

    def test_absorb_clean_merge_is_silent(self):
        parent = Tracer()
        worker = Tracer()
        with worker.span("w.root"):
            with worker.span("w.child"):
                pass
        sink = ListSink()
        with obs.scoped(events=EventLog(sink)):
            with parent.span("run") as run:
                parent.absorb(worker.export(), parent_id=run.span_id)
        assert sink.named(obs.E_ORPHAN_SPANS) == []


class TestMetrics:
    def test_counters(self):
        m = Metrics()
        m.inc("a")
        m.inc("a", 2)
        m.inc("b", 0.5)
        assert m.get("a") == 3
        assert m.get("b") == 0.5
        assert m.get("missing") == 0.0

    def test_checkpoint_delta(self):
        m = Metrics()
        m.inc("a", 2)
        check = m.checkpoint()
        m.inc("a", 3)
        m.inc("c", 1)
        m.inc("unchanged", 0)
        delta = m.counter_delta(check)
        assert delta == {"a": 3, "c": 1}

    def test_gauge_and_histogram(self):
        m = Metrics()
        m.set_gauge("g", 7)
        for v in (1.0, 3.0, 2.0):
            m.observe("h", v)
        snap = m.snapshot()
        assert snap["gauges"]["g"] == 7
        h = snap["histograms"]["h"]
        assert h["count"] == 3 and h["sum"] == 6.0
        assert h["min"] == 1.0 and h["max"] == 3.0

    def test_render_filters_by_prefix(self):
        m = Metrics()
        m.inc("camodel.solves", 3)
        m.inc("other.thing", 1)
        text = m.render(prefix="camodel.")
        assert "camodel.solves = 3" in text and "other.thing" not in text

    def test_percentiles_are_order_independent(self):
        samples = [0.001, 0.5, 0.02, 3.0, 0.2, 0.9, 12.0, 0.07, 1.5, 0.4]
        forward, backward = Metrics(), Metrics()
        for v in samples:
            forward.observe("h", v)
        for v in reversed(samples):
            backward.observe("h", v)
        for q in (0.5, 0.95, 0.99):
            assert forward.percentile("h", q) == backward.percentile("h", q)

    def test_percentile_bounds_and_edge_cases(self):
        m = Metrics()
        assert m.percentile("missing", 0.5) == 0.0
        m.observe("one", 0.25)
        # single sample: clamping makes every quantile exact
        for q in (0.5, 0.95, 0.99):
            assert m.percentile("one", q) == 0.25
        for v in (1.0, 2.0, 4.0):
            m.observe("h", v)
        for q in (0.5, 0.95, 0.99):
            assert 1.0 <= m.percentile("h", q) <= 4.0
        assert m.percentile("h", 0.5) <= m.percentile("h", 0.95)

    def test_render_includes_percentiles(self):
        m = Metrics()
        for v in (0.1, 0.2, 0.3):
            m.observe("camodel.seconds.per_cell", v)
        text = m.render()
        assert "p50=" in text and "p95=" in text and "p99=" in text


class TestEvents:
    def test_text_sink_level_filter(self, capsys):
        log = EventLog(TextSink(min_level="warning"))
        log.info("quiet.event", detail=1)
        log.warning("loud.event", msg="something odd")
        err = capsys.readouterr().err
        assert "quiet.event" not in err
        assert "[warning] loud.event: something odd" in err

    def test_text_sink_renders_fields_without_msg(self, capsys):
        EventLog(TextSink(min_level="info")).info("e.name", a=1, b="x")
        err = capsys.readouterr().err
        assert "[info] e.name" in err and "a=1" in err and "b=x" in err

    def test_jsonl_sink(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(JsonlSink(path))
        log.debug("first", n=1)
        log.error("second", n=2)
        log.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["event"] for r in records] == ["first", "second"]
        assert records[0]["level"] == "debug" and records[0]["n"] == 1
        assert all("time" in r for r in records)

    def test_tee_and_list_sinks(self):
        buffer = ListSink()
        log = EventLog(TeeSink([NullSink(), buffer]))
        log.info("x", k="v")
        assert len(buffer.named("x")) == 1
        assert buffer.events[0].fields == {"k": "v"}

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            EventLog(NullSink()).emit("e", level="loud")


class TestStateAndSession:
    def test_default_state_is_silent_and_disabled(self):
        assert isinstance(obs.tracer(), Tracer)
        assert isinstance(obs.metrics(), Metrics)
        # module default: tracing off
        assert obs.tracer().enabled in (False, True)  # accessor works

    def test_scoped_swaps_and_restores(self):
        original = obs.tracer()
        fresh = Tracer()
        with obs.scoped(tracer=fresh):
            assert obs.tracer() is fresh
        assert obs.tracer() is original

    def test_session_writes_trace_with_root_span(self, tmp_path):
        path = tmp_path / "run.json"
        with obs.session(trace_path=path, root="run", scale="tiny"):
            with obs.tracer().span("inner"):
                pass
        payload = json.loads(path.read_text())
        events = {e["name"]: e for e in payload["traceEvents"] if e["ph"] == "X"}
        assert set(events) == {"run", "inner"}
        assert events["inner"]["args"]["parent_id"] == events["run"]["args"]["span_id"]
        assert events["run"]["args"]["scale"] == "tiny"

    def test_session_verbosity_controls_text_sink(self, capsys):
        with obs.session(verbosity=1, root=None):
            obs.events().info("visible.event")
        with obs.session(verbosity=0, root=None):
            obs.events().info("hidden.event")
        err = capsys.readouterr().err
        assert "visible.event" in err and "hidden.event" not in err

    def test_session_log_json(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with obs.session(log_json=path, root=None):
            obs.events().debug("d.event", n=3)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records and records[0]["event"] == "d.event"

    def test_min_level_for(self):
        assert obs.min_level_for(-1) == "error"
        assert obs.min_level_for(0) == "warning"
        assert obs.min_level_for(1) == "info"
        assert obs.min_level_for(2) == "debug"
