"""Unit tests for the observability layer (tracer, metrics, JSONL sink)."""

import io
import json
import threading
import time

import pytest

from repro.obs import (
    JsonlSink,
    Metrics,
    NullTracer,
    Tracer,
    activate,
    activate_metrics,
    current_span,
    get_metrics,
    get_tracer,
    read_jsonl,
    span,
)


class TestTracerSpans:
    def test_span_records_duration_and_attributes(self):
        tracer = Tracer()
        with tracer.span("work", size=3) as sp:
            sp.set("extra", "yes").set_attributes(more=1)
        (rec,) = tracer.get_trace()
        assert rec.name == "work"
        assert rec.duration_s is not None and rec.duration_s >= 0.0
        assert rec.attributes == {"size": 3, "extra": "yes", "more": 1}

    def test_nesting_parents_and_depths(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("sibling"):
                pass
        outer, inner, leaf, sibling = tracer.get_trace()
        assert [r.depth for r in (outer, inner, leaf, sibling)] == [0, 1, 2, 1]
        assert inner.parent_id == outer.span_id
        assert leaf.parent_id == inner.span_id
        assert sibling.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_span_names_in_start_order(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert tracer.span_names() == ["a", "b", "c"]

    def test_call_count_and_phase_timings(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("repeated"):
                pass
        assert tracer.call_count("repeated") == 3
        timings = tracer.phase_timings()
        assert timings["repeated"]["calls"] == 3
        assert timings["repeated"]["total_s"] >= 0.0
        assert timings["repeated"]["mean_s"] == pytest.approx(
            timings["repeated"]["total_s"] / 3
        )

    def test_self_time_excludes_direct_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            time.sleep(0.01)
            with tracer.span("inner"):
                time.sleep(0.02)
                with tracer.span("leaf"):
                    time.sleep(0.01)
            with tracer.span("inner"):
                pass
        by_name = {}
        for r in tracer.get_trace():
            by_name.setdefault(r.name, []).append(r.duration_s)
        timings = tracer.phase_timings()
        outer, inner, leaf = (timings[n] for n in ("outer", "inner", "leaf"))
        assert outer["self_s"] == pytest.approx(
            by_name["outer"][0] - sum(by_name["inner"])
        )
        assert inner["self_s"] == pytest.approx(
            sum(by_name["inner"]) - by_name["leaf"][0]
        )
        assert leaf["self_s"] == leaf["total_s"]
        # Self times partition the root span: nothing is counted twice.
        assert outer["self_s"] + inner["self_s"] + leaf["self_s"] == pytest.approx(
            outer["total_s"]
        )
        assert outer["self_s"] >= 0.009 and inner["self_s"] >= 0.019

    def test_current_span_receives_attributes(self):
        current_span().set("ignored", 1)  # no active tracer: a no-op
        tracer = Tracer()
        with activate(tracer):
            with span("outer"):
                with span("inner"):
                    current_span().set_attributes(hits=3)
                current_span().set("done", True)
        outer, inner = tracer.get_trace()
        assert inner.attributes == {"hits": 3}
        assert outer.attributes == {"done": True}

    def test_duration_recorded_when_body_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        (rec,) = tracer.get_trace()
        assert rec.duration_s is not None

    def test_threaded_spans_do_not_cross_nest(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def worker(name):
            barrier.wait()
            with tracer.span(name):
                pass

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r.depth == 0 for r in tracer.get_trace())


class TestAmbientTracer:
    def test_default_is_disabled(self):
        tracer = get_tracer()
        assert isinstance(tracer, NullTracer)
        assert not tracer.enabled

    def test_module_span_is_noop_when_disabled(self):
        # The shared no-op context manager records nothing anywhere.
        with span("anything", key=1) as sp:
            sp.set("k", "v").set_attributes(a=2)
        assert get_tracer().get_trace() == []

    def test_activate_scopes_the_tracer(self):
        tracer = Tracer()
        with activate(tracer):
            assert get_tracer() is tracer
            with span("scoped"):
                pass
        assert get_tracer() is not tracer
        assert tracer.span_names() == ["scoped"]

    def test_activate_none_restores_noop(self):
        with activate(None):
            assert not get_tracer().enabled


class TestMetrics:
    def test_counter(self):
        m = Metrics()
        m.counter("hits").inc()
        m.counter("hits").inc(4)
        assert m.counter("hits").value == 5.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Metrics().counter("x").inc(-1)

    def test_gauge(self):
        m = Metrics()
        m.gauge("level").set(7)
        m.gauge("level").inc(-2)
        assert m.gauge("level").value == 5.0

    def test_histogram(self):
        m = Metrics()
        for v in (1.0, 3.0, 2.0):
            m.histogram("obs").observe(v)
        h = m.histogram("obs")
        assert (h.count, h.min, h.max) == (3, 1.0, 3.0)
        assert h.mean == pytest.approx(2.0)

    def test_kind_conflict_raises(self):
        m = Metrics()
        m.counter("name")
        with pytest.raises(TypeError):
            m.gauge("name")

    def test_snapshot_and_reset(self):
        m = Metrics()
        m.counter("b").inc()
        m.gauge("a").set(1)
        snap = m.snapshot()
        assert list(snap) == ["a", "b"]
        assert snap["b"] == {"kind": "counter", "name": "b", "value": 1.0}
        m.reset()
        assert m.snapshot() == {}

    def test_ambient_registry_scoping(self):
        mine = Metrics()
        with activate_metrics(mine):
            assert get_metrics() is mine
            get_metrics().counter("scoped").inc()
        assert mine.counter("scoped").value == 1.0
        assert get_metrics() is not mine


class TestJsonlSink:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer()
        with JsonlSink(path) as sink:
            tracer.sink = sink
            with tracer.span("outer", robots=4):
                with tracer.span("inner"):
                    pass
            metrics = Metrics()
            metrics.counter("events").inc(2)
            sink.emit_metrics(metrics)
            assert sink.events_written == 3
        events = read_jsonl(path)
        spans = [e for e in events if e["type"] == "span"]
        # Spans are emitted as they *close*: inner first.
        assert [s["name"] for s in spans] == ["inner", "outer"]
        assert spans[1]["attributes"] == {"robots": 4}
        assert spans[0]["parent_id"] == spans[1]["span_id"]
        (metric,) = [e for e in events if e["type"] == "metric"]
        assert metric["name"] == "events" and metric["value"] == 2.0

    def test_numpy_values_are_coerced(self):
        import numpy as np

        buf = io.StringIO()
        sink = JsonlSink(buf)
        sink.emit({"scalar": np.float64(1.5), "arr": np.arange(3)})
        event = json.loads(buf.getvalue())
        assert event == {"scalar": 1.5, "arr": [0, 1, 2]}

    def test_borrowed_file_left_open(self):
        buf = io.StringIO()
        with JsonlSink(buf) as sink:
            sink.emit({"a": 1})
        assert not buf.closed
