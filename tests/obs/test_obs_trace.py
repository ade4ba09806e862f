"""Unit tests for the span tracer (`repro.obs.trace`) and ambient wiring."""

from __future__ import annotations

import json
import threading
import time

import pytest

import repro.obs as obs
from repro.obs import NULL_TRACER, Span, Tracer
from repro.utils.timing import Timer


# ----------------------------------------------------------------------
# Span as the repo-wide timing primitive (the old Timer)
# ----------------------------------------------------------------------

class TestSpanAsTimer:
    def test_timer_is_span(self):
        assert Timer is Span

    def test_elapsed(self):
        with Timer() as t:
            time.sleep(0.001)
        assert t.elapsed >= 0.001

    def test_restart_clears_previous_interval(self):
        with Timer() as t:
            pass
        t.restart()
        assert t.elapsed == 0.0
        assert t.lap() >= 0.0

    def test_lap_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Span().lap()

    def test_unreported_span_annotate_is_noop(self):
        with Span("x") as s:
            s.annotate({"k": 1}, extra=2)  # no tracer: silently dropped
        assert s.elapsed >= 0.0


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------

class TestTracer:
    def test_nesting_depth_and_parent(self):
        tracer = Tracer()
        with tracer.span("outer", category="stage"):
            with tracer.span("inner", category="kernel"):
                pass
        inner, outer = tracer.records()
        assert (inner.name, inner.depth, inner.parent) == ("inner", 1, "outer")
        assert (outer.name, outer.depth, outer.parent) == ("outer", 0, None)

    def test_category_filter(self):
        tracer = Tracer()
        with tracer.span("a", category="stage"):
            pass
        with tracer.span("b", category="kernel"):
            pass
        assert [r.name for r in tracer.records(category="kernel")] == ["b"]

    def test_annotations_and_initial_args(self):
        tracer = Tracer()
        with tracer.span("s", category="stage", backend="reference") as span:
            span.annotate({"edges": 5}, added=2)
        (record,) = tracer.records()
        assert record.args == {"backend": "reference", "edges": 5, "added": 2}

    def test_span_recorded_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        assert [r.name for r in tracer.records()] == ["failing"]

    def test_threads_get_distinct_tids(self):
        tracer = Tracer()
        barrier = threading.Barrier(3)

        def work():
            barrier.wait()  # all threads alive at once: idents are distinct
            with tracer.span("worker"):
                pass

        threads = [threading.Thread(target=work) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        tids = {r.tid for r in tracer.records()}
        assert len(tids) == 3

    def test_clear(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.clear()
        assert tracer.records() == []


class TestChromeTrace:
    def test_event_shape(self):
        tracer = Tracer()
        with tracer.span("outer", category="stage"):
            with tracer.span("inner", category="kernel", backend="reference"):
                pass
        doc = tracer.chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) == 2
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"
            assert event["pid"] == 0
            assert isinstance(event["tid"], int)
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        assert by_name["inner"]["cat"] == "kernel"
        assert by_name["inner"]["args"] == {"backend": "reference"}
        # The outer complete-event interval contains the inner one.
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer["ts"] <= inner["ts"]
        assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]

    def test_write_chrome_trace_roundtrip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert [e["name"] for e in doc["traceEvents"]] == ["s"]


# ----------------------------------------------------------------------
# Null tracer and ambient wiring
# ----------------------------------------------------------------------

class TestNullTracer:
    def test_null_span_still_times(self):
        with NULL_TRACER.span("ignored") as s:
            time.sleep(0.001)
        assert s.elapsed >= 0.001

    def test_disabled_surface(self):
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.records() == []
        assert NULL_TRACER.chrome_trace() == {
            "traceEvents": [], "displayTimeUnit": "ms",
        }
        NULL_TRACER.clear()


class TestAmbientWiring:
    def test_defaults_are_null(self):
        obs.disable()
        assert not obs.get_tracer().enabled
        assert not obs.get_metrics().enabled

    def test_observed_scopes_and_restores(self):
        obs.disable()
        tracer = Tracer()
        with obs.observed(tracer=tracer):
            assert obs.get_tracer() is tracer
            assert not obs.get_metrics().enabled  # untouched
        assert not obs.get_tracer().enabled

    def test_observed_restores_on_exception(self):
        obs.disable()
        with pytest.raises(RuntimeError):
            with obs.observed(tracer=Tracer()):
                raise RuntimeError("boom")
        assert not obs.get_tracer().enabled

    def test_enable_metrics_is_idempotent(self):
        obs.disable()
        first = obs.enable_metrics()
        second = obs.enable_metrics()
        assert first is second
        assert obs.get_metrics() is first

    def test_configure_partial_update(self):
        obs.disable()
        tracer = Tracer()
        obs.configure(tracer=tracer)
        assert obs.get_tracer() is tracer
        obs.configure(metrics=None)
        assert obs.get_tracer() is tracer  # unchanged by metrics update
        obs.configure(tracer=None)
        assert not obs.get_tracer().enabled
