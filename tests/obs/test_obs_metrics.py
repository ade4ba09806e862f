"""Unit tests for the in-process metrics registry (`repro.obs.metrics`)."""

from __future__ import annotations

import json
import math
import re
import threading

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    MetricsRegistry,
)


@pytest.fixture
def reg() -> MetricsRegistry:
    return MetricsRegistry()


# ----------------------------------------------------------------------
# Counters and gauges
# ----------------------------------------------------------------------

class TestCounter:
    def test_inc_and_value(self, reg):
        c = reg.counter("repro_test_total", "A test counter.")
        assert c.value() == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_negative_increment_rejected(self, reg):
        c = reg.counter("repro_test_total", "A test counter.")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_labeled_children_are_independent(self, reg):
        c = reg.counter(
            "repro_calls_total", "Calls.", labelnames=("kernel", "backend")
        )
        c.inc(kernel="lsst", backend="reference")
        c.inc(3, kernel="lsst", backend="vectorized")
        assert c.value(kernel="lsst", backend="reference") == 1.0
        assert c.value(kernel="lsst", backend="vectorized") == 3.0
        assert c.value(kernel="embedding", backend="reference") == 0.0

    def test_label_mismatch_rejected(self, reg):
        c = reg.counter("repro_calls_total", "Calls.", labelnames=("kernel",))
        with pytest.raises(ValueError):
            c.inc()  # missing label
        with pytest.raises(ValueError):
            c.inc(kernel="lsst", backend="oops")  # extra label

    def test_family_accessor_is_get_or_create(self, reg):
        a = reg.counter("repro_x_total", "X.")
        b = reg.counter("repro_x_total", "X.")
        assert a is b

    def test_kind_conflict_rejected(self, reg):
        reg.counter("repro_x_total", "X.")
        with pytest.raises(ValueError):
            reg.gauge("repro_x_total", "X as a gauge?")

    def test_labelnames_conflict_rejected(self, reg):
        reg.counter("repro_x_total", "X.", labelnames=("a",))
        with pytest.raises(ValueError):
            reg.counter("repro_x_total", "X.", labelnames=("b",))


class TestGauge:
    def test_set_and_inc(self, reg):
        g = reg.gauge("repro_level", "A level.")
        g.set(4.5)
        assert g.value() == 4.5
        g.inc(-1.5)
        assert g.value() == 3.0
        g.set(0.25)
        assert g.value() == 0.25


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------

class TestHistogram:
    def test_bucketing_boundaries(self, reg):
        h = reg.histogram("repro_h", "H.", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 2.0, 3.0, 100.0):
            h.observe(v)
        snap = reg.snapshot()["repro_h"]
        # Per-bucket (non-cumulative) counts: <=1, <=2, <=4, overflow.
        key = json.dumps([])
        assert snap["values"][key]["counts"] == [2, 2, 1, 1]
        assert snap["values"][key]["count"] == 6
        assert snap["values"][key]["sum"] == pytest.approx(108.0)
        assert snap["buckets"] == [1.0, 2.0, 4.0]

    def test_default_buckets_cover_subsecond_latencies(self, reg):
        h = reg.histogram("repro_h", "H.")
        h.observe(0.003)
        assert h.count() == 1
        assert DEFAULT_BUCKETS[0] < 0.003 < DEFAULT_BUCKETS[-1]

    def test_quantile(self, reg):
        h = reg.histogram("repro_h", "H.", buckets=(1.0, 2.0, 4.0, 8.0))
        for v in [0.5] * 50 + [1.5] * 30 + [3.0] * 15 + [6.0] * 5:
            h.observe(v)
        assert h.quantile(0.0) <= 1.0
        assert h.quantile(0.5) <= 1.0  # 50th sample sits in the first bucket
        assert 1.0 <= h.quantile(0.8) <= 2.0
        assert h.quantile(1.0) <= 8.0

    def test_quantile_empty_is_nan(self, reg):
        h = reg.histogram("repro_h", "H.")
        assert math.isnan(h.quantile(0.5))

    def test_quantile_overflow_clamps_to_last_bound(self, reg):
        h = reg.histogram("repro_h", "H.", buckets=(1.0, 2.0))
        h.observe(50.0)
        assert h.quantile(0.99) == 2.0

    def test_labeled_histogram(self, reg):
        h = reg.histogram(
            "repro_h", "H.", labelnames=("endpoint",), buckets=(1.0,)
        )
        h.observe(0.5, endpoint="/stats")
        h.observe(0.25, endpoint="/stats")
        h.observe(0.5, endpoint="/metrics")
        assert h.count(endpoint="/stats") == 2
        assert h.count(endpoint="/metrics") == 1


# ----------------------------------------------------------------------
# Snapshot / reset
# ----------------------------------------------------------------------

class TestSnapshot:
    def test_snapshot_roundtrip_is_json_safe(self):
        # `GET /stats` embeds this dict, so it must survive strict JSON.
        a = MetricsRegistry()
        a.counter("repro_c_total", "C.", labelnames=("k",)).inc(k="x")
        a.gauge("repro_g", "G.").set(0.5)
        a.histogram("repro_h", "H.").observe(0.01)
        snapshot = a.snapshot()
        assert json.loads(json.dumps(snapshot, allow_nan=False)) == snapshot
        assert snapshot["repro_c_total"]["values"] == {json.dumps(["x"]): 1.0}
        assert snapshot["repro_h"]["values"][json.dumps([])]["count"] == 1

    def test_reset(self, reg):
        reg.counter("repro_c_total", "C.").inc(5)
        reg.reset()
        assert reg.counter("repro_c_total", "C.").value() == 0.0


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------

_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$"
)


class TestPrometheus:
    def test_exposition_is_line_valid(self, reg):
        reg.counter("repro_c_total", "C.", labelnames=("k",)).inc(k="x")
        reg.gauge("repro_g", "G.").set(1.5)
        reg.histogram("repro_h", "H.", buckets=(0.5, 1.0)).observe(0.75)
        text = reg.render_prometheus()
        assert text.endswith("\n")
        for line in text.splitlines():
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:][\w:]* ", line)
            else:
                assert _SAMPLE.match(line), line

    def test_histogram_samples_cumulative_and_terminated(self, reg):
        h = reg.histogram("repro_h", "H.", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        h.observe(9.0)
        text = reg.render_prometheus()
        assert 'repro_h_bucket{le="1"} 1' in text
        assert 'repro_h_bucket{le="2"} 2' in text
        assert 'repro_h_bucket{le="+Inf"} 3' in text
        assert "repro_h_sum 11" in text
        assert "repro_h_count 3" in text

    def test_histogram_bucket_le_joins_existing_labels(self, reg):
        h = reg.histogram(
            "repro_h", "H.", labelnames=("endpoint",), buckets=(1.0,)
        )
        h.observe(0.5, endpoint="/stats")
        text = reg.render_prometheus()
        assert 'repro_h_bucket{endpoint="/stats",le="1"} 1' in text
        assert 'repro_h_count{endpoint="/stats"} 1' in text

    def test_label_value_escaping(self, reg):
        c = reg.counter("repro_c_total", "C.", labelnames=("path",))
        c.inc(path='a"b\\c\nd')
        text = reg.render_prometheus()
        assert '{path="a\\"b\\\\c\\nd"}' in text

    def test_help_and_type_lines_present(self, reg):
        reg.counter("repro_c_total", "Counts things.").inc()
        text = reg.render_prometheus()
        assert "# HELP repro_c_total Counts things." in text
        assert "# TYPE repro_c_total counter" in text

    def test_counter_without_observations_still_renders_family(self, reg):
        reg.counter("repro_c_total", "C.")
        text = reg.render_prometheus()
        assert "# TYPE repro_c_total counter" in text


# ----------------------------------------------------------------------
# Null registry and thread safety
# ----------------------------------------------------------------------

class TestNullMetrics:
    def test_all_updaters_are_noops(self):
        NULL_METRICS.counter("repro_x_total", "X.").inc()
        NULL_METRICS.gauge("repro_g", "G.").set(1.0)
        NULL_METRICS.histogram("repro_h", "H.").observe(0.5)
        assert NULL_METRICS.counter("repro_x_total", "X.").value() == 0.0
        assert NULL_METRICS.histogram("repro_h", "H.").count() == 0
        assert math.isnan(NULL_METRICS.histogram("repro_h", "H.").quantile(0.5))

    def test_disabled_surface(self):
        assert not NULL_METRICS.enabled
        assert NULL_METRICS.snapshot() == {}
        assert NULL_METRICS.render_prometheus() == ""
        NULL_METRICS.reset()


class TestThreadSafety:
    def test_concurrent_increments_are_not_lost(self, reg):
        c = reg.counter("repro_c_total", "C.", labelnames=("t",))
        h = reg.histogram("repro_h", "H.", buckets=(0.5,))

        def work(tag: str) -> None:
            for _ in range(500):
                c.inc(t=tag)
                h.observe(0.1)

        threads = [
            threading.Thread(target=work, args=(str(i % 2),))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value(t="0") + c.value(t="1") == 2000.0
        assert h.count() == 2000
