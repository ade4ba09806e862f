"""Unit tests for the SLO alert engine (`repro.obs.alerts`)."""

from __future__ import annotations

import json

import pytest

from repro.obs import MetricsRegistry
from repro.obs.alerts import (
    AlertRule,
    default_serving_rules,
    evaluate,
    evaluate_rules,
)
from repro.obs.metrics import quantile_from_counts


class TestQuantileFromCounts:
    def test_matches_histogram_quantile(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_q_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        snap = registry.snapshot()["repro_q_seconds"]
        child = snap["values"]["[]"]
        for q in (0.0, 0.5, 0.9, 1.0):
            assert quantile_from_counts(
                tuple(snap["buckets"]), child["counts"], child["count"], q
            ) == pytest.approx(hist.quantile(q))

    def test_empty_is_nan(self):
        import math
        assert math.isnan(quantile_from_counts((1.0,), [0, 0], 0, 0.5))

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            quantile_from_counts((1.0,), [1, 0], 1, 1.5)


class TestAlertRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown alert kind"):
            AlertRule(name="x", kind="median_max", metric="m", threshold=1.0)

    def test_ratio_requires_denominator(self):
        with pytest.raises(ValueError, match="denominator"):
            AlertRule(name="x", kind="ratio_max", metric="m", threshold=1.0)

    def test_quantile_bounds(self):
        with pytest.raises(ValueError, match="quantile"):
            AlertRule(name="x", kind="quantile_max", metric="m",
                      threshold=1.0, quantile=2.0)


class TestGaugeAndCounterRules:
    def test_gauge_within_and_exceeding(self):
        registry = MetricsRegistry()
        registry.gauge("repro_stream_drift_ratio").set(1.2)
        rule = AlertRule(name="drift", kind="gauge_max",
                         metric="repro_stream_drift_ratio", threshold=1.5)
        assert evaluate(rule, registry.snapshot()).ok
        registry.gauge("repro_stream_drift_ratio").set(2.0)
        result = evaluate(rule, registry.snapshot())
        assert not result.ok
        assert result.value == pytest.approx(2.0)
        assert "EXCEEDS" in result.detail

    def test_gauge_worst_child_decides(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_shard_lag", labelnames=("shard",))
        gauge.set(0.1, shard="0")
        gauge.set(9.0, shard="1")
        rule = AlertRule(name="lag", kind="gauge_max",
                         metric="repro_shard_lag", threshold=1.0)
        result = evaluate(rule, registry.snapshot())
        assert not result.ok
        assert "shard=1" in result.detail

    def test_counter_sums_children(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_errors_total", labelnames=("kind",))
        counter.inc(3, kind="a")
        counter.inc(4, kind="b")
        rule = AlertRule(name="errors", kind="counter_max",
                         metric="repro_errors_total", threshold=5)
        result = evaluate(rule, registry.snapshot())
        assert not result.ok
        assert result.value == pytest.approx(7.0)

    def test_absent_metric_passes(self):
        rule = AlertRule(name="drift", kind="gauge_max",
                         metric="repro_stream_drift_ratio", threshold=1.5)
        result = evaluate(rule, {})
        assert result.ok
        assert result.value is None
        assert "absent" in result.detail

    def test_label_filter(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_events_total", labelnames=("kind",))
        counter.inc(100, kind="noise")
        counter.inc(1, kind="fatal")
        rule = AlertRule(name="fatal", kind="counter_max",
                         metric="repro_events_total",
                         labels=(("kind", "fatal"),), threshold=5)
        assert evaluate(rule, registry.snapshot()).ok


class TestPartialLabelFilters:
    """A filter naming some of a family's labels selects every child
    that agrees on those labels."""

    def _errors(self):
        registry = MetricsRegistry()
        errors = registry.counter(
            "repro_http_errors_total", labelnames=("endpoint", "status")
        )
        errors.inc(2, endpoint="/query/resistance", status="500")
        errors.inc(1, endpoint="/events", status="500")
        errors.inc(7, endpoint="/events", status="400")
        return registry

    def test_counter_sums_matching_children(self):
        rule = AlertRule(name="5xx", kind="counter_max",
                         metric="repro_http_errors_total",
                         labels=(("status", "500"),), threshold=0)
        result = evaluate(rule, self._errors().snapshot())
        assert not result.ok
        assert result.value == pytest.approx(3.0)

    def test_full_filter_still_selects_one_child(self):
        rule = AlertRule(name="5xx", kind="counter_max",
                         metric="repro_http_errors_total",
                         labels=(("status", "500"), ("endpoint", "/events")),
                         threshold=0)
        assert evaluate(rule, self._errors().snapshot()).value == 1.0

    def test_no_matching_child_passes(self):
        rule = AlertRule(name="5xx", kind="counter_max",
                         metric="repro_http_errors_total",
                         labels=(("status", "503"),), threshold=0)
        result = evaluate(rule, self._errors().snapshot())
        assert result.ok and result.value is None

    def test_gauge_worst_matching_child(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_lag", labelnames=("shard", "zone"))
        gauge.set(0.5, shard="0", zone="a")
        gauge.set(4.0, shard="1", zone="a")
        gauge.set(9.0, shard="2", zone="b")
        rule = AlertRule(name="lag", kind="gauge_max", metric="repro_lag",
                         labels=(("zone", "a"),), threshold=1.0)
        result = evaluate(rule, registry.snapshot())
        assert result.value == 4.0
        assert "shard=1" in result.detail

    def test_quantile_worst_matching_child(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "repro_req_seconds", labelnames=("endpoint", "method")
        )
        for _ in range(40):
            hist.observe(0.01, endpoint="/a", method="POST")
            hist.observe(3.0, endpoint="/b", method="POST")
            hist.observe(9.0, endpoint="/c", method="GET")
        rule = AlertRule(name="p99", kind="quantile_max",
                         metric="repro_req_seconds",
                         labels=(("method", "POST"),), threshold=0.5,
                         min_count=30)
        result = evaluate(rule, registry.snapshot())
        assert not result.ok
        assert "endpoint=/b" in result.detail

    def test_ratio_filters_both_sides(self):
        registry = self._errors()
        requests = registry.counter(
            "repro_requests_total", labelnames=("endpoint", "method")
        )
        requests.inc(10, endpoint="/events", method="POST")
        requests.inc(90, endpoint="/stats", method="GET")
        rule = AlertRule(name="5xx share", kind="ratio_max",
                         metric="repro_http_errors_total",
                         labels=(("status", "500"),),
                         denominator="repro_requests_total",
                         denominator_labels=(("method", "POST"),),
                         threshold=0.5)
        result = evaluate(rule, registry.snapshot())
        assert result.value == pytest.approx(3 / 10)

    @pytest.mark.parametrize("side", ["numerator", "denominator"])
    def test_filter_naming_an_absent_label_fails(self, side):
        registry = self._errors()
        registry.counter("repro_requests_total",
                         labelnames=("endpoint",)).inc(5, endpoint="/events")
        bad = (("code", "500"),)
        rule = AlertRule(
            name="typo", kind="ratio_max", metric="repro_http_errors_total",
            labels=bad if side == "numerator" else None,
            denominator="repro_requests_total",
            denominator_labels=bad if side == "denominator" else None,
            threshold=1e9,
        )
        result = evaluate(rule, registry.snapshot())
        assert not result.ok
        assert "code" in result.detail

    def test_counter_filter_naming_an_absent_label_fails(self):
        rule = AlertRule(name="typo", kind="counter_max",
                         metric="repro_http_errors_total",
                         labels=(("code", "500"),), threshold=1e9)
        result = evaluate(rule, self._errors().snapshot())
        assert not result.ok
        assert "endpoint, status" in result.detail

    def test_default_server_error_rule(self):
        rules = {r.name: r for r in default_serving_rules()}
        result = evaluate(rules["http_server_errors"], self._errors().snapshot())
        assert not result.ok
        assert result.value == pytest.approx(3.0)

    def test_client_errors_do_not_trip_the_server_error_rule(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_http_errors_total", labelnames=("endpoint", "status")
        ).inc(50, endpoint="/query/resistance", status="400")
        report = evaluate_rules(default_serving_rules(), registry.snapshot())
        assert report.healthy


class TestQuantileRules:
    def _registry(self, slow_endpoint_samples=0):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "repro_http_request_seconds", labelnames=("endpoint",)
        )
        for _ in range(50):
            hist.observe(0.01, endpoint="/query/resistance")
        for _ in range(slow_endpoint_samples):
            hist.observe(3.0, endpoint="/query/solve")
        return registry

    def test_worst_endpoint_decides(self):
        registry = self._registry(slow_endpoint_samples=50)
        rule = AlertRule(name="p99", kind="quantile_max",
                         metric="repro_http_request_seconds",
                         threshold=0.5, quantile=0.99, min_count=30)
        result = evaluate(rule, registry.snapshot())
        assert not result.ok
        assert "/query/solve" in result.detail

    def test_min_count_guards_thin_endpoints(self):
        registry = self._registry(slow_endpoint_samples=5)
        rule = AlertRule(name="p99", kind="quantile_max",
                         metric="repro_http_request_seconds",
                         threshold=0.5, quantile=0.99, min_count=30)
        # The slow endpoint has too few samples to trip the rule; the
        # fast one is within the ceiling.
        assert evaluate(rule, registry.snapshot()).ok

    def test_not_a_histogram_passes(self):
        registry = MetricsRegistry()
        registry.gauge("repro_http_request_seconds").set(9.0)
        rule = AlertRule(name="p99", kind="quantile_max",
                         metric="repro_http_request_seconds", threshold=0.5)
        assert evaluate(rule, registry.snapshot()).ok


class TestRatioRules:
    def _rule(self, threshold=0.5, min_count=10):
        return AlertRule(
            name="churn", kind="ratio_max",
            metric="repro_registry_events_total",
            labels=(("event", "eviction"),),
            denominator="repro_registry_events_total",
            threshold=threshold, min_count=min_count,
        )

    def test_eviction_churn(self):
        registry = MetricsRegistry()
        events = registry.counter(
            "repro_registry_events_total", labelnames=("event",)
        )
        events.inc(8, event="hit")
        events.inc(2, event="eviction")
        assert evaluate(self._rule(), registry.snapshot()).ok
        events.inc(10, event="eviction")
        result = evaluate(self._rule(), registry.snapshot())
        assert not result.ok
        assert result.value == pytest.approx(12 / 20)

    def test_min_count_guards_cold_start(self):
        registry = MetricsRegistry()
        events = registry.counter(
            "repro_registry_events_total", labelnames=("event",)
        )
        events.inc(2, event="eviction")
        result = evaluate(self._rule(), registry.snapshot())
        assert result.ok
        assert "min_count" in result.detail

    def test_absent_denominator_passes(self):
        registry = MetricsRegistry()
        registry.counter("repro_stream_repairs_total",
                         labelnames=("tier",)).inc(5, tier="redensify")
        rule = AlertRule(
            name="tier3", kind="ratio_max",
            metric="repro_stream_repairs_total",
            labels=(("tier", "redensify"),),
            denominator="repro_stream_batches_total", threshold=0.25,
        )
        assert evaluate(rule, registry.snapshot()).ok


class TestHealthReport:
    def test_all_rules_evaluated_in_order(self):
        registry = MetricsRegistry()
        registry.gauge("repro_stream_drift_ratio").set(99.0)
        report = evaluate_rules(default_serving_rules(), registry.snapshot())
        assert not report.healthy
        names = [r.rule for r in report.results]
        assert names == [
            "stream_drift_ratio", "http_p99_latency",
            "registry_eviction_churn", "stream_tier3_repairs",
            "http_server_errors",
        ]
        payload = report.as_dict()
        assert payload["healthy"] is False
        assert payload["rules"][0]["ok"] is False
        json.dumps(payload)

    def test_empty_rule_set_is_healthy(self):
        assert evaluate_rules((), {}).healthy

    def test_default_rules_healthy_on_quiet_registry(self):
        report = evaluate_rules(
            default_serving_rules(), MetricsRegistry().snapshot()
        )
        assert report.healthy
