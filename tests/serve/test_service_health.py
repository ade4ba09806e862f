"""`GET /health` SLO gating on the HTTP service (200 ⇄ 503)."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.graphs import generators
from repro.obs.alerts import AlertRule
from repro.serve import (
    ServeClient,
    ServiceError,
    SparsifierRegistry,
    SparsifierService,
)
from repro.stream import EdgeInsert, WeightUpdate

SIGMA2 = 150.0

#: A drift-ratio ceiling no live sparsifier can satisfy: any positive
#: σ² estimate trips it, so real event churn must flip /health.
HAIR_TRIGGER = AlertRule(
    name="stream_drift_ratio",
    kind="gauge_max",
    metric="repro_stream_drift_ratio",
    threshold=1e-6,
)


@pytest.fixture
def grid():
    return generators.grid2d(9, 9, weights="uniform", seed=2)


def _service(tmp_path, **kwargs):
    registry = SparsifierRegistry(tmp_path / "spool", max_resident=4)
    return SparsifierService(registry, **kwargs)


def _raw_status(url: str) -> tuple[int, dict]:
    request = urllib.request.Request(url + "/health", method="GET")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        with exc:  # the error response holds the socket open
            return exc.code, json.loads(exc.read())


class TestHealthEndpoint:
    def test_fresh_service_is_healthy(self, tmp_path):
        with _service(tmp_path) as service:
            status, payload = _raw_status(service.url)
        assert status == 200
        assert payload["healthy"] is True
        rules = {r["rule"]: r for r in payload["rules"]}
        assert set(rules) == {
            "stream_drift_ratio", "http_p99_latency",
            "registry_eviction_churn", "stream_tier3_repairs",
            "http_server_errors",
        }
        assert all(r["ok"] for r in payload["rules"])

    def test_churn_flips_200_to_503(self, tmp_path, grid):
        # The acceptance flip: healthy before traffic, unhealthy once a
        # drift check under real event churn publishes the ratio gauge.
        with _service(tmp_path, alert_rules=(HAIR_TRIGGER,)) as service:
            client = ServeClient(service.url)
            status, _ = _raw_status(service.url)
            assert status == 200  # gauge not yet published

            key = client.register(grid, sigma2=SIGMA2, seed=0)
            g = service.registry.engine(key).dynamic.graph
            client.events(key, [
                EdgeInsert(0, 80, 5.0),
                WeightUpdate(int(g.u[0]), int(g.v[0]), 3.0),
            ])

            status, payload = _raw_status(service.url)
        assert status == 503
        assert payload["healthy"] is False
        drift = next(
            r for r in payload["rules"] if r["rule"] == "stream_drift_ratio"
        )
        assert drift["ok"] is False
        assert drift["value"] > 0

    def test_reload_fault_trips_server_error_rule(self, spilled, break_checkpoint):
        service, client, key = spilled
        assert _raw_status(service.url)[0] == 200
        break_checkpoint(service.registry, key, "truncated")
        with pytest.raises(ServiceError):
            client.resistance(key, [[0, 80]])
        status, payload = _raw_status(service.url)
        assert status == 503
        failed = [r for r in payload["rules"] if not r["ok"]]
        assert [r["rule"] for r in failed] == ["http_server_errors"]
        assert failed[0]["value"] == 1.0

    def test_client_errors_leave_service_healthy(self, tmp_path, grid):
        with _service(tmp_path) as service:
            client = ServeClient(service.url)
            key = client.register(grid, sigma2=SIGMA2, seed=0)
            for send in (
                lambda: client.resistance(key, [[0, 10**6]]),  # 400
                lambda: client.resistance("0" * 16, [[0, 1]]),  # 404
                lambda: client._request("GET", "/nope"),  # 404
                # Valid JSON but not an object: 400s, not 500s.
                lambda: client._request("POST", "/query/resistance", []),
                lambda: client._request("POST", "/events", 5),
                lambda: client._request("POST", "/graphs", "x"),
            ):
                with pytest.raises(ServiceError):
                    send()
            status, payload = _raw_status(service.url)
        assert status == 200
        assert payload["healthy"] is True

    def test_client_health_returns_both_verdicts(self, tmp_path, grid):
        with _service(tmp_path, alert_rules=(HAIR_TRIGGER,)) as service:
            client = ServeClient(service.url)
            assert client.health()["healthy"] is True
            key = client.register(grid, sigma2=SIGMA2, seed=0)
            client.events(key, [EdgeInsert(0, 80, 5.0)])
            unhealthy = client.health()  # 503 must not raise
        assert unhealthy["healthy"] is False
        assert unhealthy["rules"][0]["rule"] == "stream_drift_ratio"

    def test_other_errors_still_raise(self, tmp_path):
        with _service(tmp_path) as service:
            client = ServeClient(service.url)
            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", "/nope")
        assert excinfo.value.status == 404
        assert excinfo.value.body == {"error": "unknown path '/nope'"}

    def test_empty_rule_set_is_always_healthy(self, tmp_path, grid):
        with _service(tmp_path, alert_rules=()) as service:
            client = ServeClient(service.url)
            key = client.register(grid, sigma2=SIGMA2, seed=0)
            client.events(key, [EdgeInsert(0, 80, 5.0)])
            status, payload = _raw_status(service.url)
        assert status == 200
        assert payload == {"healthy": True, "rules": []}

    def test_stats_embeds_health(self, tmp_path):
        with _service(tmp_path) as service:
            stats = ServeClient(service.url).stats()
        assert stats["health"]["healthy"] is True
        assert isinstance(stats["health"]["rules"], list)

    def test_health_requests_count_toward_latency_histogram(self, tmp_path):
        with _service(tmp_path) as service:
            client = ServeClient(service.url)
            client.health()
            metrics = client.metrics()
        assert 'endpoint="/health"' in metrics
