"""End-to-end tests for the HTTP query service and its client."""

import json
import socket
import time
from urllib.parse import urlparse

import numpy as np
import pytest

from repro.graphs import generators
from repro.obs import get_metrics
from repro.serve import (
    ServeClient,
    ServiceError,
    SparsifierRegistry,
    SparsifierService,
)
from repro.serve.service import MAX_BODY_BYTES
from repro.stream import EdgeDelete, EdgeInsert, WeightUpdate


SIGMA2 = 150.0


@pytest.fixture
def grid():
    return generators.grid2d(9, 9, weights="uniform", seed=2)


@pytest.fixture
def service(tmp_path):
    registry = SparsifierRegistry(tmp_path / "spool", max_resident=4)
    with SparsifierService(registry) as svc:
        yield svc


@pytest.fixture
def client(service):
    return ServeClient(service.url)


class TestLifecycle:
    def test_register_query_stream_query_sigma2_fresh(self, service, client, grid):
        """The acceptance path: register → query → stream events → query,
        with answers σ²-fresh after the updates."""
        key = client.register(grid, sigma2=SIGMA2, seed=0)
        engine = service.registry.engine(key)

        pairs = [[0, 80], [4, 44]]
        before = client.resistance(key, pairs)
        assert np.allclose(before, engine.resistance(pairs))

        g = engine.dynamic.graph
        report = client.events(key, [
            EdgeInsert(0, 80, 5.0),
            EdgeDelete(int(g.u[-1]), int(g.v[-1])),
            WeightUpdate(int(g.u[0]), int(g.v[0]), 3.0),
        ])
        assert report["inserted"] == 1
        assert report["deleted"] == 1
        assert report["reweighted"] == 1

        after = client.resistance(key, pairs)
        # The direct heavy edge must short pair (0, 80)...
        assert after[0] < before[0]
        assert after[0] <= 1.0 / 5.0 + 1e-9
        # ...and the served certificate stays fresh: the event batch was
        # drift-checked and the estimate still certifies the target.
        assert report["checked"] is True
        dyn = engine.dynamic
        assert report["sigma2_estimate"] == pytest.approx(dyn.last_estimate)
        assert dyn.last_estimate <= SIGMA2 * dyn.drift_tolerance + 1e-9

    def test_register_is_content_addressed_over_http(self, client, grid):
        k1 = client.register(grid, sigma2=SIGMA2, seed=0)
        k2 = client.register(grid, sigma2=SIGMA2, seed=0)
        assert k1 == k2

    def test_stats_snapshot(self, client, grid):
        key = client.register(grid, sigma2=SIGMA2, seed=0)
        stats = client.stats()
        assert key in stats["artifacts"]
        assert stats["artifacts"][key]["resident"] is True
        assert stats["stats"]["builds"] == 1

    def test_shutdown_stops_server(self, tmp_path, grid):
        registry = SparsifierRegistry(tmp_path / "spool")
        service = SparsifierService(registry)
        service.start()
        client = ServeClient(service.url)
        client.shutdown()
        service.wait()  # returns promptly once the loop exits
        service.stop()


class TestQueries:
    def test_solve_roundtrip(self, service, client, grid):
        key = client.register(grid, sigma2=SIGMA2, seed=0)
        rhs = np.zeros(grid.n)
        rhs[0], rhs[-1] = 1.0, -1.0
        x = client.solve(key, rhs)
        engine = service.registry.engine(key)
        assert np.allclose(x, engine.solve(rhs))

    def test_similarity_roundtrip(self, service, client, grid):
        key = client.register(grid, sigma2=SIGMA2, seed=0)
        pairs = np.column_stack([grid.u[:5], grid.v[:5]])
        scores = client.similarity(key, pairs)
        assert np.allclose(
            scores, service.registry.engine(key).similarity(pairs)
        )

    def test_embedding_roundtrip(self, service, client, grid):
        key = client.register(grid, sigma2=SIGMA2, seed=0)
        coords = client.embedding(key, nodes=[0, 1, 2], dim=2)
        assert coords.shape == (3, 2)
        assert np.allclose(
            coords,
            service.registry.engine(key).embedding(nodes=[0, 1, 2], dim=2),
        )

    def test_event_records_accepted_raw(self, client, grid):
        key = client.register(grid, sigma2=SIGMA2, seed=0)
        report = client.events(
            key, [{"type": "insert", "u": 0, "v": 44, "w": 1.5}]
        )
        assert report["inserted"] == 1


class TestErrors:
    def test_unknown_key_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.resistance("deadbeef00000000", [[0, 1]])
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/query/unknown", {})
        assert excinfo.value.status == 404

    def test_invalid_pairs_is_400(self, client, grid):
        key = client.register(grid, sigma2=SIGMA2, seed=0)
        with pytest.raises(ServiceError) as excinfo:
            client.resistance(key, [[0, grid.n]])
        assert excinfo.value.status == 400
        assert "out of range" in str(excinfo.value)

    def test_missing_field_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/query/resistance", {"pairs": [[0, 1]]})
        assert excinfo.value.status == 400
        assert "key" in str(excinfo.value)

    def test_invalid_event_is_400(self, client, grid):
        key = client.register(grid, sigma2=SIGMA2, seed=0)
        with pytest.raises(ServiceError) as excinfo:
            client.events(key, [{"type": "warp", "u": 0, "v": 1}])
        assert excinfo.value.status == 400

    def test_unexpected_register_param_is_400(self, client, grid):
        """Wrong-shaped-but-valid-JSON payloads must map to 400, not 500."""
        with pytest.raises(ServiceError) as excinfo:
            client.register(grid, sigma2=SIGMA2, bogus_knob=1)
        assert excinfo.value.status == 400

    def test_non_object_event_record_is_400(self, client, grid):
        key = client.register(grid, sigma2=SIGMA2, seed=0)
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST", "/events", {"key": key, "events": ["not-a-record"]}
            )
        assert excinfo.value.status == 400

    def test_malformed_json_is_400(self, client):
        import urllib.request

        request = urllib.request.Request(
            client.url + "/graphs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        excinfo.value.close()  # the error response holds the socket open
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_bad_content_length_is_400(self, service, length):
        """A negative or non-integer length gets a 400, not a hang or a
        dropped connection."""
        status, body = _raw_post(service, length)
        assert status == 400
        assert b"Content-Length" in body

    @pytest.mark.parametrize(
        "length, body",
        [("1000000000000", b""), ("1000000000", b"{}")],
        ids=["terabyte-no-body", "gigabyte-two-byte-body"],
    )
    def test_oversized_content_length_is_413(self, service, length, body):
        """A declared length above the cap is refused before reading:
        no allocation of the declared size, no wait for missing bytes."""
        status, reply = _raw_post(service, length, body)
        assert status == 413
        assert str(MAX_BODY_BYTES).encode() in reply

    @pytest.mark.parametrize(
        "path, payload, reason",
        [
            # The overflow messages come from numpy and vary by version.
            ("/query/resistance", {"pairs": [[0, 10**30]]}, None),
            ("/query/similarity", {"pairs": [[0, 10**30]]}, None),
            ("/query/embedding", {"nodes": [10**30]}, None),
            ("/query/solve", {"rhs": 5}, "1-D or 2-D"),
            # 81 rows: the grid fixture's vertex count.
            ("/query/solve", {"rhs": [float("inf")] + [0.0] * 80}, "finite"),
            ("/graphs", {"n": 10**30, "u": [0], "v": [1], "w": [1.0]}, None),
        ],
        ids=[
            "resistance-huge-vertex", "similarity-huge-vertex",
            "embedding-huge-node", "solve-scalar-rhs", "solve-infinite-rhs",
            "graphs-huge-n",
        ],
    )
    def test_malformed_query_is_400(self, client, grid, path, payload, reason):
        if path != "/graphs":
            payload = {"key": client.register(grid, sigma2=SIGMA2, seed=0),
                       **payload}
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", path, payload)
        assert excinfo.value.status == 400
        if reason is not None:
            assert reason in str(excinfo.value)

    def test_removed_kernel_backend_param_is_400(self, client, grid):
        with pytest.raises(ServiceError) as excinfo:
            client.register(grid, sigma2=SIGMA2, kernel_backend="auto")
        assert excinfo.value.status == 400

    def test_huge_n_is_400_before_any_o_n_work(self, service):
        """One edge over 2**40 vertices cannot be connected; the answer
        must not wait for (or allocate) anything sized by ``n``."""
        body = json.dumps(
            {"n": 2**40, "u": [0], "v": [1], "w": [1.0]}
        ).encode("ascii")
        start = time.perf_counter()
        status, reply = _raw_post(service, str(len(body)), body)
        assert time.perf_counter() - start < 5.0
        assert status == 400
        assert b"must be connected" in reply

    def test_unexpected_exception_is_500(self, service, client, monkeypatch):
        def broken(path, payload):
            raise RuntimeError("boom")

        monkeypatch.setattr(service, "_dispatch", broken)
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/query/resistance", {})
        assert excinfo.value.status == 500
        assert excinfo.value.body == {"error": "internal server error"}


def _http_errors() -> dict:
    """``{(endpoint, status): count}`` of ``repro_http_errors_total``."""
    family = get_metrics().snapshot().get("repro_http_errors_total", {})
    return {
        tuple(json.loads(key)): value
        for key, value in family.get("values", {}).items()
    }


def _unknown_path(service, client):
    with pytest.raises(ServiceError) as excinfo:
        client._request("POST", "/nowhere", {})
    assert excinfo.value.status == 404


def _malformed_json(service, client):
    assert _raw_post(service, "9", b"{not json")[0] == 400


def _oversized_body(service, client):
    assert _raw_post(service, "1000000000000")[0] == 413


class TestErrorCounter:
    @pytest.mark.parametrize(
        "send, label",
        [
            (_unknown_path, ("other", "404")),
            (_malformed_json, ("/graphs", "400")),
            (_oversized_body, ("/graphs", "413")),
        ],
        ids=["unknown-path-404", "malformed-json-400", "oversized-413"],
    )
    def test_error_bumps_exactly_its_label(self, service, client, send, label):
        before = _http_errors()
        send(service, client)
        after = _http_errors()
        bumped = {
            key: after[key] - before.get(key, 0.0)
            for key in after
            if after[key] != before.get(key, 0.0)
        }
        assert bumped == {label: 1.0}

    def test_success_bumps_nothing(self, client, grid):
        before = _http_errors()
        client.register(grid, sigma2=SIGMA2, seed=0)
        client.stats()
        assert _http_errors() == before


def _raw_post(service, length: str, body: bytes = b"") -> tuple[int, bytes]:
    """POST ``body`` to ``/graphs`` under a raw ``Content-Length`` header.

    Returns the status code and the response body; the 5-s socket
    timeout turns a server that never answers into a test failure.
    """
    url = urlparse(service.url)
    request = (
        f"POST /graphs HTTP/1.1\r\nHost: {url.hostname}\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode("ascii") + body
    with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    return int(head.split(b"\r\n", 1)[0].split()[1]), payload
