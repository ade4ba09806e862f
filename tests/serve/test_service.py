"""End-to-end tests for the HTTP query service and its client."""

import base64
import http.client
import json
import socket
import sys
import threading
import time
from urllib.parse import urlparse

import numpy as np
import pytest

from repro.graphs import generators
from repro.obs import get_metrics
from repro.serve import (
    ArtifactReloadError,
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

    @pytest.mark.parametrize("body", [[], 5, "x"], ids=["array", "number", "string"])
    def test_non_object_body_is_400(self, client, body):
        """Valid JSON that is not an object is refused before any route
        handler reads a field from it, and counted as a 400."""
        paths = ["/graphs", "/query/resistance", "/query/similarity",
                 "/query/solve", "/query/embedding", "/events"]
        before = _http_errors()
        for path in paths:
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", path, body)
            assert excinfo.value.status == 400
            assert "JSON object" in str(excinfo.value)
        after = _http_errors()
        bumped = {k: after[k] - before.get(k, 0.0)
                  for k in after if after[k] != before.get(k, 0.0)}
        assert bumped == {(path, "400"): 1.0 for path in paths}

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
            # A cast would truncate these to valid labels: (0, 1) is even
            # a grid edge, so similarity used to answer 200.
            ("/query/resistance", {"pairs": [[0, 1.5]]}, "integers"),
            ("/query/resistance", {"pairs": [[True, False]]}, "integers"),
            ("/query/resistance", {"pairs": [[0, float("nan")]]}, "finite"),
            ("/query/similarity", {"pairs": [[0, 1.5]]}, "integers"),
            ("/query/similarity", {"pairs": [[True, False]]}, "integers"),
            ("/query/embedding", {"dim": 2.5}, "dim"),
            ("/query/embedding", {"dim": True}, "dim"),
            ("/query/embedding", {"nodes": [0.5]}, "nodes"),
            ("/query/embedding", {"nodes": [True]}, "nodes"),
            ("/graphs", {"n": 2.5, "u": [0], "v": [1], "w": [1.0]}, "n"),
            ("/graphs", {"n": 3, "u": [0, 1.5], "v": [1, 2], "w": [1.0, 1.0]},
             "u"),
            # A cast would move these edges: onto (0, 80), (1, 79), (7, 78).
            ("/events", {"events": [{"type": "insert", "u": 0.5, "v": 80,
                                     "w": 1.0}]}, "endpoint u"),
            ("/events", {"events": [{"type": "insert", "u": True, "v": 79,
                                     "w": 1.0}]}, "endpoint u"),
            ("/events", {"events": [{"type": "insert", "u": "7", "v": 78,
                                     "w": 1.0}]}, "endpoint u"),
        ],
        ids=[
            "resistance-huge-vertex", "similarity-huge-vertex",
            "embedding-huge-node", "solve-scalar-rhs", "solve-infinite-rhs",
            "graphs-huge-n", "resistance-fractional-pair",
            "resistance-boolean-pair", "resistance-nan-pair",
            "similarity-fractional-pair", "similarity-boolean-pair",
            "embedding-fractional-dim", "embedding-boolean-dim",
            "embedding-fractional-node", "embedding-boolean-node",
            "graphs-fractional-n", "graphs-fractional-u",
            "events-fractional-endpoint", "events-boolean-endpoint",
            "events-string-endpoint",
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

    def test_negative_max_update_rank_is_400(self, client, grid):
        """The Woodbury budget is no longer a registration parameter, so
        a negative one is refused as an unknown keyword before any
        build, not by a range check."""
        with pytest.raises(ServiceError) as excinfo:
            client.register(grid, sigma2=SIGMA2, max_update_rank=-1)
        assert excinfo.value.status == 400
        assert "unexpected keyword argument 'max_update_rank'" in str(
            excinfo.value
        )
        assert client.stats()["artifacts"] == {}

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


_RELOADING_REQUESTS = {
    "/query/resistance": {"pairs": [[0, 80]]},
    "/events": {"events": [{"type": "insert", "u": 0, "v": 80, "w": 1.0}]},
}


class TestSpilledArtifactFaults:
    """A spilled checkpoint that no longer loads, or is not the one the
    spill wrote, is the server's own storage fault: a 500 that names no
    spool path, counted once."""

    @pytest.mark.parametrize(
        "fault", ["truncated", "missing", "bad-json", "another-key"]
    )
    @pytest.mark.parametrize("path", sorted(_RELOADING_REQUESTS))
    def test_reload_fault_is_500_without_path(
        self, spilled, break_checkpoint, caplog, fault, path
    ):
        service, client, key = spilled
        break_checkpoint(service.registry, key, fault)
        before = _http_errors()
        with pytest.raises(ServiceError) as excinfo:
            client._request(
                "POST", path, {"key": key, **_RELOADING_REQUESTS[path]}
            )
        after = _http_errors()
        assert excinfo.value.status == 500
        assert excinfo.value.body == {"error": "internal server error"}
        assert ".npz" not in str(excinfo.value)
        assert str(service.registry.spool_dir) not in str(excinfo.value)
        bumped = {k: after[k] - before.get(k, 0.0)
                  for k in after if after[k] != before.get(k, 0.0)}
        assert bumped == {(path, "500"): 1.0}
        # The entry stays registered and spilled; the server log keeps
        # the loader's own error (with the path, where it names one).
        assert key in service.registry
        assert key not in service.registry.resident_keys()
        assert "was the direct cause" in caplog.text
        if fault == "truncated":
            assert f"{key}.npz" in caplog.text

    def test_registry_raises_reload_error_naming_only_the_key(
        self, tmp_path, break_checkpoint
    ):
        registry = SparsifierRegistry(tmp_path / "spool", max_resident=1)
        key = registry.register(
            generators.grid2d(9, 9, weights="uniform", seed=2), sigma2=SIGMA2
        )
        registry.evict(key)
        break_checkpoint(registry, key, "truncated")
        with pytest.raises(ArtifactReloadError) as excinfo:
            registry.get(key)
        assert str(excinfo.value) == f"spilled artifact {key} could not be reloaded"
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert registry.keys() == [key] and registry.resident_keys() == []


def _raw_post(service, length: str, body: bytes = b"") -> tuple[int, bytes]:
    """POST ``body`` to ``/graphs`` under a raw ``Content-Length`` header.

    Returns the status code and the response body; the 5-s socket
    timeout turns a server that never answers into a test failure.  The
    reply is read to end of input, so the request asks the server to
    close the connection after answering.
    """
    url = urlparse(service.url)
    request = (
        f"POST /graphs HTTP/1.1\r\nHost: {url.hostname}\r\n"
        f"Content-Length: {length}\r\nConnection: close\r\n\r\n"
    ).encode("ascii") + body
    with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    return int(head.split(b"\r\n", 1)[0].split()[1]), payload


def _packed(array, dtype: str) -> dict:
    """The documented packed wire form, built independently of the service."""
    data = np.asarray(array, dtype=dtype)
    return {"dtype": dtype, "shape": list(data.shape),
            "data": base64.b64encode(data.tobytes()).decode("ascii")}


def _unpacked(value) -> np.ndarray:
    assert set(value) == {"dtype", "shape", "data"}
    assert value["dtype"] == "<f8"
    raw = base64.b64decode(value["data"], validate=True)
    return np.frombuffer(raw, dtype="<f8").reshape(value["shape"])


class TestPackedArrays:
    """The packed base64 array form next to plain JSON lists."""

    @pytest.mark.parametrize(
        "path, field, dtype, result, make",
        [
            ("/query/resistance", "pairs", "<i8", "values",
             lambda g, rng: rng.integers(0, g.n, size=(6, 2))),
            ("/query/similarity", "pairs", "<i8", "values",
             lambda g, rng: np.column_stack([g.u[:6], g.v[:6]])),
            ("/query/solve", "rhs", "<f8", "x",
             lambda g, rng: rng.standard_normal(g.n)),
            ("/query/solve", "rhs", "<f8", "x",
             lambda g, rng: rng.standard_normal((g.n, 3))),
            ("/query/embedding", "nodes", "<i8", "coordinates",
             lambda g, rng: np.array([4, 0, 17])),
        ],
        ids=["resistance-pairs", "similarity-pairs", "solve-1d-rhs",
             "solve-2d-rhs", "embedding-nodes"],
    )
    def test_packed_and_list_answers_are_identical(
        self, client, grid, path, field, dtype, result, make
    ):
        key = client.register(grid, sigma2=SIGMA2, seed=0)
        array = make(grid, np.random.default_rng(3))
        listed = client._request("POST", path, {"key": key, field: array.tolist()})
        packed = client._request(
            "POST", path, {"key": key, field: _packed(array, dtype)}
        )
        # Packed in, packed out; lists in, lists out.
        assert isinstance(listed[result], list)
        assert np.array_equal(_unpacked(packed[result]), np.asarray(listed[result]))

    def test_client_solve_is_bit_identical_to_engine(self, service, client, grid):
        key = client.register(grid, sigma2=SIGMA2, seed=0)
        engine = service.registry.engine(key)
        rng = np.random.default_rng(5)
        for rhs in (rng.standard_normal(grid.n), rng.standard_normal((grid.n, 2))):
            x = client.solve(key, rhs)
            assert x.dtype == np.float64 and x.flags.writeable
            assert np.array_equal(x, engine.solve(rhs))
        pairs = rng.integers(0, grid.n, size=(5, 2))
        assert np.array_equal(client.resistance(key, pairs), engine.resistance(pairs))

    def test_packed_registration_matches_list_key(self, client, grid):
        listed = client._request("POST", "/graphs", {
            "n": grid.n, "u": grid.u.tolist(), "v": grid.v.tolist(),
            "w": grid.w.tolist(), "sigma2": SIGMA2, "seed": 0,
        })
        assert client.register(grid, sigma2=SIGMA2, seed=0) == listed["key"]

    def test_embedding_without_nodes_answers_in_lists(self, client, grid):
        key = client.register(grid, sigma2=SIGMA2, seed=0)
        reply = client._request("POST", "/query/embedding", {"key": key})
        assert isinstance(reply["coordinates"], list)
        assert client.embedding(key).shape == (grid.n, 2)

    @pytest.mark.parametrize(
        "path, field, value, reason",
        [
            ("/query/solve", "rhs",
             {"dtype": "<f8", "shape": [81], "data": "!" * 648}, "base64"),
            ("/query/solve", "rhs", _packed(np.zeros(81), "<i8"), "dtype"),
            ("/query/solve", "rhs", _packed(np.zeros(81), ">f8"), "dtype"),
            ("/query/solve", "rhs",
             {**_packed(np.zeros(81), "<f8"), "shape": [82]}, "shape"),
            ("/query/resistance", "pairs",
             {**_packed(np.zeros((1, 2)), "<i8"), "shape": [-1, -2]},
             "non-negative"),
            ("/query/resistance", "pairs",
             {**_packed(np.zeros((1, 2)), "<i8"), "shape": [2**40, 2**40]},
             "shape"),
            ("/query/solve", "rhs",
             _packed([float("nan")] + [0.0] * 80, "<f8"), "finite"),
            ("/query/embedding", "nodes",
             {**_packed([0], "<i8"), "extra": 1}, "keys"),
            ("/query/solve", "rhs",
             {**_packed(np.zeros(81), "<f8"), "shape": [81, 1, 1]},
             "at most two"),
        ],
        ids=["bad-base64", "dtype-int-for-float", "dtype-big-endian",
             "length-not-shape", "negative-dimensions", "huge-shape",
             "non-finite-rhs", "extra-key", "three-dimensions"],
    )
    def test_malformed_packed_array_is_400_counted_once(
        self, client, grid, path, field, value, reason
    ):
        key = client.register(grid, sigma2=SIGMA2, seed=0)
        before = _http_errors()
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", path, {"key": key, field: value})
        assert excinfo.value.status == 400
        assert reason in str(excinfo.value)
        after = _http_errors()
        bumped = {k: after[k] - before.get(k, 0.0)
                  for k in after if after[k] != before.get(k, 0.0)}
        assert bumped == {(path, "400"): 1.0}

    @pytest.mark.parametrize(
        "shape", [[2**40, 2**40], [2] * 10**6], ids=["huge", "long"]
    )
    def test_huge_declared_shape_with_short_body_is_400_fast(
        self, service, shape
    ):
        """The declared shape never sizes an allocation or a read, and a
        long one (a 3-MB body) is refused before its product is taken:
        that product alone would take tens of seconds."""
        body = json.dumps({
            "n": 3,
            "u": {"dtype": "<i8", "shape": shape, "data": "AAAAAAAAAAA="},
            "v": [1, 2], "w": [1.0, 1.0],
        }).encode("ascii")
        start = time.perf_counter()
        status, reply = _raw_post(service, str(len(body)), body)
        assert time.perf_counter() - start < 5.0
        assert status == 400
        assert b"packed u" in reply
        assert len(reply) < 200  # the shape is not echoed back

    @pytest.mark.parametrize(
        "body",
        [b'{"n": ' + b"1" * 5000 + b"}", b"[" * 100000 + b"]" * 100000],
        ids=["integer-past-digit-limit", "nesting-past-recursion-limit"],
    )
    def test_json_the_parser_refuses_is_400(self, service, body):
        """json.loads raises ValueError/RecursionError, not
        JSONDecodeError, on these; both get an answer."""
        status, reply = _raw_post(service, str(len(body)), body)
        assert status == 400
        assert b"not JSON" in reply


def _wait_until(condition, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


def _handler_threads() -> list:
    return [t for t in threading.enumerate() if "process_request_thread" in t.name]


class _ScriptedServer:
    """A bare TCP listener standing in for a server that drops connections.

    With ``answer_first``, the first request on the first connection
    gets a keep-alive ``200 {}`` and then the connection closes; every
    other connection closes before answering.  ``accepted`` counts the
    connections the client opened.
    """

    def __init__(self, answer_first: bool) -> None:
        self.answer_first = answer_first
        self.accepted = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self.listener.getsockname()[1]}"
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while True:
            try:
                connection, _ = self.listener.accept()
            except OSError:
                return  # closed
            self.accepted += 1
            with connection:
                if self.answer_first and self.accepted == 1:
                    received = b""
                    while b"\r\n\r\n" not in received:
                        chunk = connection.recv(4096)
                        if not chunk:
                            break  # the client gave up
                        received += chunk
                    connection.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                        b"Content-Length: 2\r\n\r\n{}"
                    )

    def close(self) -> None:
        self.listener.shutdown(socket.SHUT_RDWR)  # wakes the accept()
        self.listener.close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


class TestKeepAlive:
    """HTTP/1.1 connections that carry many requests, and where they end."""

    def test_two_requests_share_one_connection(self, service):
        url = urlparse(service.url)
        connection = http.client.HTTPConnection(url.hostname, url.port, timeout=5)
        try:
            statuses = []
            for path in ("/stats", "/health"):
                connection.request("GET", path)
                response = connection.getresponse()
                response.read()
                statuses.append((response.version, response.status))
                if path == "/stats":
                    first = connection.sock
            assert connection.sock is first  # http.client did not reconnect
            assert statuses == [(11, 200), (11, 200)]
        finally:
            connection.close()

    @pytest.mark.parametrize(
        "length, status", [("-1", 400), ("1000000000000", 413)],
        ids=["bad-length-400", "oversized-413"],
    )
    def test_unread_body_closes_the_connection(self, service, length, status):
        """Without ``Connection: close`` from the client, the refusals
        still end the connection: the socket reads to end of input
        within its 5-s timeout."""
        url = urlparse(service.url)
        request = (
            f"POST /graphs HTTP/1.1\r\nHost: {url.hostname}\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode("ascii")
        with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
            sock.sendall(request)
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head = reply.partition(b"\r\n\r\n")[0].decode("ascii").lower()
        assert head.startswith(f"http/1.1 {status}")
        assert "\r\nconnection: close" in head

    def test_client_reopens_a_reused_connection_the_server_closed(
        self, service, client
    ):
        client.stats()
        first = client._connection().sock
        service._server.end_connections()  # as stop() does, minus the stop
        _wait_until(lambda: not service._server._connections)
        assert client.stats()["stats"]["builds"] == 0
        assert client._connection().sock is not first

    def test_failure_on_a_fresh_connection_is_not_retried(self):
        server = _ScriptedServer(answer_first=False)
        try:
            with ServeClient(server.url, timeout=5) as client:
                with pytest.raises(ConnectionError):
                    client.stats()
            assert server.accepted == 1
        finally:
            server.close()

    def test_reused_connection_is_retried_once(self):
        server = _ScriptedServer(answer_first=True)
        try:
            with ServeClient(server.url, timeout=5) as client:
                assert client.stats() == {}
                _wait_until(lambda: server.accepted == 1)
                with pytest.raises(ConnectionError):
                    client.stats()  # dropped reused, then dropped fresh
            assert server.accepted == 2
        finally:
            server.close()

    def test_stop_leaves_no_idle_handler_thread(self, tmp_path, grid):
        registry = SparsifierRegistry(tmp_path / "spool")
        service = SparsifierService(registry)
        service.start()
        idle, busy = ServeClient(service.url), ServeClient(service.url)
        with idle, busy:
            idle.stats()
            busy.register(grid, sigma2=SIGMA2, seed=0)
            assert len(_handler_threads()) == 2
            stopper = threading.Thread(target=service.stop, daemon=True)
            stopper.start()
            stopper.join(timeout=5)
            assert not stopper.is_alive()
            assert _handler_threads() == []

    def test_threads_share_one_client(self, service, grid):
        """Eight threads (more than cores) on one client with a short
        switch interval: every answer is the engine's, and close() then
        reaches every connection the threads opened."""
        client = ServeClient(service.url)
        key = client.register(grid, sigma2=SIGMA2, seed=0)
        engine = service.registry.engine(key)
        errors = []

        def work(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(15):
                    pairs = rng.integers(0, grid.n, size=(4, 2))
                    assert np.array_equal(
                        client.resistance(key, pairs), engine.resistance(pairs)
                    )
            except BaseException as exc:  # re-raised below, in the test
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(s,)) for s in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        if errors:
            raise errors[0]
        client.close()
        _wait_until(lambda: not service._server._connections)

    def test_stop_without_start_returns(self, tmp_path):
        service = SparsifierService(SparsifierRegistry(tmp_path / "spool"))
        stopper = threading.Thread(target=service.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()

    def test_close_ends_the_server_side_of_the_connection(self, service):
        with ServeClient(service.url) as client:
            client.stats()
            assert len(service._server._connections) == 1
        _wait_until(lambda: not service._server._connections)
        assert client._connections == {}
        client.stats()  # a closed client reconnects
        client.close()
