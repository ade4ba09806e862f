"""JSON-over-HTTP query service and its in-process client.

A thin stdlib (:class:`http.server.ThreadingHTTPServer`) front end over
a :class:`~repro.serve.SparsifierRegistry` — no framework, no new
dependencies.  One handler thread per connection; per-artifact engine
locks serialize queries against event application, and the registry
lock serializes admissions/evictions.

Routes (all bodies and responses are JSON; array fields are marked
``[f8]`` or ``[i8]``):

=======  =====================  ==============================================
Method   Path                   Action
=======  =====================  ==============================================
GET      ``/stats``             registry snapshot (keys, residency, counters,
                                per-artifact pipeline stage profiles and a
                                metrics-registry snapshot)
GET      ``/metrics``           Prometheus text exposition of the process
                                metrics registry (latency histograms,
                                registry hit/miss counters, solver and
                                HTTP error counters — ``text/plain``,
                                not JSON)
GET      ``/health``            SLO alert-rule evaluation over the live
                                metrics snapshot — ``200`` when every
                                rule passes, ``503`` otherwise, with a
                                per-rule JSON body either way
POST     ``/graphs``            register ``{n, u[i8], v[i8], w[f8], sigma2?,
                                seed?, ...}`` → ``{key, ...}``
POST     ``/query/resistance``  ``{key, pairs[i8]}`` → ``{values[f8]}``,
                                effective resistances
POST     ``/query/similarity``  ``{key, pairs[i8]}`` → ``{values[f8]}``,
                                ``w·R_eff`` edge scores
POST     ``/query/solve``       ``{key, rhs[f8]}`` → ``{x[f8]}``, ``L_P⁺ rhs``
POST     ``/query/embedding``   ``{key, nodes[i8]?, dim?}`` →
                                ``{coordinates[f8]}``, spectral coordinates
POST     ``/events``            ``{key, events}`` → apply a stream batch
POST     ``/shutdown``          stop serving (after responding)
=======  =====================  ==============================================

An array field is either a plain (nested) JSON list or the packed form
``{"dtype": "<f8" | "<i8", "shape": [...], "data": base64}``, whose
``data`` is the base64 of the array's little-endian bytes in C order.
The packed form skips float formatting and parsing, which costs far
more than a solve.  Its ``dtype`` must be the field's; a bad base64
string, a ``shape`` of more than two entries or with a negative one,
or a byte count that does not match ``shape`` is a ``400``; the length
check runs before decoding, so no allocation is ever sized by the
declared shape.  Responses answer in kind: a query whose array field
came packed gets its ``values``, ``x`` or ``coordinates`` packed, any
other gets lists (so an embedding request without ``nodes`` gets
lists).  :class:`ServeClient` packs everything it sends.  Integer
fields, in either form, refuse boolean, non-integral and non-finite
entries rather than casting them.

Event records use the same shape as the JSONL event-log format, and
the same parser (:func:`repro.stream.events.event_from_record`):
``{"type": "insert"|"delete"|"update", "u": int, "v": int, "w": float}``
(``w`` absent on deletes), so a captured log line can be POSTed
verbatim.

Error mapping: malformed JSON, a body that is not a JSON object, or a
:class:`ValueError`, :class:`TypeError` or :class:`OverflowError` from
the layers below → ``400``; an unknown artifact key or route → ``404``;
a body longer than :data:`MAX_BODY_BYTES` → ``413`` (refused before
reading it); any other exception → ``500`` with the body ``{"error":
"internal server error"}``, its traceback logged.  A spilled artifact
whose checkpoint no longer loads is one of these
(:class:`~repro.serve.registry.ArtifactReloadError`): the spool is the
server's own storage, and its paths stay in the log.  Other error
bodies are ``{"error": message}``.  Every response with a status ≥ 400
bumps ``repro_http_errors_total{endpoint,status}``, which the default
``http_server_errors`` alert rule reads for 500s: after one, ``GET
/health`` answers 503 until the process restarts.

:class:`ServeClient` is the matching in-process client (stdlib
``urllib``), used by the CLI, the tests and the benchmark.
"""

from __future__ import annotations

import base64
import binascii
import json
import logging
import math
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from repro.graphs.graph import Graph
from repro.obs import enable_metrics, get_metrics, get_tracer
from repro.obs.alerts import default_serving_rules, evaluate_rules
from repro.serve.registry import SparsifierRegistry
from repro.stream.events import event_from_record, event_to_record
from repro.utils.validation import as_index_array, check_vertex_count

__all__ = ["MAX_BODY_BYTES", "ServeClient", "ServiceError", "SparsifierService"]

_LOG = logging.getLogger(__name__)

#: Largest request body the service reads (64 MiB); a longer declared
#: ``Content-Length`` gets a 413 before any of the body is read.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Known routes — the label space of the per-endpoint latency histogram
#: and error counter (unknown paths pool under ``"other"`` so labels
#: stay bounded).
_ENDPOINTS = frozenset({
    "/stats", "/metrics", "/health", "/graphs", "/query/resistance",
    "/query/similarity", "/query/solve", "/query/embedding", "/events",
    "/shutdown",
})


#: Wire dtypes of the packed array form, and the in-memory dtype each
#: decodes to.
_F8, _I8 = "<f8", "<i8"
_NATIVE = {_F8: np.float64, _I8: np.int64}


def _pack(array, dtype: str) -> dict:
    """An array in the packed wire form (C-order little-endian bytes)."""
    data = np.asarray(array, dtype=dtype)
    return {
        "dtype": dtype,
        "shape": list(data.shape),
        "data": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def _unpack(value, dtype: str, name: str) -> np.ndarray:
    """One array field off the wire: the packed form or a JSON list.

    Returns a writable native-endian array.  Every check on the packed
    form runs before its ``data`` is decoded, so a huge declared
    ``shape`` costs no allocation; every array field is 1-D or 2-D, and
    refusing a longer ``shape`` first keeps its product O(1) (the
    product of a long list of big integers is quadratic in its length).
    """
    if not isinstance(value, dict):
        if dtype == _I8:
            return as_index_array(value, name)
        return np.asarray(value, dtype=np.float64)
    if set(value) != {"dtype", "shape", "data"}:
        raise ValueError(
            f"packed {name} must have exactly the keys dtype, shape and data"
        )
    if value["dtype"] != dtype:
        raise ValueError(
            f"packed {name} must have dtype {dtype!r}, got {value['dtype']!r}"
        )
    shape, data = value["shape"], value["data"]
    if not isinstance(shape, list) or len(shape) > 2 or not all(
        type(dim) is int and dim >= 0 for dim in shape
    ):
        raise ValueError(
            f"packed {name} shape must be a list of at most two "
            "non-negative integers"
        )
    if not isinstance(data, str):
        raise ValueError(f"packed {name} data must be a base64 string")
    nbytes = math.prod(shape) * 8
    if len(data) != 4 * -(-nbytes // 3):
        # The declared sizes may run to thousands of digits: echo none.
        raise ValueError(
            f"packed {name} has {len(data)} base64 characters, which "
            "does not match its shape"
        )
    try:
        raw = base64.b64decode(data, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"packed {name} data is not base64: {exc}") from exc
    if len(raw) != nbytes:
        raise ValueError(
            f"packed {name} decodes to {len(raw)} bytes; shape {shape} "
            f"needs {nbytes}"
        )
    return np.frombuffer(raw, dtype=dtype).reshape(shape).astype(_NATIVE[dtype])


def _reply(array: np.ndarray, sent) -> dict | list:
    """A float result in the form its request's array came in."""
    return _pack(array, _F8) if isinstance(sent, dict) else array.tolist()


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests into the bound service (internal)."""

    service: "SparsifierService"  # bound per-service via a subclass

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # no stderr chatter from handler threads

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send_bytes(status, body, "application/json")

    def _send_text(self, status: int, text: str) -> None:
        self._send_bytes(
            status, text.encode("utf-8"), "text/plain; version=0.0.4"
        )

    def _send_bytes(self, status: int, body: bytes, content_type: str) -> None:
        if status >= 400:
            get_metrics().counter(
                "repro_http_errors_total",
                "HTTP responses with status >= 400, by endpoint and "
                "status (unknown paths pool under 'other').",
                labelnames=("endpoint", "status"),
            ).inc(endpoint=self._endpoint(), status=str(status))
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        # Observed before the body goes out, like the error counter, so a
        # client that has read its response finds it in /metrics.
        get_metrics().histogram(
            "repro_http_request_seconds",
            "Wall-clock seconds per HTTP request, by endpoint "
            "(unknown paths pool under 'other').",
            labelnames=("endpoint",),
        ).observe(self._span.lap(), endpoint=self._endpoint())
        self.wfile.write(body)

    def _endpoint(self) -> str:
        return self.path if self.path in _ENDPOINTS else "other"

    def do_GET(self) -> None:
        with get_tracer().span(
            f"GET {self.path}", category="serve"
        ) as self._span:
            if self.path == "/stats":
                payload = self.service._registry.describe()
                payload["metrics"] = get_metrics().snapshot()
                payload["health"] = self.service.health_report().as_dict()
                self._send(200, payload)
            elif self.path == "/metrics":
                self._send_text(200, get_metrics().render_prometheus())
            elif self.path == "/health":
                report = self.service.health_report()
                self._send(200 if report.healthy else 503, report.as_dict())
            else:
                self._send(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:
        with get_tracer().span(
            f"POST {self.path}", category="serve"
        ) as self._span:
            self._handle_post()

    def _handle_post(self) -> None:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            # A negative length would make rfile.read wait for EOF.
            self._send(400, {"error": f"invalid Content-Length {header!r}"})
            return
        if length > MAX_BODY_BYTES:
            # Refuse before reading: rfile.read would allocate the whole
            # declared length, or wait for bytes that never come.
            self._send(413, {
                "error": f"Content-Length {length} exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            })
            return
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw) if raw else {}
        except (ValueError, RecursionError) as exc:
            # Besides JSONDecodeError (a ValueError): an integer literal
            # past Python's 4300-digit limit, or nesting past the
            # recursion limit — either would otherwise drop the
            # connection without an answer.
            self._send(400, {"error": f"request body is not JSON: {exc}"})
            return
        try:
            result = self.service._dispatch(self.path, payload)
        except KeyError as exc:
            self._send(404, {"error": str(exc.args[0]) if exc.args else "not found"})
            return
        except (ValueError, TypeError, OverflowError) as exc:
            # TypeError covers payloads that are JSON but the wrong
            # shape (e.g. unexpected register parameters, a scalar
            # where a list belongs) and OverflowError integers too
            # large for an index array — still the client's fault.
            self._send(400, {"error": str(exc)})
            return
        except Exception:
            # A bug below the handler: answer instead of dropping the
            # connection, and keep the traceback for the operator.
            _LOG.exception("POST %s failed", self.path)
            self._send(500, {"error": "internal server error"})
            return
        self._send(200, result)
        if self.path == "/shutdown":
            # Stop the serve_forever loop from outside the handler thread
            # once the response is on the wire.
            threading.Thread(
                target=self.service._server.shutdown, daemon=True
            ).start()


class SparsifierService:
    """HTTP front end serving spectral queries from a registry.

    Parameters
    ----------
    registry:
        The artifact store to serve from (shared with in-process code).
    host:
        Bind address (default loopback).
    port:
        TCP port; ``0`` picks a free one (see :attr:`address`).
    metrics:
        When True (the default), enable the process metrics registry
        (:func:`repro.obs.enable_metrics`) so ``GET /metrics`` serves
        live counters and latency histograms from every layer; pass
        False to leave the ambient observability configuration alone
        (``/metrics`` then renders whatever is active — an empty body
        when disabled).
    alert_rules:
        SLO rules evaluated by ``GET /health`` (and echoed in
        ``/stats``); default
        :func:`repro.obs.alerts.default_serving_rules`.  Pass an
        empty tuple for an always-healthy service.

    Examples
    --------
    >>> import tempfile
    >>> from repro.graphs import generators
    >>> from repro.serve import ServeClient, SparsifierRegistry, SparsifierService
    >>> registry = SparsifierRegistry(tempfile.mkdtemp())
    >>> with SparsifierService(registry) as service:
    ...     client = ServeClient(service.url)
    ...     key = client.register(generators.grid2d(6, 6, seed=0), sigma2=150.0)
    ...     float(client.resistance(key, [[0, 0]])[0])
    0.0
    """

    def __init__(
        self,
        registry: SparsifierRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: bool = True,
        alert_rules=None,
    ) -> None:
        self._registry = registry
        self.alert_rules = tuple(
            default_serving_rules() if alert_rules is None else alert_rules
        )
        if metrics:
            enable_metrics()
        handler = type("_BoundHandler", (_Handler,), {"service": self})
        self._server = ThreadingHTTPServer((host, port), handler)
        self._thread: threading.Thread | None = None

    @property
    def registry(self) -> SparsifierRegistry:
        """The artifact store the service answers from."""
        return self._registry

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` pair."""
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        """Base URL clients should talk to."""
        host, port = self.address
        return f"http://{host}:{port}"

    def health_report(self):
        """Evaluate the service's alert rules against live metrics.

        Returns
        -------
        repro.obs.alerts.HealthReport
            Per-rule verdicts over the current
            :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`; this
            is what ``GET /health`` serializes.
        """
        return evaluate_rules(self.alert_rules, get_metrics().snapshot())

    def start(self) -> None:
        """Start serving on a daemon thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever, daemon=True
            )
            self._thread.start()

    def wait(self) -> None:
        """Block until the serve loop exits (``POST /shutdown``)."""
        if self._thread is not None:
            self._thread.join()

    def stop(self) -> None:
        """Stop the serve loop and close the listening socket."""
        self._server.shutdown()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "SparsifierService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _dispatch(self, path: str, payload: dict) -> dict:
        routes = {
            "/graphs": self._post_graphs,
            "/query/resistance": self._post_resistance,
            "/query/similarity": self._post_similarity,
            "/query/solve": self._post_solve,
            "/query/embedding": self._post_embedding,
            "/events": self._post_events,
            "/shutdown": lambda payload: {"ok": True},
        }
        handler = routes.get(path)
        if handler is None:
            raise KeyError(f"unknown path {path!r}")
        if not isinstance(payload, dict):
            # Valid JSON, but every route reads named fields: a bare
            # array, string or number is the client's error, not a 500.
            raise TypeError("request body must be a JSON object")
        return handler(payload)

    @staticmethod
    def _required(payload: dict, field: str):
        value = payload.get(field)
        if value is None:
            raise ValueError(f"missing required field {field!r}")
        return value

    def _post_graphs(self, payload: dict) -> dict:
        graph = Graph(
            self._required(payload, "n"),
            _unpack(self._required(payload, "u"), _I8, "u"),
            _unpack(self._required(payload, "v"), _I8, "v"),
            _unpack(self._required(payload, "w"), _F8, "w"),
        )
        params = {
            k: v
            for k, v in payload.items()
            if k not in ("n", "u", "v", "w")
        }
        key = self._registry.register(graph, **params)
        entry = self._registry.get(key)
        return {
            "key": key,
            "num_vertices": int(entry.dynamic.graph.n),
            "num_edges": int(entry.dynamic.num_edges),
            "sigma2": float(entry.dynamic.sigma2),
            "sigma2_estimate": _finite(entry.dynamic.last_estimate),
        }

    def _post_resistance(self, payload: dict) -> dict:
        engine = self._registry.engine(self._required(payload, "key"))
        pairs = self._required(payload, "pairs")
        values = engine.resistance(_unpack(pairs, _I8, "pairs"))
        return {"values": _reply(values, pairs)}

    def _post_similarity(self, payload: dict) -> dict:
        engine = self._registry.engine(self._required(payload, "key"))
        pairs = self._required(payload, "pairs")
        values = engine.similarity(_unpack(pairs, _I8, "pairs"))
        return {"values": _reply(values, pairs)}

    def _post_solve(self, payload: dict) -> dict:
        engine = self._registry.engine(self._required(payload, "key"))
        rhs = self._required(payload, "rhs")
        x = engine.solve(_unpack(rhs, _F8, "rhs"))
        return {"x": _reply(x, rhs)}

    def _post_embedding(self, payload: dict) -> dict:
        engine = self._registry.engine(self._required(payload, "key"))
        nodes = payload.get("nodes")
        coords = engine.embedding(
            None if nodes is None else _unpack(nodes, _I8, "nodes"),
            dim=check_vertex_count(payload.get("dim", 2), name="dim"),
        )
        return {"coordinates": _reply(coords, nodes)}

    def _post_events(self, payload: dict) -> dict:
        key = self._required(payload, "key")
        records = self._required(payload, "events")
        events = [event_from_record(r) for r in records]
        report = self._registry.apply_events(key, events)
        return {
            "batch": report.batch,
            "num_events": report.num_events,
            "inserted": report.inserted,
            "deleted": report.deleted,
            "reweighted": report.reweighted,
            "tree_repairs": report.tree_repairs,
            "tree_rebuilt": report.tree_rebuilt,
            "checked": report.checked,
            "redensified": report.redensified,
            "sigma2_estimate": _finite(report.sigma2_estimate),
            "num_edges": report.num_edges,
            "elapsed": report.elapsed,
        }


def _finite(value: float) -> float | None:
    """NaN-free float for JSON payloads (NaN becomes None)."""
    return None if np.isnan(value) else float(value)


class ServiceError(RuntimeError):
    """A non-2xx response from the service, carrying the HTTP status.

    Attributes
    ----------
    status:
        The HTTP status code.
    body:
        The parsed JSON response body when the error response carried
        one (``None`` otherwise) — a 503 from ``/health`` puts the
        per-rule verdicts here.
    """

    def __init__(self, status: int, message: str, body: dict | None = None) -> None:
        super().__init__(f"[{status}] {message}")
        self.status = int(status)
        self.body = body


class ServeClient:
    """In-process JSON client for :class:`SparsifierService`.

    Every array it sends goes in the packed base64 form, so the service
    packs its answers too (an embedding request without ``nodes`` sends
    no array and gets lists); either way the methods return the float64
    values bit for bit as the engine computed them.
    Vertex labels (``pairs``, ``nodes``) are checked before sending: a
    boolean, fractional or non-finite label raises :class:`ValueError`
    here rather than a :class:`ServiceError` from the service.

    Parameters
    ----------
    url:
        Service base URL (``service.url``).
    timeout:
        Per-request socket timeout in seconds.
    """

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = float(timeout)

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            self.url + path,
            data=data,
            headers={"Content-Type": "application/json"},
            method=method,
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            body = None
            try:
                body = json.loads(exc.read())
                message = body.get("error", str(exc)) if isinstance(
                    body, dict
                ) else str(exc)
            except (json.JSONDecodeError, ValueError):  # pragma: no cover
                message = str(exc)
            finally:
                exc.close()  # the error response holds the socket open
            raise ServiceError(exc.code, message, body=body) from exc

    def _query(self, path: str, payload: dict, result: str) -> np.ndarray:
        """POST a query; unpack the float array field ``result`` of the reply."""
        return _unpack(self._request("POST", path, payload)[result], _F8, result)

    def register(self, graph: Graph, **params) -> str:
        """Register a graph with the service.

        Parameters
        ----------
        graph:
            Connected host graph.
        params:
            Sparsify parameters (``sigma2``, ``seed``, ``tree_method``,
            ...), forwarded to
            :meth:`~repro.serve.SparsifierRegistry.register`.

        Returns
        -------
        str
            The artifact key to pass to the query methods.
        """
        payload = {
            "n": int(graph.n),
            "u": _pack(graph.u, _I8),
            "v": _pack(graph.v, _I8),
            "w": _pack(graph.w, _F8),
            **params,
        }
        return self._request("POST", "/graphs", payload)["key"]

    def resistance(self, key: str, pairs) -> np.ndarray:
        """Effective resistances of vertex pairs.

        Parameters
        ----------
        key:
            Artifact key from :meth:`register`.
        pairs:
            ``(k, 2)`` vertex pairs.

        Returns
        -------
        numpy.ndarray
            One resistance per pair.
        """
        payload = {"key": key, "pairs": _pack(as_index_array(pairs, "pairs"), _I8)}
        return self._query("/query/resistance", payload, "values")

    def similarity(self, key: str, pairs) -> np.ndarray:
        """Edge similarity scores ``w·R_eff`` of host edges.

        Parameters
        ----------
        key:
            Artifact key from :meth:`register`.
        pairs:
            ``(k, 2)`` endpoint pairs, each a host edge.

        Returns
        -------
        numpy.ndarray
            One score per edge.
        """
        payload = {"key": key, "pairs": _pack(as_index_array(pairs, "pairs"), _I8)}
        return self._query("/query/similarity", payload, "values")

    def solve(self, key: str, rhs) -> np.ndarray:
        """Apply ``L_P⁺`` to a right-hand side.

        Parameters
        ----------
        key:
            Artifact key from :meth:`register`.
        rhs:
            Vector (length ``n``) or matrix (``n`` rows).

        Returns
        -------
        numpy.ndarray
            The solution, with the shape of ``rhs``.
        """
        return self._query("/query/solve", {"key": key, "rhs": _pack(rhs, _F8)}, "x")

    def embedding(self, key: str, nodes=None, dim: int = 2) -> np.ndarray:
        """Spectral-drawing coordinates of vertices.

        Parameters
        ----------
        key:
            Artifact key from :meth:`register`.
        nodes:
            Vertex labels (default: all vertices).
        dim:
            Embedding dimension.

        Returns
        -------
        numpy.ndarray
            ``(len(nodes), dim)`` coordinates.
        """
        payload: dict = {"key": key, "dim": int(dim)}
        if nodes is not None:
            payload["nodes"] = _pack(as_index_array(nodes, "nodes"), _I8)
        return self._query("/query/embedding", payload, "coordinates")

    def events(self, key: str, events) -> dict:
        """Stream an edge-event batch into a served artifact.

        Parameters
        ----------
        key:
            Artifact key from :meth:`register`.
        events:
            :class:`~repro.stream.events.EdgeEvent` instances or raw
            JSONL-shaped records (dicts).

        Returns
        -------
        dict
            The batch report (counts, repairs, σ² estimate).
        """
        records = [
            e if isinstance(e, dict) else event_to_record(e) for e in events
        ]
        return self._request("POST", "/events", {"key": key, "events": records})

    def stats(self) -> dict:
        """Registry snapshot (keys, residency, traffic counters).

        Returns
        -------
        dict
            The ``GET /stats`` payload (including a ``"metrics"``
            snapshot of the process metrics registry).
        """
        return self._request("GET", "/stats")

    def metrics(self) -> str:
        """Prometheus text exposition from ``GET /metrics``.

        Returns
        -------
        str
            The exposition body (empty when metrics are disabled
            service-side).
        """
        request = urllib.request.Request(self.url + "/metrics", method="GET")
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            return response.read().decode("utf-8")

    def health(self) -> dict:
        """SLO health from ``GET /health`` (both 200 and 503 bodies).

        Unlike the other client methods, a 503 is a *result* here — the
        load-balancer contract encodes "unhealthy" in the status code
        while the body still carries the per-rule verdicts.

        Returns
        -------
        dict
            ``{"healthy": bool, "rules": [...]}`` regardless of
            status code.

        Raises
        ------
        ServiceError
            For any non-200, non-503 response.
        """
        try:
            return self._request("GET", "/health")
        except ServiceError as exc:
            if exc.status != 503 or exc.body is None:
                raise
            return exc.body

    def shutdown(self) -> None:
        """Ask the service to stop serving (after it responds)."""
        self._request("POST", "/shutdown", {})
