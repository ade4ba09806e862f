"""JSON-over-HTTP query service and its in-process client.

A small HTTP/1.1 front end over a :class:`~repro.serve.SparsifierRegistry`
on stdlib :mod:`asyncio` — no framework, no new dependencies.  One
event-loop thread owns the listening socket and every connection.  It
reads each request whole — the request line and headers under
:mod:`http.server`'s limits, then the body by ``Content-Length`` —
before it opens the request's ``serve`` span and runs its route
synchronously, so no two requests contend for the GIL and the spans on
the loop's trace lane never interleave.  Only ``POST /graphs``, a full
sparsification, runs on a worker thread of the loop's executor, so
``/health`` and other artifacts' queries keep answering during a build.
``POST /events`` runs inline: its batch waits on the artifact's entry
lock like any query, and while it runs, queries on other artifacts wait
for it too (an accepted cost; the batches are short).

A connection stays open across requests, with ``TCP_NODELAY``, until
the client sends ``Connection: close`` or speaks HTTP/1.0; pipelined
requests are answered in order, and ``Expect: 100-continue`` gets its
interim ``100 Continue``.  A request the transport refuses gets a JSON
``{"error"}`` answer with ``Connection: close``, and its connection
closes with the rest of its input unread: a malformed request line
(``400``), a request line over 64 KiB (``414``), a header line over
64 KiB or more than 100 header lines (``431``), a method other than GET
and POST (``501``), a version other than HTTP/1.0 and HTTP/1.1
(``505``), a ``Transfer-Encoding`` without ``Content-Length`` (``411``),
a bad or negative ``Content-Length`` (``400``) and one above
:data:`MAX_BODY_BYTES` (``413``).  ``POST /shutdown`` closes its
connection too, after answering.  :meth:`SparsifierService.stop` closes
the listener and every idle connection, lets the requests in flight
finish and answer (a registration on the executor included), and
returns once the loop thread has ended.

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
entries rather than casting them, and float fields (``w``, ``rhs`` and
an event's ``w``) refuse booleans and strings.

Event records use the same shape as the JSONL event-log format, and
the same parser (:func:`repro.stream.events.event_from_record`):
``{"type": "insert"|"delete"|"update", "u": int, "v": int, "w": float}``
(``w`` absent on deletes), so a captured log line can be POSTed
verbatim.

Error mapping: malformed JSON, a body that is not a JSON object, or a
:class:`ValueError`, :class:`TypeError` or :class:`OverflowError` from
the layers below → ``400``; an unknown artifact key or route → ``404``;
any other exception → ``500`` with the body ``{"error": "internal
server error"}``, its traceback logged.  A spilled artifact
whose checkpoint no longer loads is one of these
(:class:`~repro.serve.registry.ArtifactReloadError`): the spool is the
server's own storage, and its paths stay in the log.  Other error
bodies are ``{"error": message}``.  Every response with a status ≥ 400,
the transport's refusals included, bumps
``repro_http_errors_total{endpoint,status}`` once, which the default
``http_server_errors`` alert rule reads for 500s: after one, ``GET
/health`` answers 503 until the process restarts.

:class:`ServeClient` is the matching in-process client, used by the
CLI, the tests and the benchmark.  It keeps one persistent stdlib
:class:`http.client.HTTPConnection` per calling thread and sends a
request again, once, when a *reused* connection turns out to have been
closed by the server while it sat idle; :meth:`ServeClient.close` (or a
``with`` block) closes its connections.
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import http.client
import json
import logging
import math
import re
import socket
import threading
import time
import weakref
from email.utils import formatdate
from http import HTTPStatus

import numpy as np

from repro.graphs.graph import Graph
from repro.obs import enable_metrics, get_metrics, get_tracer
from repro.obs.alerts import default_serving_rules, evaluate_rules
from repro.serve.registry import SparsifierRegistry
from repro.stream.events import event_from_record, event_to_record
from repro.utils.validation import (
    as_float_array,
    as_index_array,
    check_vertex_count,
)

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

#: Longest request or header line the service reads, its line end
#: included, and the most header lines a request may carry (the limits
#: of :mod:`http.server`).
_MAX_LINE = 65536
_MAX_HEADERS = 100

_VERSION = re.compile(r"HTTP/([0-9]{1,9})\.([0-9]{1,9})")


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
        return as_float_array(value, name)
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


class _Refused(Exception):
    """A request the transport refuses; its connection closes after the answer."""

    def __init__(self, status: int, message: str, path: str = "") -> None:
        super().__init__(message)
        self.status = status
        self.path = path


async def _read_line(
    reader: asyncio.StreamReader, status: int, what: str, path: str = ""
):
    """One line with its end, or ``None`` when the input ends first."""
    try:
        line = await reader.readline()
    except ValueError:  # the line ran past the reader's limit
        raise _Refused(
            status, f"{what} longer than {_MAX_LINE} bytes", path
        ) from None
    return line if line.endswith(b"\n") else None


async def _read_request(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
    """The connection's next request, read whole.

    Returns ``(method, path, body, close)`` — ``close`` when the reply
    must end the connection — or ``None`` when the input ends before a
    request is complete.  Raises :class:`_Refused` for a request the
    transport refuses, before any of its body is read.
    """
    line = await _read_line(reader, 414, "request line")
    if line is None:
        return None
    words = line.decode("latin-1").split()
    if len(words) != 3:
        raise _Refused(400, "malformed request line")
    method, path, version = words
    match = _VERSION.fullmatch(version)
    if match is None:
        raise _Refused(400, "malformed request line", path)
    number = (int(match[1]), int(match[2]))
    if number not in ((1, 0), (1, 1)):
        raise _Refused(505, "only HTTP/1.0 and HTTP/1.1 are supported", path)
    headers: dict = {}
    for count in range(_MAX_HEADERS + 1):
        line = await _read_line(reader, 431, "header line", path)
        if line is None:
            return None
        if line in (b"\r\n", b"\n"):
            break
        if count == _MAX_HEADERS:
            raise _Refused(431, f"more than {_MAX_HEADERS} header lines", path)
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon:
            raise _Refused(400, "malformed header line", path)
        headers.setdefault(name.strip().lower(), value.strip())
    if method not in ("GET", "POST"):
        raise _Refused(501, "only GET and POST are supported", path)
    header = headers.get("content-length")
    if header is None:
        if "transfer-encoding" in headers:
            raise _Refused(411, "a request body needs a Content-Length", path)
        header = "0"
    try:
        length = int(header)
    except ValueError:
        length = -1
    if length < 0:
        # A negative length cannot frame a body.
        raise _Refused(400, f"invalid Content-Length {header!r}", path)
    if length > MAX_BODY_BYTES:
        # Refused unread: reading would buffer the whole declared length,
        # or wait for bytes that never come.
        raise _Refused(
            413, f"Content-Length {length} exceeds the {MAX_BODY_BYTES}-byte limit",
            path,
        )
    if number == (1, 1) and headers.get("expect", "").lower() == "100-continue":
        writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
    body = await reader.readexactly(length)
    close = number == (1, 0) or headers.get("connection", "").lower() == "close"
    return method, path, body, close


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
        self._listener = socket.create_server((host, port))
        self._listener.setblocking(False)
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping: asyncio.Future | None = None
        # Touched on the loop thread only: every connection's task, and
        # the writers of the connections not busy with a request.
        self._tasks: set = set()
        self._idle: set = set()
        self._date = (0, "")

    @property
    def registry(self) -> SparsifierRegistry:
        """The artifact store the service answers from."""
        return self._registry

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` pair."""
        host, port = self._listener.getsockname()[:2]
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
        """Start serving on the loop's daemon thread (idempotent)."""
        if self._thread is None:
            self._loop = asyncio.new_event_loop()
            self._stopping = self._loop.create_future()
            self._thread = threading.Thread(
                target=self._run, name="repro-serve", daemon=True
            )
            self._thread.start()

    def wait(self) -> None:
        """Block until the loop thread exits (``POST /shutdown``)."""
        if self._thread is not None:
            self._thread.join()

    def stop(self) -> None:
        """Stop serving: close the listener and every connection.

        Idle connections close at once; requests in flight, a
        registration on the executor included, finish and are answered
        first.  Returns once the loop thread has ended, so no thread of
        the service outlives the call; without :meth:`start` it only
        closes the listening socket.
        """
        if self._thread is not None:
            try:
                self._loop.call_soon_threadsafe(self._request_stop)
            except RuntimeError:
                pass  # the loop has ended already (POST /shutdown)
            self._thread.join()
            self._thread = None
        self._listener.close()

    def __enter__(self) -> "SparsifierService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # The loop thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        loop = self._loop
        try:
            loop.run_until_complete(self._serve())
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            loop.close()

    def _request_stop(self) -> None:
        if not self._stopping.done():
            self._stopping.set_result(None)

    async def _serve(self) -> None:
        """Serve until asked to stop, then wind every connection down."""
        accepting = asyncio.get_running_loop().create_task(self._accept())
        await self._stopping
        accepting.cancel()
        try:
            await accepting  # its reader leaves the listener before the close
        except asyncio.CancelledError:
            pass
        self._listener.close()
        self._close_idle()
        while self._tasks:
            await asyncio.wait(set(self._tasks))

    def _close_idle(self) -> None:
        """Close every connection that is not busy with a request."""
        for writer in self._idle:
            writer.close()

    async def _accept(self) -> None:
        """Accept connections until cancelled; each gets its own task."""
        loop = asyncio.get_running_loop()
        while True:
            try:
                sock, _ = await loop.sock_accept(self._listener)
            except ConnectionAbortedError:
                continue
            except OSError:
                # Out of descriptors, say: wait for some to close.
                _LOG.exception("accepting a connection failed")
                await asyncio.sleep(1.0)
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            task = loop.create_task(self._connection(sock))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

    async def _connection(self, sock: socket.socket) -> None:
        """Answer one connection's requests in order until it ends."""
        loop = asyncio.get_running_loop()
        # The reader's limit admits lines of _MAX_LINE bytes, line end included.
        reader, writer = await asyncio.open_connection(sock=sock, limit=_MAX_LINE - 1)
        try:
            while not self._stopping.done():
                self._idle.add(writer)
                try:
                    request = await _read_request(reader, writer)
                except _Refused as refused:
                    writer.write(self._response(
                        refused.status, {"error": str(refused)}, refused.path,
                        close=True,
                    ))
                    await writer.drain()
                    break
                self._idle.discard(writer)
                if request is None or writer.is_closing():
                    break
                method, path, body, close = request
                if (method, path) == ("POST", "/graphs"):
                    # A full sparsification: off the loop, so other
                    # connections keep being answered meanwhile.
                    reply, stop = await loop.run_in_executor(
                        None, self._answer, method, path, body, close
                    )
                else:
                    reply, stop = self._answer(method, path, body, close)
                writer.write(reply)
                await writer.drain()
                if stop:
                    self._request_stop()
                if stop or close:
                    break
        except (OSError, asyncio.IncompleteReadError):
            pass  # the client went away mid-request
        except Exception:
            # A bug outside the routes (they answer 500 themselves): end
            # this connection only, and keep the traceback.
            _LOG.exception("serving a connection failed")
        finally:
            self._idle.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    def _answer(self, method: str, path: str, body: bytes, close: bool):
        """Route one request read whole, inside its ``serve`` span.

        Returns the reply's bytes and whether it stops the service.
        """
        with get_tracer().span(f"{method} {path}", category="serve") as span:
            status, payload = self._route(method, path, body)
            stop = path == "/shutdown" and status == 200
            return self._response(status, payload, path, close or stop, span), stop

    def _response(
        self, status: int, payload, path: str, close: bool, span=None
    ) -> bytes:
        """A whole response: status line, headers and the encoded payload.

        A ``str`` payload goes out as Prometheus text, anything else as
        JSON.  A status of 400 or more bumps the error counter, and the
        request's ``span``, when there is one, feeds the latency
        histogram: both before the bytes go out, so a client that has
        read its response finds them in ``/metrics``.
        """
        if isinstance(payload, str):
            body, kind = payload.encode("utf-8"), "text/plain; version=0.0.4"
        else:
            body, kind = json.dumps(payload).encode("utf-8"), "application/json"
        endpoint = path if path in _ENDPOINTS else "other"
        if status >= 400:
            get_metrics().counter(
                "repro_http_errors_total",
                "HTTP responses with status >= 400, by endpoint and "
                "status (unknown paths pool under 'other').",
                labelnames=("endpoint", "status"),
            ).inc(endpoint=endpoint, status=str(status))
        if span is not None:
            get_metrics().histogram(
                "repro_http_request_seconds",
                "Wall-clock seconds per HTTP request, by endpoint "
                "(unknown paths pool under 'other').",
                labelnames=("endpoint",),
            ).observe(span.lap(), endpoint=endpoint)
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n{self._date_line()}"
            f"Content-Type: {kind}\r\nContent-Length: {len(body)}\r\n"
            + ("Connection: close\r\n\r\n" if close else "\r\n")
        )
        return head.encode("ascii") + body

    def _date_line(self) -> str:
        """The ``Date`` header line, formatted at most once a second."""
        second = int(time.time())
        date = self._date
        if date[0] != second:
            date = self._date = (
                second, f"Date: {formatdate(second, usegmt=True)}\r\n"
            )
        return date[1]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(self, method: str, path: str, body: bytes) -> tuple:
        """The status and payload answering one request."""
        if method == "POST":
            try:
                payload = json.loads(body) if body else {}
            except (ValueError, RecursionError) as exc:
                # Besides JSONDecodeError (a ValueError): an integer
                # literal past Python's 4300-digit limit, or nesting
                # past the recursion limit.
                return 400, {"error": f"request body is not JSON: {exc}"}
        try:
            if method == "GET":
                return self._get(path)
            return 200, self._dispatch(path, payload)
        except KeyError as exc:
            return 404, {"error": str(exc.args[0]) if exc.args else "not found"}
        except (ValueError, TypeError, OverflowError) as exc:
            # TypeError covers payloads that are JSON but the wrong
            # shape (e.g. unexpected register parameters, a scalar
            # where a list belongs) and OverflowError integers too
            # large for an index array — still the client's fault.
            return 400, {"error": str(exc)}
        except Exception:
            # A bug below the route: answer instead of dropping the
            # connection, and keep the traceback for the operator.
            _LOG.exception("%s %s failed", method, path)
            return 500, {"error": "internal server error"}

    def _get(self, path: str) -> tuple:
        if path == "/stats":
            payload = self._registry.describe()
            payload["metrics"] = get_metrics().snapshot()
            payload["health"] = self.health_report().as_dict()
            return 200, payload
        if path == "/metrics":
            return 200, get_metrics().render_prometheus()
        if path == "/health":
            report = self.health_report()
            return (200 if report.healthy else 503), report.as_dict()
        return 404, {"error": f"unknown path {path!r}"}

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


def _close_all(connections: dict, lock: threading.Lock) -> None:
    """Close and forget every connection in ``connections``."""
    with lock:
        for connection in connections.values():
            connection.close()
        connections.clear()


class ServeClient:
    """In-process JSON client for :class:`SparsifierService`.

    Every array it sends goes in the packed base64 form, so the service
    packs its answers too (an embedding request without ``nodes`` sends
    no array and gets lists); either way the methods return the float64
    values bit for bit as the engine computed them.
    Vertex labels (``pairs``, ``nodes``) are checked before sending: a
    boolean, fractional or non-finite label raises :class:`ValueError`
    here rather than a :class:`ServiceError` from the service.

    Each calling thread gets one persistent HTTP/1.1 connection, opened
    at its first request.  A request that fails on a *reused*
    connection with a connection error (the server closed it while it
    sat idle) is sent once more on a new connection; any other failure,
    and any failure on a fresh connection, is raised.  :meth:`close`
    closes the connections (the client stays usable and reconnects);
    the client is also a context manager that closes on exit, and
    closes what is left when it is garbage collected.

    Parameters
    ----------
    url:
        Service base URL (``service.url``): ``http://host:port``.
    timeout:
        Per-request socket timeout in seconds.

    Raises
    ------
    ValueError
        If ``url`` is not an ``http://`` URL.
    """

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = float(timeout)
        scheme, sep, rest = self.url.partition("://")
        if scheme != "http" or not sep:
            raise ValueError(f"ServeClient needs an http:// URL, got {url!r}")
        self._netloc, _, prefix = rest.partition("/")
        self._prefix = "/" + prefix if prefix else ""
        self._connections: dict[threading.Thread, http.client.HTTPConnection] = {}
        self._lock = threading.Lock()
        weakref.finalize(self, _close_all, self._connections, self._lock)

    def close(self) -> None:
        """Close every connection the client holds.

        The next request opens a new one.
        """
        _close_all(self._connections, self._lock)

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection (not yet connected if new)."""
        thread = threading.current_thread()
        connection = self._connections.get(thread)
        if connection is None:
            connection = http.client.HTTPConnection(
                self._netloc, timeout=self.timeout
            )
            with self._lock:
                for ended in [t for t in self._connections if not t.is_alive()]:
                    self._connections.pop(ended).close()
                self._connections[thread] = connection
        return connection

    def _call(self, method: str, path: str, payload: dict | None = None) -> bytes:
        """One request; the response body, or :class:`ServiceError` for a
        status of 400 or more."""
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {} if data is None else {"Content-Type": "application/json"}
        connection = self._connection()
        for attempt in range(2):
            reused = connection.sock is not None
            try:
                connection.request(method, self._prefix + path, data, headers)
                response = connection.getresponse()
                body = response.read()
                break
            except ConnectionError:
                connection.close()
                if attempt or not reused:
                    raise
            except BaseException:
                connection.close()  # never reuse a half-read exchange
                raise
        if response.status < 400:
            return body
        try:
            parsed = json.loads(body)
        except ValueError:
            parsed = None
        message = f"HTTP {response.status} {response.reason}"
        if isinstance(parsed, dict):
            message = parsed.get("error", message)
        raise ServiceError(response.status, message, body=parsed)

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        return json.loads(self._call(method, path, payload))

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
        return self._call("GET", "/metrics").decode("utf-8")

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
