"""Typed edge events, batch coalescing and the event-log formats.

The streaming subsystem consumes an ordered stream of *edge events*
against a fixed vertex set:

- :class:`EdgeInsert` — a new edge ``(u, v)`` with positive weight;
- :class:`EdgeDelete` — an existing edge disappears;
- :class:`WeightUpdate` — an existing edge's weight is replaced.

Events are validated at construction (endpoint sanity, positive finite
weights) and again at apply time against the live graph (an insert of a
present edge or a delete of an absent one is a stream corruption and
raises).  :func:`coalesce` folds a batch into its *net* effect per edge
— an insert followed by a delete of the same edge cancels outright,
repeated weight updates collapse to the last, a delete followed by a
re-insert becomes a single weight update — so the repair machinery only
ever sees one event per edge.

Two event-log formats round-trip losslessly:

- **JSONL** (``*.jsonl``) — one event object per line, human-greppable,
  append-friendly for live capture;
- **NumPy archive** (``*.npz``) — columnar arrays, compact and fast for
  benchmark replay.

:func:`random_event_stream` generates valid, connectivity-preserving
streams for benchmarks and property tests (including spanning-tree
"backbone" deletions).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from repro.graphs.graph import Graph
from repro.utils.rng import as_rng
from repro.utils.validation import check_real, check_vertex_count

__all__ = [
    "EdgeInsert",
    "EdgeDelete",
    "WeightUpdate",
    "EdgeEvent",
    "coalesce",
    "apply_events",
    "event_from_record",
    "event_to_record",
    "read_event_log",
    "write_event_log",
    "random_event_stream",
]


def _check_endpoints(u: int, v: int) -> None:
    if not (isinstance(u, (int, np.integer)) and isinstance(v, (int, np.integer))):
        raise ValueError(f"endpoints must be integers, got {u!r}, {v!r}")
    if u < 0 or v < 0:
        raise ValueError(f"endpoints must be non-negative, got ({u}, {v})")
    if u == v:
        raise ValueError(f"self loops are not valid edge events (vertex {u})")


def _check_weight(w: float) -> None:
    if not math.isfinite(w):
        raise ValueError(f"edge weight must be finite, got {w}")
    if w <= 0:
        raise ValueError(f"edge weight must be strictly positive, got {w}")


@dataclass(frozen=True)
class EdgeInsert:
    """A new edge ``(u, v)`` with weight ``w`` appears.

    Attributes
    ----------
    u, v:
        Endpoints (any order; canonicalized on use).
    w:
        Strictly positive finite weight.
    """

    u: int
    v: int
    w: float

    def __post_init__(self) -> None:
        _check_endpoints(self.u, self.v)
        _check_weight(self.w)

    @property
    def endpoints(self) -> tuple[int, int]:
        """Canonical ``(min, max)`` endpoint pair."""
        return (min(self.u, self.v), max(self.u, self.v))


@dataclass(frozen=True)
class EdgeDelete:
    """An existing edge ``(u, v)`` disappears.

    Attributes
    ----------
    u, v:
        Endpoints (any order; canonicalized on use).
    """

    u: int
    v: int

    def __post_init__(self) -> None:
        _check_endpoints(self.u, self.v)

    @property
    def endpoints(self) -> tuple[int, int]:
        """Canonical ``(min, max)`` endpoint pair."""
        return (min(self.u, self.v), max(self.u, self.v))


@dataclass(frozen=True)
class WeightUpdate:
    """An existing edge ``(u, v)``'s weight is replaced by ``w``.

    ``w`` is the new *absolute* weight, not a delta — streams stay
    meaningful without knowing prior state.

    Attributes
    ----------
    u, v:
        Endpoints (any order; canonicalized on use).
    w:
        Strictly positive finite replacement weight.
    """

    u: int
    v: int
    w: float

    def __post_init__(self) -> None:
        _check_endpoints(self.u, self.v)
        _check_weight(self.w)

    @property
    def endpoints(self) -> tuple[int, int]:
        """Canonical ``(min, max)`` endpoint pair."""
        return (min(self.u, self.v), max(self.u, self.v))


EdgeEvent = EdgeInsert | EdgeDelete | WeightUpdate


def coalesce(events: Sequence[EdgeEvent]) -> list[EdgeEvent]:
    """Fold an event batch into its net per-edge effect.

    Rules (per canonical endpoint pair, in stream order):

    - ``Insert → Delete`` is a net-zero pair and vanishes entirely;
    - ``Insert → WeightUpdate(w)`` becomes ``Insert(w)``;
    - ``Delete → Insert(w)`` becomes ``WeightUpdate(w)`` (the edge
      existed before the batch and exists after it);
    - ``WeightUpdate → WeightUpdate`` keeps the last weight;
    - ``WeightUpdate → Delete`` becomes ``Delete``.

    Invalid sequences — double insert, double delete, updating a
    just-deleted edge — raise immediately, which catches stream
    corruption at the earliest possible point.  Net events are emitted
    in first-touch order, so coalescing is deterministic.

    Parameters
    ----------
    events:
        The raw event batch.

    Returns
    -------
    list
        One net event per surviving edge.

    Raises
    ------
    ValueError
        On an invalid per-edge event sequence.
    """
    net: dict[tuple[int, int], EdgeEvent | None] = {}
    for event in events:
        key = event.endpoints
        prior = net.get(key, _ABSENT)
        if prior is _ABSENT:
            net[key] = event
            continue
        if prior is None:
            # Insert+delete cancelled: the edge is absent at this point
            # of the stream, so only a fresh insert is valid.
            if isinstance(event, EdgeInsert):
                net[key] = event
                continue
            kind = "delete" if isinstance(event, EdgeDelete) else "update"
            raise ValueError(f"{kind} of already-deleted edge {key}")
        if isinstance(prior, EdgeInsert):
            if isinstance(event, EdgeDelete):
                net[key] = None  # net zero; slot kept for order stability
            elif isinstance(event, WeightUpdate):
                net[key] = EdgeInsert(prior.u, prior.v, event.w)
            else:
                raise ValueError(f"duplicate insert of edge {key}")
        elif isinstance(prior, EdgeDelete):
            if isinstance(event, EdgeInsert):
                net[key] = WeightUpdate(event.u, event.v, event.w)
            else:
                kind = "delete" if isinstance(event, EdgeDelete) else "update"
                raise ValueError(f"{kind} of already-deleted edge {key}")
        else:  # WeightUpdate
            if isinstance(event, WeightUpdate):
                net[key] = WeightUpdate(prior.u, prior.v, event.w)
            elif isinstance(event, EdgeDelete):
                net[key] = EdgeDelete(prior.u, prior.v)
            else:
                raise ValueError(f"insert of existing (updated) edge {key}")
    return [event for event in net.values() if event is not None]


_ABSENT = object()


def apply_events(graph: Graph, events: Iterable[EdgeEvent]) -> Graph:
    """Functionally replay an event stream, returning the final graph.

    The reference semantics of a stream — a simple per-edge fold with
    strict validation — used as the oracle the incremental
    :class:`~repro.stream.DynamicSparsifier` is tested against, and
    handy on its own to materialize "the graph after this log" without
    any sparsifier state.

    Parameters
    ----------
    graph:
        Starting graph (left unmodified; the vertex set is fixed).
    events:
        Events in stream order.

    Returns
    -------
    Graph
        A new graph with all events applied.

    Raises
    ------
    ValueError
        On an invalid event: insert of a present edge, delete/update of
        an absent one, or an endpoint outside ``[0, graph.n)``.
    """
    edges: dict[tuple[int, int], float] = {
        (int(a), int(b)): float(w)
        for a, b, w in zip(graph.u, graph.v, graph.w)
    }
    for event in events:
        key = event.endpoints
        if key[1] >= graph.n:
            raise ValueError(
                f"event endpoint {key[1]} out of range [0, {graph.n})"
            )
        if isinstance(event, EdgeInsert):
            if key in edges:
                raise ValueError(f"insert of existing edge {key}")
            edges[key] = event.w
        elif isinstance(event, EdgeDelete):
            if key not in edges:
                raise ValueError(f"delete of absent edge {key}")
            del edges[key]
        else:
            if key not in edges:
                raise ValueError(f"weight update of absent edge {key}")
            edges[key] = event.w
    return Graph(
        graph.n,
        np.array([k[0] for k in edges], dtype=np.int64),
        np.array([k[1] for k in edges], dtype=np.int64),
        np.array(list(edges.values()), dtype=np.float64),
    )


_TYPE_TO_CODE = {EdgeInsert: 0, EdgeDelete: 1, WeightUpdate: 2}
_TYPE_TO_NAME = {EdgeInsert: "insert", EdgeDelete: "delete", WeightUpdate: "update"}
_NAME_TO_TYPE = {name: t for t, name in _TYPE_TO_NAME.items()}


def event_to_record(event: EdgeEvent) -> dict:
    """One event → its JSON record.

    Parameters
    ----------
    event:
        The event to serialize.

    Returns
    -------
    dict
        ``{"type": "insert"|"delete"|"update", "u", "v", "w"}`` with
        ``w`` absent on deletes: the record shape of JSONL event logs
        and of ``POST /events``.
    """
    record: dict = {
        "type": _TYPE_TO_NAME[type(event)],
        "u": int(event.u),
        "v": int(event.v),
    }
    if not isinstance(event, EdgeDelete):
        record["w"] = float(event.w)
    return record


def event_from_record(record) -> EdgeEvent:
    """One JSON record (see :func:`event_to_record`) → a validated event.

    Endpoints and weights are checked, not cast: a cast would move the
    edge (``0.5`` → ``0``, ``true`` → ``1``, ``"7"`` → ``7``) or read a
    weight from a boolean or a string (``true`` → ``1.0``, ``"2.5"`` →
    ``2.5``).

    Parameters
    ----------
    record:
        A parsed JSON value, expected to be a record object.

    Returns
    -------
    EdgeEvent
        The event the record describes.

    Raises
    ------
    ValueError
        If the record is not an object, names an unknown type, lacks a
        field, has an endpoint that is not a non-negative integer, or
        has a weight that is not a positive finite number.
    """
    if not isinstance(record, dict):
        raise ValueError(
            f"event record must be an object, got {type(record).__name__}"
        )
    kind = record.get("type")
    cls = _NAME_TO_TYPE.get(kind)
    if cls is None:
        raise ValueError(f"unknown event type {kind!r}")
    try:
        u = check_vertex_count(record["u"], minimum=0, name="endpoint u")
        v = check_vertex_count(record["v"], minimum=0, name="endpoint v")
        if cls is EdgeDelete:
            return EdgeDelete(u, v)
        return cls(u, v, check_real(record["w"], "weight w"))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(
            f"malformed {kind} record ({exc.__class__.__name__}: {exc})"
        ) from exc


def write_event_log(path: str | Path, events: Iterable[EdgeEvent]) -> None:
    """Write an event log; the suffix picks the format.

    ``*.jsonl`` writes one JSON object per line (exact float round-trip
    via ``repr``-based JSON floats); ``*.npz`` writes columnar arrays
    (``kind``, ``u``, ``v``, ``w`` with NaN for deletes).

    Parameters
    ----------
    path:
        Target file ending in ``.jsonl`` or ``.npz``.
    events:
        Events in stream order.

    Raises
    ------
    ValueError
        On an unsupported suffix.
    """
    path = Path(path)
    events = list(events)
    if path.suffix == ".jsonl":
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event_to_record(event)) + "\n")
    elif path.suffix == ".npz":
        kind = np.array([_TYPE_TO_CODE[type(e)] for e in events], dtype=np.int8)
        u = np.array([e.u for e in events], dtype=np.int64)
        v = np.array([e.v for e in events], dtype=np.int64)
        w = np.array(
            [np.nan if isinstance(e, EdgeDelete) else e.w for e in events],
            dtype=np.float64,
        )
        np.savez_compressed(path, kind=kind, u=u, v=v, w=w)
    else:
        raise ValueError(
            f"unsupported event-log suffix {path.suffix!r} (use .jsonl or .npz)"
        )


def read_event_log(path: str | Path) -> list[EdgeEvent]:
    """Read an event log written by :func:`write_event_log`.

    Parameters
    ----------
    path:
        Source file ending in ``.jsonl`` or ``.npz``.

    Returns
    -------
    list
        Events in stream order.

    Raises
    ------
    ValueError
        On an unsupported suffix or a malformed record.
    """
    path = Path(path)
    events: list[EdgeEvent] = []
    if path.suffix == ".jsonl":
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                try:
                    events.append(event_from_record(record))
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: {exc}") from exc
    elif path.suffix == ".npz":
        with np.load(path) as data:
            kind, u, v, w = data["kind"], data["u"], data["v"], data["w"]
        for k, uu, vv, ww in zip(kind, u, v, w):
            if k == 0:
                events.append(EdgeInsert(int(uu), int(vv), float(ww)))
            elif k == 1:
                events.append(EdgeDelete(int(uu), int(vv)))
            elif k == 2:
                events.append(WeightUpdate(int(uu), int(vv), float(ww)))
            else:
                raise ValueError(f"unknown event kind code {int(k)}")
    else:
        raise ValueError(
            f"unsupported event-log suffix {path.suffix!r} (use .jsonl or .npz)"
        )
    return events


def random_event_stream(
    graph: Graph,
    num_events: int,
    seed: int | np.random.Generator | None = None,
    p_insert: float = 0.3,
    p_delete: float = 0.3,
    weight_scale: float = 1.0,
) -> list[EdgeEvent]:
    """Generate a valid random event stream against ``graph``.

    Deletes target random existing edges but skip choices that would
    disconnect the evolving graph (checked with a union-find over the
    surviving edges), so the stream is always replayable end-to-end —
    including deletions of spanning-tree (backbone) edges.  Inserts draw
    uniformly random absent pairs; updates re-draw an existing edge's
    weight.  The remaining probability mass (``1 − p_insert −
    p_delete``) goes to weight updates.

    Parameters
    ----------
    graph:
        Starting graph (left unmodified).
    num_events:
        Number of event slots to fill.
    seed:
        Randomness for the stream.
    p_insert, p_delete:
        Per-event probabilities of insert/delete (update gets the rest).
    weight_scale:
        Scale of the lognormal weights drawn for inserts and updates.

    Returns
    -------
    list
        A stream of *at most* ``num_events`` events applicable in
        order.  A slot is silently skipped when its draw cannot be
        satisfied — every delete candidate tried was a bridge
        (bridge-heavy graphs) or no absent pair was found
        (near-complete graphs) — so callers sizing workloads must use
        ``len()`` of the returned stream, not ``num_events``.

    Raises
    ------
    ValueError
        If the probabilities are negative or exceed 1 combined.
    """
    if p_insert < 0 or p_delete < 0 or p_insert + p_delete > 1.0:
        raise ValueError(
            f"invalid probabilities: p_insert={p_insert}, p_delete={p_delete}"
        )
    rng = as_rng(seed)
    n = graph.n
    edges: dict[tuple[int, int], float] = {
        (int(a), int(b)): float(w) for a, b, w in zip(graph.u, graph.v, graph.w)
    }
    events: list[EdgeEvent] = []
    # Endpoint array cache for the vectorized connectivity check,
    # rebuilt lazily after structural changes (at most once per event,
    # however many delete attempts probe it).
    edge_arr: np.ndarray | None = None

    def still_connected_without(drop: tuple[int, int]) -> bool:
        nonlocal edge_arr
        if edge_arr is None:
            edge_arr = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        keep = ~((edge_arr[:, 0] == drop[0]) & (edge_arr[:, 1] == drop[1]))
        a, b = edge_arr[keep, 0], edge_arr[keep, 1]
        matrix = sp.csr_matrix(
            (np.ones(2 * a.size), (np.concatenate([a, b]),
                                   np.concatenate([b, a]))),
            shape=(n, n),
        )
        return (
            csgraph.connected_components(
                matrix, directed=False, return_labels=False
            )
            == 1
        )

    for _ in range(num_events):
        roll = rng.random()
        if roll < p_insert or len(edges) <= n - 1:
            # Insert (forced when deleting/updating would be too risky
            # on a tree-thin graph).
            for _attempt in range(64):
                a, b = int(rng.integers(n)), int(rng.integers(n))
                if a == b:
                    continue
                key = (min(a, b), max(a, b))
                if key not in edges:
                    w = float(weight_scale * rng.lognormal(0.0, 0.5))
                    edges[key] = w
                    edge_arr = None
                    events.append(EdgeInsert(key[0], key[1], w))
                    break
            else:  # pragma: no cover - only on near-complete graphs
                continue
        elif roll < p_insert + p_delete:
            keys = list(edges)
            for _attempt in range(32):
                key = keys[int(rng.integers(len(keys)))]
                if still_connected_without(key):
                    del edges[key]
                    edge_arr = None
                    events.append(EdgeDelete(key[0], key[1]))
                    break
            # All attempts hit bridges: silently skip this event slot.
        else:
            keys = list(edges)
            key = keys[int(rng.integers(len(keys)))]
            w = float(weight_scale * rng.lognormal(0.0, 0.5))
            edges[key] = w
            events.append(WeightUpdate(key[0], key[1], w))
    return events
