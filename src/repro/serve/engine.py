"""Batched spectral query engine over a live sparsifier.

The paper's whole point is that a σ²-certified sparsifier is a
*reusable proxy*: build it once, then answer effective-resistance,
solve, similarity and embedding queries against the sparse ``L_P``
instead of the dense ``L_G`` — each answer certified to the σ
similarity level (Feng, DAC'18 §3; GRASS makes the same argument for
repeated eigen/solve workloads).  :class:`QueryEngine` is that serving
surface: it holds a :class:`~repro.stream.DynamicSparsifier` and its
warm factorized solver and turns queries into multi-RHS solves.

Two execution paths:

- **Direct** — :meth:`QueryEngine.resistance`, :meth:`~QueryEngine.solve`,
  :meth:`~QueryEngine.similarity`, :meth:`~QueryEngine.embedding`
  execute immediately, coalescing the columns *within* the call into
  batched multi-RHS solves (the same trick
  :func:`~repro.sparsify.effective_resistance.exact_effective_resistances`
  uses per call).
- **Micro-batched** — :meth:`QueryEngine.submit_resistance` /
  :meth:`~QueryEngine.submit_solve` enqueue a query and return a
  :class:`PendingQuery` handle.  The first ``result()`` call (or an
  explicit :meth:`~QueryEngine.flush`) executes *every* pending query,
  across submitters and threads, in **one** multi-RHS solve.  This is
  the cross-request coalescing the HTTP service and the
  ``bench_serve_queries`` benchmark lean on: ``k`` single-pair requests
  cost one factorized solve with ``k`` columns instead of ``k`` solves.

Freshness: the engine watches the dynamic sparsifier's
:attr:`~repro.stream.DynamicSparsifier.state_token` and drops derived
caches (spectral embeddings) whenever an event batch has committed; the
solver itself is the dynamic's managed solver, which tier-1 repair
keeps consistent through Woodbury/patch updates, so solve-backed
answers are σ²-fresh by construction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.obs import get_metrics
from repro.solvers.block import block_solve, pair_indicator_columns
from repro.sparsify.effective_resistance import (
    exact_effective_resistances,
    validate_pairs,
)
from repro.spectral.embedding import spectral_coordinates
from repro.stream.dynamic import DynamicSparsifier
from repro.utils.validation import as_index_array

__all__ = ["EngineStats", "PendingQuery", "QueryEngine"]


@dataclass
class EngineStats:
    """Counters describing the engine's batching behavior.

    Attributes
    ----------
    queries:
        Individual queries answered (a k-pair resistance call counts k).
    flushes:
        Micro-batch flushes executed (each is one multi-RHS solve).
    flushed_columns:
        Total RHS columns across all flushes; ``flushed_columns /
        flushes`` is the realized coalescing factor.
    cache_invalidations:
        Times the embedding cache was dropped because the underlying
        dynamic sparsifier advanced.
    """

    queries: int = 0
    flushes: int = 0
    flushed_columns: int = 0
    cache_invalidations: int = 0


@dataclass
class _Pending:
    """One enqueued micro-batched query (internal)."""

    kind: str  # "resistance" | "solve"
    payload: np.ndarray
    handle: "PendingQuery" = field(repr=False)


class PendingQuery:
    """Handle for a micro-batched query.

    Obtained from :meth:`QueryEngine.submit_resistance` /
    :meth:`QueryEngine.submit_solve`.  Calling :meth:`result` flushes
    the engine's whole pending queue if this query has not been executed
    yet, so the *first* waiter pays one batched solve for everyone.
    """

    def __init__(self, engine: "QueryEngine") -> None:
        self._engine = engine
        self._ready = False
        self._value: np.ndarray | float | None = None

    @property
    def ready(self) -> bool:
        """Whether the query has been executed by a flush."""
        return self._ready

    def result(self) -> np.ndarray | float:
        """The query's answer, flushing the pending batch if needed.

        Returns
        -------
        numpy.ndarray or float
            The effective resistance (float) or solution vector.
        """
        with self._engine.lock:
            if not self._ready:
                self._engine._flush_locked()
        return self._value

    def _fulfill(self, value: np.ndarray | float) -> None:
        self._value = value
        self._ready = True


class QueryEngine:
    """Answers spectral queries against a live sparsifier proxy.

    Parameters
    ----------
    dynamic:
        The live sparsifier state to serve from.  Static
        :class:`~repro.sparsify.SparsifyResult` artifacts are wrapped
        via :meth:`~repro.stream.DynamicSparsifier.from_result` first.
    batch_size:
        Columns per multi-RHS solve in direct resistance queries
        (memory control; micro-batch flushes always run as one solve).
    lock:
        Reentrant lock serializing all access to the engine *and* its
        dynamic sparsifier (a fresh one by default).  The registry
        passes each entry's persistent lock here so queries, event
        application and LRU spilling all serialize on one object that
        survives spill/reload cycles.

    Notes
    -----
    All public methods are thread-safe: the engine serializes access
    through the shared reentrant lock, which the registry and service
    layers also take around event application and eviction so queries
    never observe a half-applied batch or a mid-spill state.

    Examples
    --------
    >>> from repro.graphs import generators
    >>> from repro.serve import QueryEngine
    >>> from repro.stream import DynamicSparsifier
    >>> g = generators.grid2d(8, 8, weights="uniform", seed=0)
    >>> engine = QueryEngine(DynamicSparsifier(g, sigma2=150.0, seed=0))
    >>> float(engine.resistance([[0, 0]])[0])
    0.0
    """

    def __init__(
        self,
        dynamic: DynamicSparsifier,
        batch_size: int = 256,
        lock: "threading.RLock | None" = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._dyn = dynamic
        self.batch_size = int(batch_size)
        self.lock = lock if lock is not None else threading.RLock()
        self.stats = EngineStats()
        self._pending: list[_Pending] = []
        self._token = dynamic.state_token
        self._embeddings: dict[int, np.ndarray] = {}

    @property
    def dynamic(self) -> DynamicSparsifier:
        """The live sparsifier state the engine serves from."""
        return self._dyn

    # ------------------------------------------------------------------
    # Freshness
    # ------------------------------------------------------------------
    def _refresh_locked(self) -> None:
        token = self._dyn.state_token
        if token != self._token:
            self._token = token
            if self._embeddings:
                self._embeddings.clear()
                self.stats.cache_invalidations += 1

    # ------------------------------------------------------------------
    # Direct queries
    # ------------------------------------------------------------------
    def resistance(self, pairs: np.ndarray) -> np.ndarray:
        """Effective resistance of vertex pairs against the sparsifier.

        One batched multi-RHS solve per ``batch_size`` distinct pairs;
        ``u == v`` pairs short-circuit to ``0.0``.  Answers are exact
        for ``L_P`` and within the σ² certificate of the host graph's
        resistances.

        Parameters
        ----------
        pairs:
            ``(k, 2)`` vertex pairs.

        Returns
        -------
        numpy.ndarray
            One resistance per pair.

        Raises
        ------
        ValueError
            If ``pairs`` is malformed or out of range.
        """
        with self.lock:
            self._refresh_locked()
            pairs = validate_pairs(self._dyn.graph.n, pairs)
            self.stats.queries += pairs.shape[0]
            return self._resistance_locked(pairs)

    def _resistance_locked(self, pairs: np.ndarray) -> np.ndarray:
        # The graph argument only supplies the vertex count here: the
        # warm managed solver answers for the *sparsifier* Laplacian.
        return exact_effective_resistances(
            self._dyn.graph,
            pairs,
            solver=self._dyn.solver(),
            batch_size=self.batch_size,
        )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply ``L_P⁺`` to one vector or each column of a matrix.

        Parameters
        ----------
        rhs:
            Right-hand side with ``n`` rows (vector or matrix).  For
            the (singular) sparsifier Laplacian the RHS is projected
            mean-free per column and the minimum-norm representative is
            returned, matching :class:`~repro.solvers.DirectSolver`.

        Returns
        -------
        numpy.ndarray
            The solution, with the shape of ``rhs``.

        Raises
        ------
        ValueError
            If ``rhs`` is not 1-D or 2-D, has the wrong number of rows,
            or has a non-finite entry.
        """
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.ndim not in (1, 2):
            raise ValueError(f"rhs must be 1-D or 2-D, got {rhs.ndim}-D")
        if not np.all(np.isfinite(rhs)):
            raise ValueError("rhs entries must be finite")
        if rhs.shape[0] != self._dyn.graph.n:
            raise ValueError(
                f"rhs has {rhs.shape[0]} rows, expected {self._dyn.graph.n}"
            )
        with self.lock:
            self._refresh_locked()
            self.stats.queries += 1 if rhs.ndim == 1 else rhs.shape[1]
            return block_solve(self._dyn.solver(), rhs, caller="serve")

    def similarity(self, pairs: np.ndarray) -> np.ndarray:
        """Spectral similarity score ``w(e) · R_eff(e)`` of host edges.

        The leverage score of the edge — the Spielman–Srivastava
        sampling weight, ``≈ 1`` for electrically critical (bridge-like)
        edges and ``≪ 1`` for redundant ones — computed against the
        sparsifier proxy.

        Parameters
        ----------
        pairs:
            ``(k, 2)`` endpoint pairs; every pair must be an edge of
            the *host* graph (the weight is the host weight).

        Returns
        -------
        numpy.ndarray
            One score per edge, in ``(0, 1]`` up to the σ² proxy error.

        Raises
        ------
        ValueError
            If ``pairs`` is malformed, out of range, or contains a pair
            that is not a host edge.
        """
        with self.lock:
            self._refresh_locked()
            g = self._dyn.graph
            pairs = validate_pairs(g.n, pairs)
            idx = g.edge_indices(pairs[:, 0], pairs[:, 1])
            if np.any(idx < 0):
                bad = pairs[np.flatnonzero(idx < 0)[0]]
                raise ValueError(
                    f"({int(bad[0])}, {int(bad[1])}) is not an edge of the "
                    "host graph; similarity scores are defined on edges "
                    "(use resistance() for arbitrary pairs)"
                )
            self.stats.queries += pairs.shape[0]
            return g.w[idx] * self._resistance_locked(pairs)

    def embedding(self, nodes: np.ndarray | None = None, dim: int = 2) -> np.ndarray:
        """Spectral-drawing coordinates of vertices, from the sparsifier.

        The first ``dim`` nontrivial Laplacian eigenvectors of ``L_P``
        (Koren-style drawing, the paper's Fig. 1 workload) — the proxy
        argument at its purest, since eigensolves on the sparsifier are
        far cheaper than on the host.  The full ``(n, dim)`` coordinate
        matrix is computed once per (state, dim) and cached; event
        batches invalidate the cache.

        Parameters
        ----------
        nodes:
            Vertex labels to return rows for (default: all vertices).
        dim:
            Embedding dimension, in ``[1, n - 2]``.

        Returns
        -------
        numpy.ndarray
            ``(len(nodes), dim)`` coordinate rows.

        Raises
        ------
        ValueError
            If ``dim`` is out of range or a node label is out of range,
            boolean, non-integral or non-finite.
        """
        with self.lock:
            self._refresh_locked()
            n = self._dyn.graph.n
            coords = self._embeddings.get(dim)
            if coords is None:
                coords = spectral_coordinates(self._dyn.sparsifier(), dim=dim, seed=0)
                self._embeddings[dim] = coords
            if nodes is None:
                nodes = np.arange(n, dtype=np.int64)
            else:
                nodes = as_index_array(nodes, "nodes").ravel()
                if nodes.size and (nodes.min() < 0 or nodes.max() >= n):
                    raise ValueError(f"node label out of range [0, {n})")
            self.stats.queries += int(nodes.size)
            return coords[nodes]

    # ------------------------------------------------------------------
    # Cross-request micro-batching
    # ------------------------------------------------------------------
    def submit_resistance(self, u: int, v: int) -> PendingQuery:
        """Enqueue a single-pair resistance query for batched execution.

        Parameters
        ----------
        u, v:
            The vertex pair.

        Returns
        -------
        PendingQuery
            Handle whose ``result()`` is the effective resistance; the
            first resolved handle flushes everyone's queries in one
            multi-RHS solve.

        Raises
        ------
        ValueError
            If an endpoint is out of range.
        """
        pair = validate_pairs(self._dyn.graph.n, [[u, v]])
        handle = PendingQuery(self)
        with self.lock:
            self._pending.append(_Pending("resistance", pair[0], handle))
        return handle

    def submit_solve(self, rhs: np.ndarray) -> PendingQuery:
        """Enqueue a single-vector solve for batched execution.

        Parameters
        ----------
        rhs:
            Right-hand side vector of length ``n``.

        Returns
        -------
        PendingQuery
            Handle whose ``result()`` is the solution vector.

        Raises
        ------
        ValueError
            If ``rhs`` is not a length-``n`` vector.
        """
        rhs = np.asarray(rhs, dtype=np.float64).ravel()
        if rhs.shape[0] != self._dyn.graph.n:
            raise ValueError(
                f"rhs has {rhs.shape[0]} entries, expected {self._dyn.graph.n}"
            )
        handle = PendingQuery(self)
        with self.lock:
            self._pending.append(_Pending("solve", rhs, handle))
        return handle

    @property
    def pending(self) -> int:
        """Number of enqueued, not-yet-flushed micro-batched queries."""
        return len(self._pending)

    def flush(self) -> int:
        """Execute every pending micro-batched query in one solve.

        Returns
        -------
        int
            The number of RHS columns solved (0 when nothing pended).
        """
        with self.lock:
            return self._flush_locked()

    def _flush_locked(self) -> int:
        if not self._pending:
            return 0
        self._refresh_locked()
        batch, self._pending = self._pending, []
        n = self._dyn.graph.n
        rhs = np.zeros((n, len(batch)))
        res_cols = [c for c, item in enumerate(batch) if item.kind == "resistance"]
        if res_cols:
            # Degenerate u == v resistance columns are all-zero and solve
            # to zero for free inside the shared multi-RHS call.
            pairs = np.stack([batch[c].payload for c in res_cols])
            rhs[:, res_cols] = pair_indicator_columns(n, pairs)
        for col, item in enumerate(batch):
            if item.kind != "resistance":
                rhs[:, col] = item.payload
        x = block_solve(self._dyn.solver(), rhs, caller="serve")
        for col, item in enumerate(batch):
            if item.kind == "resistance":
                a, b = item.payload
                item.handle._fulfill(float(x[a, col] - x[b, col]))
            else:
                item.handle._fulfill(x[:, col])
        self.stats.queries += len(batch)
        self.stats.flushes += 1
        self.stats.flushed_columns += len(batch)
        get_metrics().histogram(
            "repro_serve_microbatch_size",
            "RHS columns per micro-batch flush (the realized "
            "cross-request coalescing factor).",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
        ).observe(float(len(batch)))
        return len(batch)
