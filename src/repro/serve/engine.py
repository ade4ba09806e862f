"""Batched spectral query engine over a live sparsifier.

The paper's whole point is that a σ²-certified sparsifier is a
*reusable proxy*: build it once, then answer effective-resistance,
solve, similarity and embedding queries against the sparse ``L_P``
instead of the dense ``L_G`` — each answer certified to the σ
similarity level (Feng, DAC'18 §3; GRASS makes the same argument for
repeated eigen/solve workloads).  :class:`QueryEngine` is that serving
surface: it holds a :class:`~repro.stream.DynamicSparsifier` and its
warm factorized solver and turns queries into multi-RHS solves:
:meth:`QueryEngine.resistance`, :meth:`~QueryEngine.solve`,
:meth:`~QueryEngine.similarity` and :meth:`~QueryEngine.embedding`
coalesce the columns *within* one call into batched multi-RHS solves.
Resistance and similarity answers go through
:func:`~repro.sparsify.effective_resistance.exact_effective_resistances`,
which asks the direct solver for the pair quadratic forms
(:meth:`~repro.solvers.DirectSolver.pair_resistances`): a forward solve
of the factor ``L`` restricted to the elimination-tree reach of the
pair endpoints, squared and scaled by the pivots, then
Woodbury-corrected from two row gathers per pair.  A ``k``-pair query
thus touches the reach (on the σ²=100 sparsifier of a 100×100 grid,
8 pairs reach about 340 of 10⁴ rows) instead of both triangular
factors, skips the projections, the re-centering and the
``n × rank × k`` Woodbury product of a full solve, and its cost does not
grow with the accumulated Woodbury rank.  The reach tables are built at
the first pair query after each factorization.
:meth:`~QueryEngine.solve` returns the full block.

Freshness: the engine watches the dynamic sparsifier's
:attr:`~repro.stream.DynamicSparsifier.state_token` and drops derived
caches (spectral embeddings) whenever an event batch has committed; the
solver itself is the dynamic's managed solver, which tier-1 repair
keeps consistent through Woodbury/patch updates, so solve-backed
answers are σ²-fresh by construction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.solvers.block import block_solve
from repro.sparsify.effective_resistance import (
    exact_effective_resistances,
    validate_pairs,
)
from repro.spectral.embedding import spectral_coordinates
from repro.stream.dynamic import DynamicSparsifier
from repro.utils.validation import as_index_array

__all__ = ["EngineStats", "QueryEngine"]


@dataclass
class EngineStats:
    """Counters describing the engine's work.

    Attributes
    ----------
    queries:
        Individual queries answered (a k-pair resistance call counts k).
    cache_invalidations:
        Times the embedding cache was dropped because the underlying
        dynamic sparsifier advanced.
    """

    queries: int = 0
    cache_invalidations: int = 0


class QueryEngine:
    """Answers spectral queries against a live sparsifier proxy.

    Parameters
    ----------
    dynamic:
        The live sparsifier state to serve from.  Static
        :class:`~repro.sparsify.SparsifyResult` artifacts are wrapped
        via :meth:`~repro.stream.DynamicSparsifier.from_result` first.
    batch_size:
        Columns per multi-RHS solve in resistance queries (memory
        control).
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
    # Queries
    # ------------------------------------------------------------------
    def resistance(self, pairs: np.ndarray) -> np.ndarray:
        """Effective resistance of vertex pairs against the sparsifier.

        One batched multi-RHS solve per ``batch_size`` distinct pairs,
        read at the pair rows only; ``u == v`` pairs short-circuit to
        ``0.0``.  Answers are exact for ``L_P`` and within the σ²
        certificate of the host graph's resistances.

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
