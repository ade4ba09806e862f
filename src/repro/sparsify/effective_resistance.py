"""Effective resistances: exact solves and Johnson–Lindenstrauss sketches.

The Spielman–Srivastava sparsifier [17] — the sampling baseline the
paper compares its deterministic filtering against — needs the effective
resistance ``R_eff(u, v) = (e_u − e_v)ᵀ L⁺ (e_u − e_v)`` of every edge.
Exact values come from one Laplacian solve column per probed pair; the
JL sketch gets all of them from ``O(log n / ε²)`` solves.

Both entry points accept arbitrary vertex pairs — not just edges — so
the serving layer (:mod:`repro.serve`) can answer resistance queries
between any two vertices.  Pairs are validated up front (out-of-range
endpoints raise :class:`ValueError` instead of surfacing as cryptic
fancy-indexing errors) and degenerate ``u == v`` pairs short-circuit to
``0.0`` without spending a solve column.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.solvers.block import block_solve, pair_indicator_columns, record_solve
from repro.solvers.cholesky import DirectSolver
from repro.utils.rng import as_rng
from repro.utils.validation import as_index_array

__all__ = [
    "exact_effective_resistances",
    "approx_effective_resistances",
    "validate_pairs",
]


def validate_pairs(num_vertices: int, pairs: np.ndarray) -> np.ndarray:
    """Coerce and range-check a vertex-pair array.

    Parameters
    ----------
    num_vertices:
        Exclusive upper bound on valid vertex labels.
    pairs:
        Array-like of shape ``(k, 2)`` with integer vertex labels.

    Returns
    -------
    numpy.ndarray
        The pairs as a ``(k, 2)`` ``int64`` array.

    Raises
    ------
    ValueError
        If an endpoint is boolean, non-integral or non-finite, the shape
        is not ``(k, 2)``, or any endpoint falls outside
        ``[0, num_vertices)``.
    OverflowError
        If an endpoint lies outside the ``int64`` range.
    """
    pairs = as_index_array(pairs, "pairs")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"pairs must be a (k, 2) array, got shape {pairs.shape}")
    if pairs.size and (pairs.min() < 0 or pairs.max() >= num_vertices):
        bad = pairs[((pairs < 0) | (pairs >= num_vertices)).any(axis=1)][0]
        raise ValueError(
            f"pair endpoint out of range [0, {num_vertices}): "
            f"({int(bad[0])}, {int(bad[1])})"
        )
    return pairs


def exact_effective_resistances(
    graph: Graph,
    pairs: np.ndarray | None = None,
    solver: DirectSolver | None = None,
    batch_size: int = 256,
) -> np.ndarray:
    """Exact effective resistance of vertex pairs (default: every edge).

    Every ``batch_size`` distinct pairs cost one counted multi-RHS
    solve (``repro_solver_solves_total{caller="resistance"}``).  With a
    :class:`~repro.solvers.DirectSolver` (the default, and every
    sparsifier up to ``DIRECT_SOLVER_MAX_NODES`` vertices) that solve is
    :meth:`~repro.solvers.DirectSolver.pair_resistances`, which reads
    the answer at the pair rows after the triangular solve, skipping
    the column-mean projections, the re-centering and the
    ``n × rank × k`` Woodbury product of a full solve.  Any other
    solver (AMG on larger graphs, or a wrapper) gets the indicator
    block through ``solve`` and the answer is gathered as
    ``x[u] − x[v]``.  Both give the same values to
    rounding.

    Parameters
    ----------
    graph:
        Connected graph.
    pairs:
        ``(k, 2)`` vertex pairs; defaults to the graph's edges.
        Degenerate ``u == v`` pairs are answered ``0.0`` without a
        solve column.
    solver:
        Reusable factorization of the graph Laplacian, or any solver
        with a ``solve`` method.
    batch_size:
        Pairs solved per batched multi-RHS solve (memory control).

    Returns
    -------
    numpy.ndarray
        Effective resistance per pair, aligned with ``pairs``.

    Raises
    ------
    ValueError
        If ``pairs`` is malformed or references a vertex outside
        ``[0, graph.n)``.
    """
    if pairs is None:
        pairs = np.column_stack([graph.u, graph.v])
    pairs = validate_pairs(graph.n, pairs)
    out = np.zeros(pairs.shape[0], dtype=np.float64)
    distinct = np.flatnonzero(pairs[:, 0] != pairs[:, 1])
    if distinct.size == 0:
        return out
    if solver is None:
        solver = DirectSolver(graph.laplacian().tocsc())
    for start in range(0, distinct.size, batch_size):
        sel = distinct[start : start + batch_size]
        chunk = pairs[sel]
        if isinstance(solver, DirectSolver):
            record_solve(solver, "resistance")
            out[sel] = solver.pair_resistances(chunk)
        else:
            rhs = pair_indicator_columns(graph.n, chunk)
            x = block_solve(solver, rhs, caller="resistance")
            cols = np.arange(chunk.shape[0])
            out[sel] = x[chunk[:, 0], cols] - x[chunk[:, 1], cols]
    return out


def approx_effective_resistances(
    graph: Graph,
    epsilon: float = 0.3,
    seed: int | np.random.Generator | None = None,
    solver: DirectSolver | None = None,
    pairs: np.ndarray | None = None,
) -> np.ndarray:
    """JL-sketched effective resistances (Spielman–Srivastava).

    ``R_eff(u, v) = ‖W^{1/2} B L⁺ (e_u − e_v)‖²`` is preserved to a
    ``(1 ± ε)`` factor by projecting onto ``k = O(log n / ε²)`` random
    ±1 directions: solve ``L Z = Bᵀ W^{1/2} Q`` for a ``(m, k)`` sketch
    ``Q`` and read resistances off row differences of ``Z``.  The same
    sketch answers *any* vertex pair, not just edges, so one set of
    ``k`` solves amortizes over arbitrarily many queries.

    Parameters
    ----------
    graph:
        Connected graph.
    epsilon:
        Sketch accuracy in ``(0, 1)``; the sketch width grows as
        ``1/ε²``.
    seed:
        Randomness for the ±1 projection directions.
    solver:
        Reusable factorization of the graph Laplacian.
    pairs:
        Optional ``(k, 2)`` vertex pairs to estimate; defaults to the
        graph's edges.  Degenerate ``u == v`` pairs come back exactly
        ``0.0``.

    Returns
    -------
    numpy.ndarray
        One resistance estimate per pair (per canonical edge when
        ``pairs`` is omitted).

    Raises
    ------
    ValueError
        If ``epsilon`` is outside ``(0, 1)`` or ``pairs`` is malformed
        or out of range.
    """
    if epsilon <= 0 or epsilon >= 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if pairs is not None:
        pairs = validate_pairs(graph.n, pairs)
    rng = as_rng(seed)
    n, m = graph.n, graph.num_edges
    k = max(4, int(np.ceil(24.0 * np.log(max(n, 2)) / epsilon**2)) // 4)
    if solver is None:
        solver = DirectSolver(graph.laplacian().tocsc())
    signs = rng.choice([-1.0, 1.0], size=(m, k)) / np.sqrt(k)
    scaled = signs * np.sqrt(graph.w)[:, None]
    # Bᵀ (W^{1/2} Q): accumulate ± rows at the edge endpoints.
    rhs = np.zeros((n, k))
    np.add.at(rhs, graph.u, scaled)
    np.subtract.at(rhs, graph.v, scaled)
    Z = block_solve(solver, rhs, caller="resistance")
    if pairs is None:
        diffs = Z[graph.u] - Z[graph.v]
    else:
        diffs = Z[pairs[:, 0]] - Z[pairs[:, 1]]
    return np.einsum("ij,ij->i", diffs, diffs)
