"""Spectral embedding of off-tree edges via generalized power iterations.

Implements Section 3.2 of the paper: starting from ``r`` random vectors
``h₀ ⊥ 1``, perform ``t`` generalized power iterations
``h ← L_P⁺ (L_G h)`` and charge every off-tree edge ``(p, q)`` its
*Joule heat*

    heat(p, q) = w_pq · Σ_j (h_t,j(p) − h_t,j(q))²          (Eqs. 6, 12)

Edges whose inclusion would most reduce the dominant generalized
eigenvalues of ``L_P⁺ L_G`` receive the largest heat, because the power
iterations amplify the dominant generalized eigenvectors by ``λ_i^t``.
The iterate norms are *not* renormalized between steps — the growth is
exactly the eigenvalue information the ranking uses.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import Graph
from repro.solvers.block import record_solve
from repro.utils.rng import as_rng, random_unit_vectors

__all__ = [
    "default_num_vectors",
    "power_iterate",
    "joule_heats",
    "probe_heats",
]


def default_num_vectors(n: int) -> int:
    """Paper's choice: ``O(log |V|)`` random probe vectors (§3.7 step 4).

    Parameters
    ----------
    n:
        Number of graph vertices.

    Returns
    -------
    int
        ``max(4, ceil(log2 n))`` probe vectors.
    """
    return max(4, int(np.ceil(np.log2(max(n, 2)))))


def power_iterate(
    graph: Graph,
    solve_P: Callable[[np.ndarray], np.ndarray],
    t: int = 2,
    num_vectors: int | None = None,
    seed: int | np.random.Generator | None = None,
    LG: sp.spmatrix | None = None,
) -> np.ndarray:
    """Return ``h_t = (L_P⁺ L_G)^t h₀`` for ``num_vectors`` random starts.

    The ``(n, r)`` probe block is propagated through one batched solve
    per power step — solvers accept matrix right-hand sides, so no
    per-column solve loop is needed.

    Parameters
    ----------
    graph:
        The original graph ``G``.
    solve_P:
        Callable applying ``L_P⁺`` (tree solver, factorization or AMG).
    t:
        Number of generalized power iterations; the paper uses ``t = 2``
        (one step suffices for ranking, two sharpen the filter).
    num_vectors:
        Number of probe vectors ``r``; default ``O(log n)``.
    seed:
        Randomness for the starting vectors.
    LG:
        Optional precomputed host Laplacian — pass it when calling in a
        loop (the densification engine hoists it once per run).

    Returns
    -------
    numpy.ndarray
        ``(n, r)`` array of propagated probe vectors (mean-free
        columns).

    Raises
    ------
    ValueError
        If ``t`` or ``num_vectors`` is smaller than 1.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    r = default_num_vectors(graph.n) if num_vectors is None else num_vectors
    if r < 1:
        raise ValueError(f"num_vectors must be >= 1, got {r}")
    rng = as_rng(seed)
    H = random_unit_vectors(graph.n, r, seed=rng)
    if LG is None:
        LG = graph.laplacian()
    for _ in range(t):
        record_solve(solve_P, "embedding")
        H = solve_P(LG @ H)
        H = H - H.mean(axis=0, keepdims=True)
    return H


def probe_heats(
    graph: Graph, H: np.ndarray, off_tree_indices: np.ndarray
) -> np.ndarray:
    """Joule heats of off-tree edges from an existing probe block.

    The solve-free half of :func:`joule_heats`: given already-propagated
    probe vectors ``H``, charge each off-tree edge its Eq. 6/12 heat.
    The endpoint rows are gathered with ``np.take`` and subtracted in
    place, which gives the same bits as ``H[u] - H[v]``.

    Parameters
    ----------
    graph:
        The original graph ``G``.
    H:
        ``(n, r)`` propagated probe block from :func:`power_iterate`.
    off_tree_indices:
        Canonical indices of the off-tree edges to score.

    Returns
    -------
    numpy.ndarray
        Non-negative heat per off-tree edge, aligned with
        ``off_tree_indices``.
    """
    off_tree_indices = np.asarray(off_tree_indices, dtype=np.int64)
    u = np.take(graph.u, off_tree_indices)
    v = np.take(graph.v, off_tree_indices)
    w = np.take(graph.w, off_tree_indices)
    diffs = np.take(H, u, axis=0)
    diffs -= np.take(H, v, axis=0)
    return w * np.einsum("ij,ij->i", diffs, diffs)


def joule_heats(
    graph: Graph,
    solve_P: Callable[[np.ndarray], np.ndarray],
    off_tree_indices: np.ndarray,
    t: int = 2,
    num_vectors: int | None = None,
    seed: int | np.random.Generator | None = None,
    LG: sp.spmatrix | None = None,
) -> np.ndarray:
    """Joule heat of each off-tree edge (Eq. 6 summed over probes, Eq. 12).

    Parameters
    ----------
    graph:
        The original graph ``G``.
    solve_P:
        Callable applying the current sparsifier's ``L_P⁺``.
    off_tree_indices:
        Canonical indices of the off-tree edges to score.
    t, num_vectors, seed, LG:
        Power-iteration parameters (see :func:`power_iterate`).

    Returns
    -------
    Non-negative heat per off-tree edge, aligned with
    ``off_tree_indices``.
    """
    H = power_iterate(graph, solve_P, t=t, num_vectors=num_vectors, seed=seed,
                      LG=LG)
    return probe_heats(graph, H, off_tree_indices)
