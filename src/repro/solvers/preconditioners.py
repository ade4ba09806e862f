"""Preconditioner factory for the PCG engine.

A *preconditioner* here is simply a callable applying ``M⁻¹`` to a
vector.  The factory covers the spectrum the paper discusses: identity
(plain CG), Jacobi, spanning-tree (the classical support-graph
preconditioner), factorized sparsifier (this paper's contribution) and
AMG V-cycles (the paper's recommended large-scale configuration).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import Graph
from repro.solvers.amg import AMGSolver
from repro.solvers.cholesky import DirectSolver
from repro.trees.tree import RootedTree
from repro.trees.tree_solver import TreeSolver

__all__ = [
    "identity_preconditioner",
    "jacobi_preconditioner",
    "tree_preconditioner",
    "factorized_preconditioner",
    "amg_preconditioner",
    "sparsifier_preconditioner",
]

Preconditioner = Callable[[np.ndarray], np.ndarray]


def identity_preconditioner() -> Preconditioner:
    """No-op preconditioner (plain CG).

    Returns
    -------
    Preconditioner
        The identity map.
    """
    return lambda r: r


def jacobi_preconditioner(matrix: sp.spmatrix) -> Preconditioner:
    """Diagonal scaling ``M⁻¹ = D⁻¹``.

    Parameters
    ----------
    matrix:
        System matrix supplying the diagonal.

    Returns
    -------
    Preconditioner
        Elementwise multiplication by ``1 / diag``.

    Raises
    ------
    ValueError
        If the diagonal has a non-positive entry.
    """
    diag = np.asarray(matrix.diagonal(), dtype=np.float64)
    if np.any(diag <= 0):
        raise ValueError("Jacobi preconditioner requires a positive diagonal")
    inv = 1.0 / diag
    return lambda r: inv * r


def tree_preconditioner(graph: Graph, tree_edge_indices: np.ndarray,
                        root: int = 0) -> TreeSolver:
    """Exact spanning-tree preconditioner (Vaidya/support-graph style).

    Parameters
    ----------
    graph:
        Host graph supplying edge endpoints and weights.
    tree_edge_indices:
        Canonical indices of a spanning tree of ``graph``.
    root:
        Root vertex for the tree elimination order.

    Returns
    -------
    TreeSolver
        Exact ``L_T⁺`` application in ``O(n)`` per solve.
    """
    tree = RootedTree.from_graph(graph, tree_edge_indices, root=root)
    return TreeSolver(tree)


def factorized_preconditioner(matrix: sp.spmatrix) -> DirectSolver:
    """Exact application of ``M⁻¹`` via a one-time sparse factorization.

    Parameters
    ----------
    matrix:
        SDD/Laplacian matrix to factorize.

    Returns
    -------
    DirectSolver
        Factor-once/solve-many exact preconditioner.
    """
    return DirectSolver(matrix)


def amg_preconditioner(matrix: sp.spmatrix, **amg_options) -> AMGSolver:
    """One AMG V-cycle per application (the paper's [13, 24] role).

    Parameters
    ----------
    matrix:
        SDD/Laplacian matrix to coarsen.
    amg_options:
        Extra :class:`AMGSolver` constructor options.

    Returns
    -------
    AMGSolver
        The assembled hierarchy (callable on vectors/matrices).
    """
    return AMGSolver(matrix, **amg_options)


def sparsifier_preconditioner(
    sparsifier: Graph,
    method: str = "auto",
    slack: np.ndarray | None = None,
    **amg_options,
) -> Preconditioner:
    """Preconditioner from a sparsified graph ``P``.

    Parameters
    ----------
    sparsifier:
        The sparsified graph whose Laplacian approximates the system.
    method:
        ``"cholesky"`` — factorize ``L_P`` exactly; ``"amg"`` — V-cycle
        on ``L_P``; ``"auto"`` — cholesky up to
        :data:`repro.sparsify.state.DIRECT_SOLVER_MAX_NODES` vertices,
        AMG above (the densification engine's rule).
    slack:
        Optional diagonal to add (for non-singular SDD systems whose
        diagonal dominance must be preserved in the preconditioner).

    Returns
    -------
    Preconditioner
        Exact factorization or AMG V-cycle on ``L_P`` (+ slack).

    Raises
    ------
    ValueError
        If ``method`` is unknown.
    """
    L = sparsifier.laplacian()
    if slack is not None:
        L = (L + sp.diags(np.asarray(slack, dtype=np.float64))).tocsr()
    if method == "auto":
        # Imported here: repro.sparsify imports this package.
        from repro.sparsify import state

        direct = sparsifier.n <= state.DIRECT_SOLVER_MAX_NODES
        method = "cholesky" if direct else "amg"
    if method == "cholesky":
        return DirectSolver(L.tocsc())
    if method == "amg":
        return AMGSolver(L, **amg_options)
    raise ValueError(f"unknown preconditioner method {method!r}")
