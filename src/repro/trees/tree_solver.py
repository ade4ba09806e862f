"""Exact O(n) solver for spanning-tree Laplacian systems.

A tree Laplacian system is an electrical flow problem on a tree: the
current through each edge is the (unique) sum of injections in the
subtree below it, after which potentials propagate from the root by
Ohm's law.  Both passes vectorize over BFS levels, so solving costs two
sweeps of the tree, each one Python step per level.

The densification loop does not use this solver for its pure-tree first
round: :class:`~repro.solvers.cholesky.DirectSolver` factors a tree with
no fill and solves it in compiled code, without a Python loop over a
tree that can be hundreds of levels deep.  This solver remains the
tree preconditioner (:mod:`repro.solvers.preconditioners`), the tree
solver of :mod:`repro.sparsify.baselines` and of the Figure 2
experiment, and the exact oracle that tests check the pipeline's tree
solves against (paper Section 3.2, Step 2).
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.trees.tree import RootedTree

__all__ = ["TreeSolver"]


class TreeSolver:
    """Solve ``L_T x = b`` exactly for a spanning tree ``T``.

    The Laplacian of a connected tree is singular with null space
    ``span(1)``; RHS vectors are projected onto ``1⊥`` and solutions are
    returned mean-free, i.e. the solver applies the pseudoinverse
    ``L_T⁺``.

    Parameters
    ----------
    tree:
        The rooted spanning tree.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.graphs import generators
    >>> from repro.trees import RootedTree, low_stretch_tree, TreeSolver
    >>> g = generators.grid2d(5, 5, seed=0)
    >>> t = RootedTree.from_graph(g, low_stretch_tree(g, seed=0))
    >>> solver = TreeSolver(t)
    >>> b = np.zeros(25); b[0], b[-1] = 1.0, -1.0
    >>> x = solver.solve(b)
    >>> L = g.edge_subgraph(t.edge_indices).laplacian()
    >>> bool(np.allclose(L @ x, b, atol=1e-10))
    True
    """

    def __init__(self, tree: RootedTree) -> None:
        self.tree = tree
        self.n = tree.n
        self._levels = tree.levels()
        # Conductance of the parent edge (root entry unused).
        with np.errstate(divide="ignore"):
            self._parent_resistance = np.where(
                tree.parent_weight > 0, 1.0 / np.maximum(tree.parent_weight, 1e-300), 0.0
            )

    @property
    def nnz(self) -> int:
        """Nonzeros of the implicit factorization (2 per tree edge)."""
        return 2 * (self.n - 1)

    def update(self, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> bool:
        """Edge additions turn the tree into a general graph.

        The two-sweep solve is exact only for trees, so any non-empty
        batch asks the caller to rebuild with a general sparsifier
        solver (:class:`~repro.solvers.cholesky.DirectSolver` or
        :class:`~repro.solvers.amg.AMGSolver`).
        """
        return np.atleast_1d(np.asarray(u)).size == 0

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Apply ``L_T⁺`` to one vector or to each column of a matrix."""
        b = np.asarray(b, dtype=np.float64)
        single = b.ndim == 1
        if single:
            b = b[:, None]
        if b.shape[0] != self.n:
            raise ValueError(f"rhs has {b.shape[0]} rows, expected {self.n}")
        # Work on the projection of b onto range(L_T) = 1⊥.
        flow = b - b.mean(axis=0, keepdims=True)
        parent = self.tree.parent
        # Upward pass: subtree injection sums = edge currents toward parent.
        for level in reversed(self._levels[1:]):
            np.add.at(flow, parent[level], flow[level])
        # Downward pass: potentials from Ohm's law.
        x = np.zeros_like(flow)
        resistance = self._parent_resistance
        for level in self._levels[1:]:
            x[level] = x[parent[level]] + flow[level] * resistance[level][:, None]
        x -= x.mean(axis=0, keepdims=True)
        return x[:, 0] if single else x

    def __call__(self, b: np.ndarray) -> np.ndarray:
        """Alias so the solver can be used as a preconditioner callable."""
        return self.solve(b)
