"""Evolving sparsifier state for the incremental densification engine.

The densification loop (paper §3.7) grows a sparsifier by small edge
batches.  Rebuilding the subgraph, its Laplacian and the solver from
scratch every iteration makes each pass cost ``O(|E_P|)`` plus a full
re-factorization even when only a handful of edges changed.
:class:`SparsifierState` owns everything that evolves across iterations
and updates it in time proportional to the *batch*:

- the boolean edge mask over the host graph's canonical edges;
- the sparsifier Laplacian, stored on the host Laplacian's (fixed)
  sparsity pattern so each edge addition is a 4-entry value update
  (``+w`` on both diagonals, ``−w`` on both off-diagonals);
- cached sparsifier weighted degrees (the §3.6.2 λmin estimate becomes
  a vectorized minimum over two cached arrays);
- a managed :class:`~repro.solvers.base.Solver` that absorbs batches
  through its ``update`` hook (Woodbury corrections for the direct
  solver, fine-level patches for AMG) and is only rebuilt when the
  solver reports its incremental options exhausted.

The host Laplacian is computed once at construction and shared with the
loop (``host_laplacian``), hoisting the former per-iteration
``graph.laplacian()`` out of the hot path.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import Graph
from repro.solvers.amg import AMGSolver
from repro.solvers.base import Solver, csr_value_positions
from repro.solvers.cholesky import DirectSolver

__all__ = [
    "AMG_REBUILD_EVERY",
    "DIRECT_SOLVER_MAX_NODES",
    "MAX_UPDATE_RANK",
    "SparsifierState",
]

#: Largest vertex count whose sparsifier is factored directly (the
#: paper's CHOLMOD [5]); bigger graphs get AMG [13, 24] once off-tree
#: edges exist.
DIRECT_SOLVER_MAX_NODES = 200_000
#: Woodbury rank a managed :class:`DirectSolver` absorbs before it
#: asks to be re-factored.
MAX_UPDATE_RANK = 64
#: Update batches a managed :class:`AMGSolver` hierarchy absorbs in
#: place before it is re-coarsened.
AMG_REBUILD_EVERY = 8


class SparsifierState:
    """Incrementally maintained sparsifier across densification iterations.

    Parameters
    ----------
    graph:
        Connected host graph ``G``.
    tree_indices:
        Canonical edge indices of the spanning-tree backbone.
    initial_mask:
        Optional starting edge mask (must contain every tree edge); when
        omitted the state starts as the pure tree.
    """

    def __init__(
        self,
        graph: Graph,
        tree_indices: np.ndarray,
        initial_mask: np.ndarray | None = None,
    ) -> None:
        self.graph = graph
        self.tree_indices = np.asarray(tree_indices, dtype=np.int64)
        self.solver_rebuilds = 0

        if initial_mask is None:
            mask = np.zeros(graph.num_edges, dtype=bool)
            mask[self.tree_indices] = True
        else:
            mask = np.asarray(initial_mask, dtype=bool).copy()
            if mask.shape != (graph.num_edges,):
                raise ValueError(
                    f"initial_mask must have shape ({graph.num_edges},), "
                    f"got {mask.shape}"
                )
            if not np.all(mask[self.tree_indices]):
                raise ValueError("initial_mask must contain every tree edge")
        self.edge_mask = mask
        self.is_pure_tree = bool(mask.sum() == self.tree_indices.size)

        # Hoisted host Laplacian; its pattern hosts the sparsifier too.
        self.host_laplacian = graph.laplacian().tocsr()
        self.host_laplacian.sort_indices()
        self._positions = self._edge_positions()

        data = np.zeros_like(self.host_laplacian.data)
        self._laplacian = sp.csr_matrix(
            (data, self.host_laplacian.indices, self.host_laplacian.indptr),
            shape=self.host_laplacian.shape,
        )
        self._degrees = np.zeros(graph.n, dtype=np.float64)
        masked = np.flatnonzero(mask)
        self._write_edges(masked)
        self._solver: Solver | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _edge_positions(self) -> np.ndarray:
        """``(m, 4)`` indices into the Laplacian data array per edge.

        Columns: ``(u, v)``, ``(v, u)``, ``(u, u)``, ``(v, v)`` — the four
        entries a weighted edge touches in ``L = D − A``.
        """
        g = self.graph
        rows = np.concatenate([g.u, g.v, g.u, g.v])
        cols = np.concatenate([g.v, g.u, g.u, g.v])
        pos = csr_value_positions(self.host_laplacian, rows, cols)
        if np.any(pos < 0):  # pragma: no cover - host pattern is complete
            raise RuntimeError("host Laplacian pattern is missing edge entries")
        return pos.reshape(4, g.num_edges).T

    def _write_edges(self, edge_indices: np.ndarray, sign: float = 1.0) -> None:
        """Accumulate the given canonical edges into ``L_P`` and degrees.

        ``sign=-1.0`` subtracts the edges instead (the deletion path).
        """
        if edge_indices.size == 0:
            return
        g = self.graph
        u, v = g.u[edge_indices], g.v[edge_indices]
        w = sign * g.w[edge_indices]
        pos = self._positions[edge_indices]
        data = self._laplacian.data
        np.add.at(data, pos[:, 0], -w)
        np.add.at(data, pos[:, 1], -w)
        # Same accumulation order as Graph.weighted_degrees for parity
        # with the from-scratch edge_subgraph(...).laplacian() diagonal.
        np.add.at(self._degrees, u, w)
        np.add.at(self._degrees, v, w)
        np.add.at(data, pos[:, 2], w)
        np.add.at(data, pos[:, 3], w)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def laplacian(self) -> sp.csr_matrix:
        """Sparsifier Laplacian ``L_P`` on the host's sparsity pattern.

        Entries of absent edges are explicit zeros, so matvecs are exact
        and the pattern never changes as edges arrive.
        """
        return self._laplacian

    def pruned_laplacian(self) -> sp.csr_matrix:
        """Copy of ``L_P`` with the explicit zeros of absent edges dropped.

        Returns
        -------
        scipy.sparse.csr_matrix
            A compacted copy safe to hand to factorization routines.
        """
        pruned = self._laplacian.copy()
        pruned.eliminate_zeros()
        return pruned

    def weighted_degrees(self) -> np.ndarray:
        """Cached sparsifier weighted degrees (updated per batch).

        Returns
        -------
        numpy.ndarray
            Weighted degree of every vertex in the current sparsifier
            (a live view — do not mutate).
        """
        return self._degrees

    @property
    def num_edges(self) -> int:
        """Current sparsifier edge count."""
        return int(self.edge_mask.sum())

    def subgraph(self) -> Graph:
        """Materialize the sparsifier as a :class:`Graph` (not cached).

        Returns
        -------
        Graph
            ``graph.edge_subgraph(edge_mask)`` at the current mask.
        """
        return self.graph.edge_subgraph(self.edge_mask)

    def lambda_min(self) -> float:
        """§3.6.2 node-coloring λmin estimate from the cached degrees.

        Returns
        -------
        float
            ``min_v deg_G(v) / deg_P(v)`` — an upper bound on the
            pencil's smallest generalized eigenvalue (Eq. 18; each
            degree ratio is a Rayleigh quotient of the pencil).

        Raises
        ------
        ValueError
            If the sparsifier leaves a vertex isolated (it must span
            the host graph).
        """
        deg_p = self._degrees
        if np.any(deg_p <= 0):
            raise ValueError(
                "sparsifier has an isolated vertex; it must span the graph"
            )
        return float(np.min(self.graph.weighted_degrees() / deg_p))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_edges(self, edge_indices: np.ndarray) -> None:
        """Add canonical host edges to the sparsifier.

        Updates the mask, Laplacian values and degrees in ``O(batch)``
        and forwards the batch to the managed solver's ``update`` hook;
        the solver is dropped (rebuilt lazily on next access) when it
        cannot absorb the batch incrementally.

        Parameters
        ----------
        edge_indices:
            Canonical host edge indices not yet in the sparsifier.

        Raises
        ------
        ValueError
            If the batch contains an edge already in the sparsifier or
            a repeated index (``np.add.at`` would double-count it while
            the mask flips once, silently corrupting the state).
        """
        edge_indices = np.asarray(edge_indices, dtype=np.int64)
        if edge_indices.size == 0:
            return
        if np.unique(edge_indices).size != edge_indices.size:
            raise ValueError("duplicate edge indices in addition batch")
        if np.any(self.edge_mask[edge_indices]):
            raise ValueError("edge batch contains edges already in the sparsifier")
        self.edge_mask[edge_indices] = True
        self._write_edges(edge_indices)
        self.is_pure_tree = False
        if self._solver is not None:
            g = self.graph
            if not self._solver.update(
                g.u[edge_indices], g.v[edge_indices], g.w[edge_indices]
            ):
                self._solver = None

    def remove_edges(self, edge_indices: np.ndarray) -> None:
        """Remove off-tree canonical edges from the sparsifier.

        The inverse of :meth:`add_edges`: mask, Laplacian values and
        degrees are downdated in ``O(batch)``, and the batch reaches
        the managed solver as *negative* weight deltas (the
        deletion-capable :meth:`~repro.solvers.base.Solver.update`
        path); the solver is dropped and rebuilt lazily when it cannot
        absorb the downdate.

        Tree edges cannot be removed here — the backbone keeps the
        sparsifier spanning.  Callers that delete backbone edges (the
        streaming layer) must repair the tree first (see
        :func:`repro.trees.spanning.complete_forest`).

        Parameters
        ----------
        edge_indices:
            Canonical host edge indices currently in the sparsifier and
            not part of the spanning-tree backbone.

        Raises
        ------
        ValueError
            If the batch contains an edge absent from the sparsifier, a
            spanning-tree edge, or a repeated index (a double deletion
            would downdate the Laplacian twice).
        """
        edge_indices = np.asarray(edge_indices, dtype=np.int64)
        if edge_indices.size == 0:
            return
        if np.unique(edge_indices).size != edge_indices.size:
            raise ValueError("duplicate edge indices in removal batch")
        if not np.all(self.edge_mask[edge_indices]):
            raise ValueError("edge batch contains edges not in the sparsifier")
        tree_mask = np.zeros(self.graph.num_edges, dtype=bool)
        tree_mask[self.tree_indices] = True
        if np.any(tree_mask[edge_indices]):
            raise ValueError(
                "cannot remove spanning-tree edges; repair the backbone first"
            )
        self.edge_mask[edge_indices] = False
        self._write_edges(edge_indices, sign=-1.0)
        self.is_pure_tree = bool(self.edge_mask.sum() == self.tree_indices.size)
        if self._solver is not None:
            g = self.graph
            if not self._solver.update(
                g.u[edge_indices], g.v[edge_indices], -g.w[edge_indices]
            ):
                self._solver = None

    # ------------------------------------------------------------------
    # Solver management
    # ------------------------------------------------------------------
    def solver(self) -> Solver:
        """The managed ``L_P⁺`` solver, (re)built lazily when needed.

        Returns
        -------
        Solver
            A :class:`DirectSolver` while the sparsifier is a pure tree
            (a tree factors with no fill, so this costs ``O(n)``) or
            the graph has at most :data:`DIRECT_SOLVER_MAX_NODES`
            vertices, an :class:`AMGSolver` otherwise.
        """
        if self._solver is None:
            self._solver = self._build_solver()
            self.solver_rebuilds += 1
        return self._solver

    def _build_solver(self) -> Solver:
        """Factor ``L_P`` directly, or build AMG for large non-trees.

        The pure tree always gets the direct solver, whatever its size:
        under the minimum-degree ordering its factor has no fill, and it
        absorbs the first edge batches through Woodbury updates like any
        other factorization.
        """
        if self.is_pure_tree or self.graph.n <= DIRECT_SOLVER_MAX_NODES:
            return DirectSolver(
                self.pruned_laplacian().tocsc(),
                max_update_rank=MAX_UPDATE_RANK,
            )
        return AMGSolver(
            self._laplacian, cycles=2, rebuild_every=AMG_REBUILD_EVERY
        )
