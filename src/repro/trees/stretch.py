"""Edge stretch and total stretch of a spanning tree.

The stretch of edge ``e = (p, q)`` with weight ``w_e`` over tree ``P`` is
``st_P(e) = w_e · R_T(p, q)`` where ``R_T`` is the tree-path resistance.
The paper's Section 3.2/3.3 identity ``st_P(G) = Trace(L_P⁺ L_G)``
(Eq. 4) makes total stretch the certificate that at most ``k``
generalized eigenvalues exceed ``st_P(G)/k`` — the foundation of the
edge-filtering analysis.  Tree edges have stretch exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph
from repro.trees.tree import RootedTree
from repro.trees.lca import BinaryLiftingLCA

__all__ = ["StretchReport", "edge_stretches", "total_stretch"]


@dataclass(frozen=True)
class StretchReport:
    """Per-edge stretch of a spanning tree over its host graph.

    Attributes
    ----------
    stretches:
        Stretch of every canonical edge (tree edges contribute 1.0).
    tree_mask:
        Boolean mask marking tree edges.
    total:
        ``st_P(G) = Trace(L_P⁺ L_G)`` — sum over all edges.
    """

    stretches: np.ndarray
    tree_mask: np.ndarray

    @property
    def total(self) -> float:
        return float(self.stretches.sum())

    @property
    def off_tree_stretches(self) -> np.ndarray:
        """Stretch values of the off-tree edges only."""
        return self.stretches[~self.tree_mask]

    @property
    def max_off_tree(self) -> float:
        off = self.off_tree_stretches
        return float(off.max()) if off.size else 0.0


def edge_stretches(
    graph: Graph,
    tree_edge_indices: np.ndarray,
    root: int = 0,
    method: str = "lifting",
) -> StretchReport:
    """Compute stretch of every edge w.r.t. the given spanning tree.

    Both methods share the root-resistance prefix sums and differ only
    in the LCA engine — results are bit-identical:

    - ``"lifting"`` (default): batched binary-lifting table,
      ``O((n + m) log n)`` and fully vectorized;
    - ``"tarjan"``: Tarjan's offline union-find traversal,
      ``O((n + m) α(n))`` with no ancestor table — the lean choice for
      very deep trees.
    """
    tree = RootedTree.from_graph(graph, tree_edge_indices, root=root)
    resistance = tree.resistance_to_root()
    tree_mask = np.zeros(graph.num_edges, dtype=bool)
    tree_mask[np.asarray(tree_edge_indices, dtype=np.int64)] = True
    stretches = np.ones(graph.num_edges, dtype=np.float64)
    off = np.flatnonzero(~tree_mask)
    if off.size:
        u, v = graph.u[off], graph.v[off]
        if method == "lifting":
            path_r = BinaryLiftingLCA(tree).path_resistance(u, v, resistance)
        elif method == "tarjan":
            from repro.trees.tarjan_lca import tarjan_offline_lca

            anc = tarjan_offline_lca(tree, u, v)
            path_r = resistance[u] + resistance[v] - 2.0 * resistance[anc]
        else:
            raise ValueError(f"unknown stretch method {method!r}")
        stretches[off] = graph.w[off] * path_r
    elif method not in ("lifting", "tarjan"):
        raise ValueError(f"unknown stretch method {method!r}")
    return StretchReport(stretches=stretches, tree_mask=tree_mask)


def total_stretch(
    graph: Graph,
    tree_edge_indices: np.ndarray,
    root: int = 0,
    method: str = "lifting",
) -> float:
    """Total stretch ``st_P(G)`` of the tree (Eq. 4)."""
    return edge_stretches(
        graph, tree_edge_indices, root=root, method=method
    ).total
