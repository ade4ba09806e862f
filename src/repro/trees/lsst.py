"""Low-stretch spanning tree (LSST) extraction.

The sparsifier backbone of the paper is an LSST [1, 8]: a spanning tree
whose total stretch ``st_P(G) = Trace(L_P⁺ L_G)`` is near-linear in
``m``.  We implement an AKPW-style construction: edges are processed in
geometrically growing length scales, and at each scale the current
cluster graph is partitioned by *exponentially shifted* shortest-path
growth (the Miller–Peng–Xu decomposition), whose BFS forests become tree
edges before clusters contract.  A Borůvka step guarantees progress on
adversarial rounds.

Shortest-path trees (Dijkstra) and maximum-weight trees are provided as
baseline backbones for the ablation benchmarks.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from repro.graphs.graph import Graph
from repro.graphs.components import is_connected
from repro.trees.spanning import minimum_spanning_tree
from repro.utils.rng import as_rng

__all__ = [
    "akpw",
    "boruvka_union_core",
    "claim_labels",
    "shortest_path_tree",
    "low_stretch_tree",
]


def claim_labels(pred: np.ndarray, virtual: int) -> np.ndarray:
    """Assign every cluster to its claiming center.

    Every cluster inherits the label of the root of its Dijkstra
    predecessor chain.  The chains are chased by pointer doubling (an
    integer fixpoint, exact by construction), which gives the same
    labels as walking the clusters in increasing shifted distance and
    copying each predecessor's label, without the ordering.

    Parameters
    ----------
    pred:
        Dijkstra predecessors; the virtual source and negative entries
        terminate chains.
    virtual:
        Index of the virtual source node.

    Returns
    -------
    numpy.ndarray
        ``int64`` cluster labels (the claiming center per cluster).
    """
    parent = np.arange(pred.size, dtype=np.int64)
    follow = (pred >= 0) & (pred != virtual)
    parent[follow] = pred[follow]
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return grand
        parent = grand


def _dedupe_cluster_edges(
    cu: np.ndarray, cv: np.ndarray, lengths: np.ndarray, orig: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Keep the shortest representative of each parallel cluster edge."""
    lo = np.minimum(cu, cv)
    hi = np.maximum(cu, cv)
    key = lo.astype(np.int64) * np.int64(k) + hi
    order = np.lexsort((lengths, key))
    key_sorted = key[order]
    first = np.empty(order.size, dtype=bool)
    if order.size:
        first[0] = True
        np.not_equal(key_sorted[1:], key_sorted[:-1], out=first[1:])
    keep = order[first]
    return lo[keep], hi[keep], lengths[keep], orig[keep]


def _shifted_shortest_path_round(
    k: int,
    cu: np.ndarray,
    cv: np.ndarray,
    lengths: np.ndarray,
    orig: np.ndarray,
    active: np.ndarray,
    scale: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One MPX decomposition round over the active cluster edges.

    Returns ``(labels, tree_edge_ids)``: new cluster labels (not yet
    compressed) and original-graph edge ids of the claimed forest edges.

    The exponential start-delay trick is realized with a virtual source
    connected to every cluster with weight ``δ_v ~ Exp(scale)``; the
    Dijkstra predecessor forest rooted at the virtual source then assigns
    every cluster to its claiming center, and the forest edges (which are
    real active edges) join the spanning tree.
    """
    au, av, alen, aorig = cu[active], cv[active], lengths[active], orig[active]
    delays = rng.exponential(scale=scale, size=k)
    virtual = k
    rows = np.concatenate([au, av, np.full(k, virtual, dtype=np.int64)])
    cols = np.concatenate([av, au, np.arange(k, dtype=np.int64)])
    vals = np.concatenate([alen, alen, delays])
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(k + 1, k + 1))
    _, pred = csgraph.dijkstra(
        matrix, directed=False, indices=virtual, return_predecessors=True
    )
    pred = pred[:k]

    labels = claim_labels(pred, virtual)

    # Forest edges: (pred[v], v) for non-center claimed clusters.
    claimed = np.flatnonzero((pred != virtual) & (pred >= 0))
    if claimed.size == 0:
        return labels, np.array([], dtype=np.int64)
    # Map each (pred, v) cluster pair to the original edge id through the
    # deduplicated active-edge key table.
    lo = np.minimum(au, av)
    hi = np.maximum(au, av)
    keys = lo * np.int64(k) + hi
    sort = np.argsort(keys, kind="stable")
    keys_sorted = keys[sort]
    want_lo = np.minimum(pred[claimed], claimed)
    want_hi = np.maximum(pred[claimed], claimed)
    want = want_lo * np.int64(k) + want_hi
    pos = np.searchsorted(keys_sorted, want)
    if np.any(keys_sorted[np.clip(pos, 0, keys_sorted.size - 1)] != want):
        raise RuntimeError("Dijkstra forest used an inactive edge")  # pragma: no cover
    return labels, aorig[sort[pos]]


def boruvka_union_core(
    k: int, cu: np.ndarray, cv: np.ndarray, chosen: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Union the chosen Borůvka edges over flat arrays.

    Replicates :class:`repro.trees.spanning.DisjointSet` (union by
    rank, path halving) operation-for-operation: representative ids
    flow into ``np.unique`` label compression and thereby into the
    tree's edge identity, so the same roots matter, not merely the
    same partition.

    Parameters
    ----------
    k:
        Number of clusters.
    cu, cv:
        ``int64`` cluster endpoints of every edge in the round.
    chosen:
        ``int64`` positions of the selected best edges, in union order.

    Returns
    -------
    tuple
        ``(labels, added)`` — per-cluster representative labels, and a
        boolean mask over ``chosen`` marking edges that merged two
        clusters (the forest edges of the round).
    """
    parent = np.arange(k, dtype=np.int64)
    rank = np.zeros(k, dtype=np.int64)
    added = np.zeros(chosen.size, dtype=np.bool_)
    for i in range(chosen.size):
        e = chosen[i]
        x = cu[e]
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        ra = x
        x = cv[e]
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        rb = x
        if ra == rb:
            continue
        if rank[ra] < rank[rb]:
            ra, rb = rb, ra
        parent[rb] = ra
        if rank[ra] == rank[rb]:
            rank[ra] += 1
        added[i] = True
    labels = np.empty(k, dtype=np.int64)
    for v in range(k):
        x = v
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        labels[v] = x
    return labels, added


def _boruvka_round(
    k: int,
    cu: np.ndarray,
    cv: np.ndarray,
    lengths: np.ndarray,
    orig: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Borůvka fallback: every cluster grabs its shortest incident edge.

    Guarantees the cluster count at least halves, which makes the AKPW
    loop terminate even when a randomized round stalls.  The sequential
    union loop lives in :func:`boruvka_union_core`.
    """
    best = np.full(k, -1, dtype=np.int64)
    best_len = np.full(k, np.inf)
    for endpoint in (cu, cv):
        order = np.argsort(lengths, kind="stable")
        # First occurrence per endpoint wins (shortest due to ordering).
        ep = endpoint[order]
        uniq, first_pos = np.unique(ep, return_index=True)
        cand_len = lengths[order][first_pos]
        better = cand_len < best_len[uniq]
        best[uniq[better]] = order[first_pos[better]]
        best_len[uniq[better]] = cand_len[better]
    chosen = np.unique(best[best >= 0])
    labels, added = boruvka_union_core(
        k,
        np.ascontiguousarray(cu, dtype=np.int64),
        np.ascontiguousarray(cv, dtype=np.int64),
        chosen,
    )
    return labels, orig[chosen[added]]


def akpw(
    graph: Graph,
    seed: int | np.random.Generator | None = None,
    scale_factor: float = 4.0,
) -> np.ndarray:
    """AKPW-style low-stretch spanning tree; returns canonical edge indices.

    Parameters
    ----------
    graph:
        Connected weighted graph.
    seed:
        Randomness for the exponential shifts.
    scale_factor:
        Geometric growth of the length scale between rounds (the paper's
        LSST references use a large theoretical base; 4 works well in
        practice and keeps the number of rounds logarithmic).
    """
    if not is_connected(graph):
        raise ValueError("graph must be connected to have a spanning tree")
    if scale_factor <= 1.0:
        raise ValueError(f"scale_factor must exceed 1, got {scale_factor}")
    rng = as_rng(seed)
    n = graph.n
    if n == 1:
        return np.array([], dtype=np.int64)

    # Cluster-graph state: endpoints, lengths (resistance), original ids.
    cu = graph.u.copy()
    cv = graph.v.copy()
    lengths = 1.0 / graph.w
    orig = np.arange(graph.num_edges, dtype=np.int64)
    k = n
    cu, cv, lengths, orig = _dedupe_cluster_edges(cu, cv, lengths, orig, k)

    tree_edges: list[np.ndarray] = []
    scale = float(lengths.min()) * scale_factor
    while k > 1:
        active = lengths <= scale
        if not np.any(active):
            # Jump to the next populated scale.
            scale = float(lengths.min()) * scale_factor
            active = lengths <= scale
        labels, added = _shifted_shortest_path_round(
            k, cu, cv, lengths, orig, active, scale, rng
        )
        if added.size == 0:
            labels, added = _boruvka_round(k, cu, cv, lengths, orig)
        tree_edges.append(added)
        # Compress labels and contract.
        uniq, new_labels = np.unique(labels, return_inverse=True)
        k = uniq.size
        cu = new_labels[cu]
        cv = new_labels[cv]
        inter = cu != cv
        cu, cv, lengths, orig = cu[inter], cv[inter], lengths[inter], orig[inter]
        cu, cv, lengths, orig = _dedupe_cluster_edges(cu, cv, lengths, orig, k)
        scale *= scale_factor

    result = np.sort(np.concatenate(tree_edges)) if tree_edges else np.array([], dtype=np.int64)
    if result.size != n - 1:  # pragma: no cover - invariant of the construction
        raise RuntimeError(f"AKPW produced {result.size} edges, expected {n - 1}")
    return result


def shortest_path_tree(
    graph: Graph, root: int | None = None, seed=None
) -> np.ndarray:
    """Dijkstra shortest-path tree under resistance lengths ``1/w``.

    A classical 'pretty good' backbone: stretch along root paths is 1 by
    construction, but cross edges can be badly stretched — exactly the
    behaviour the LSST construction fixes.  Used in ablations.
    """
    if not is_connected(graph):
        raise ValueError("graph must be connected to have a spanning tree")
    if root is None:
        # Heuristic center: the highest weighted-degree vertex.
        root = int(np.argmax(graph.weighted_degrees()))
    lengths = 1.0 / graph.w
    matrix = sp.csr_matrix(
        (
            np.concatenate([lengths, lengths]),
            (
                np.concatenate([graph.u, graph.v]),
                np.concatenate([graph.v, graph.u]),
            ),
        ),
        shape=(graph.n, graph.n),
    )
    _, pred = csgraph.dijkstra(
        matrix, directed=False, indices=root, return_predecessors=True
    )
    vertices = np.flatnonzero(pred >= 0)
    idx = graph.edge_indices(vertices, pred[vertices])
    if np.any(idx < 0):  # pragma: no cover - SPT edges exist
        raise RuntimeError("Dijkstra produced an edge absent from the graph")
    return np.sort(idx)


def low_stretch_tree(
    graph: Graph,
    method: str = "akpw",
    seed: int | np.random.Generator | None = None,
    root: int | None = None,
) -> np.ndarray:
    """Spanning-tree backbone dispatcher.

    ``method`` is one of ``"akpw"`` (default, low-stretch),
    ``"spt"`` (Dijkstra shortest-path tree), ``"maxw"`` (maximum-weight
    tree) or ``"random"`` (uniformly weighted Kruskal order — the
    worst-case baseline for ablations).
    """
    if method == "akpw":
        return akpw(graph, seed=seed)
    if method == "spt":
        return shortest_path_tree(graph, root=root, seed=seed)
    if method == "maxw":
        return minimum_spanning_tree(graph, 1.0 / graph.w)
    if method == "random":
        rng = as_rng(seed)
        return minimum_spanning_tree(graph, rng.random(graph.num_edges))
    raise ValueError(f"unknown tree method {method!r}")
