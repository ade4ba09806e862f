"""Tarjan's offline lowest-common-ancestor algorithm.

An alternative to binary lifting for the bulk LCA workload of stretch
computation: when *all* queries are known in advance, Tarjan's
union-find traversal answers ``q`` queries over an ``n``-vertex tree in
``O((n + q) α(n))`` — no ``O(n log n)`` ancestor table.  Used as an
independent oracle for :class:`~repro.trees.BinaryLiftingLCA` in the
test suite, as the memory-lean option for very deep trees, and as the
``method="tarjan"`` engine of :func:`repro.trees.edge_stretches`.

The traversal lives in :func:`tarjan_lca_core`, a flat-array loop nest
over ``int64`` arrays with an explicit DFS stack.  The union-find inside
replicates :class:`repro.trees.spanning.DisjointSet` (union by rank,
path halving) operation-for-operation.
"""

from __future__ import annotations

import numpy as np

from repro.trees.tree import RootedTree

__all__ = ["tarjan_lca_core", "tarjan_offline_lca"]


def tarjan_lca_core(parent: np.ndarray, root: int, qu: np.ndarray,
                    qv: np.ndarray) -> np.ndarray:
    """Flat-array Tarjan offline LCA.

    Parameters
    ----------
    parent:
        ``int64`` parent array of a rooted tree (``-1`` at the root).
    root:
        Root vertex.
    qu, qv:
        ``int64`` query endpoint arrays of equal length.

    Returns
    -------
    numpy.ndarray
        ``int64`` LCA per query, aligned with the query order.
    """
    n = parent.size
    q = qu.size
    # Children in CSR layout (vertex order, matching a child-list walk).
    child_count = np.zeros(n + 1, dtype=np.int64)
    for vertex in range(n):
        p = parent[vertex]
        if p >= 0:
            child_count[p + 1] += 1
    child_start = np.zeros(n + 1, dtype=np.int64)
    for vertex in range(n):
        child_start[vertex + 1] = child_start[vertex] + child_count[vertex + 1]
    child_pos = child_start[:-1].copy()
    child_list = np.empty(max(n - 1, 0), dtype=np.int64)
    for vertex in range(n):
        p = parent[vertex]
        if p >= 0:
            child_list[child_pos[p]] = vertex
            child_pos[p] += 1
    # Queries bucketed per endpoint (each query in both buckets).
    query_count = np.zeros(n + 1, dtype=np.int64)
    for k in range(q):
        query_count[qu[k] + 1] += 1
        query_count[qv[k] + 1] += 1
    query_start = np.zeros(n + 1, dtype=np.int64)
    for vertex in range(n):
        query_start[vertex + 1] = (
            query_start[vertex] + query_count[vertex + 1]
        )
    query_pos = query_start[:-1].copy()
    query_other = np.empty(2 * q, dtype=np.int64)
    query_id = np.empty(2 * q, dtype=np.int64)
    for k in range(q):
        a = qu[k]
        b = qv[k]
        query_other[query_pos[a]] = b
        query_id[query_pos[a]] = k
        query_pos[a] += 1
        query_other[query_pos[b]] = a
        query_id[query_pos[b]] = k
        query_pos[b] += 1
    # Union-find state (DisjointSet semantics: rank union, halving).
    dsu_parent = np.arange(n, dtype=np.int64)
    dsu_rank = np.zeros(n, dtype=np.int64)
    ancestor = np.arange(n, dtype=np.int64)
    visited = np.zeros(n, dtype=np.bool_)
    answers = np.empty(q, dtype=np.int64)
    # Iterative post-order DFS: explicit vertex + child-cursor stacks.
    stack = np.empty(n, dtype=np.int64)
    cursor = np.empty(n, dtype=np.int64)
    top = 0
    stack[0] = root
    cursor[0] = 0
    while top >= 0:
        vertex = stack[top]
        c = cursor[top]
        if child_start[vertex] + c < child_start[vertex + 1]:
            cursor[top] = c + 1
            top += 1
            stack[top] = child_list[child_start[vertex] + c]
            cursor[top] = 0
            continue
        # Post-visit: all children of `vertex` are merged below it.
        visited[vertex] = True
        for j in range(query_start[vertex], query_start[vertex + 1]):
            other = query_other[j]
            if visited[other]:
                x = other
                while dsu_parent[x] != x:
                    dsu_parent[x] = dsu_parent[dsu_parent[x]]
                    x = dsu_parent[x]
                answers[query_id[j]] = ancestor[x]
        p = parent[vertex]
        if p >= 0:
            x = p
            while dsu_parent[x] != x:
                dsu_parent[x] = dsu_parent[dsu_parent[x]]
                x = dsu_parent[x]
            ra = x
            x = vertex
            while dsu_parent[x] != x:
                dsu_parent[x] = dsu_parent[dsu_parent[x]]
                x = dsu_parent[x]
            rb = x
            if ra != rb:
                if dsu_rank[ra] < dsu_rank[rb]:
                    ra, rb = rb, ra
                dsu_parent[rb] = ra
                if dsu_rank[ra] == dsu_rank[rb]:
                    dsu_rank[ra] += 1
            ancestor[ra] = p
        top -= 1
    return answers


def tarjan_offline_lca(
    tree: RootedTree, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Answer a batch of LCA queries with Tarjan's offline algorithm.

    Parameters
    ----------
    tree:
        The rooted tree.
    u, v:
        Query endpoint arrays of equal length.

    Returns
    -------
    Array of LCAs, aligned with the query order.

    Notes
    -----
    Thin validation wrapper over :func:`tarjan_lca_core` — an iterative
    (explicit DFS stack) flat-array traversal, so deep trees do not hit
    Python's recursion limit.  Queries are bucketed per endpoint; when the DFS
    finishes a vertex, all its pending queries whose other endpoint is
    already visited resolve to ``ancestor(find(other))``.
    """
    u = np.atleast_1d(np.asarray(u, dtype=np.int64))
    v = np.atleast_1d(np.asarray(v, dtype=np.int64))
    if u.shape != v.shape:
        raise ValueError(f"query shapes differ: {u.shape} vs {v.shape}")
    return tarjan_lca_core(
        np.asarray(tree.parent, dtype=np.int64), int(tree.root), u, v
    )
