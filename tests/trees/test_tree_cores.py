"""Differential tests of the flat-array tree cores.

The AKPW label claim, the Borůvka union core and the Tarjan LCA core
run over flat ``int64`` arrays; cluster labels, representative ids and
LCA answers feed directly into tree identity, so the contract is
bit-identity with the sequential references (the distance-ordered
claim loop below, :class:`repro.trees.spanning.DisjointSet`,
:class:`repro.trees.BinaryLiftingLCA`), not merely equivalent
partitions.
"""

import numpy as np
import pytest

from repro.graphs import generators
from repro.trees import (
    BinaryLiftingLCA,
    RootedTree,
    edge_stretches,
    low_stretch_tree,
    total_stretch,
)
from repro.trees import lsst
from repro.trees.lsst import _boruvka_round, boruvka_union_core, claim_labels
from repro.trees.spanning import DisjointSet
from repro.trees.tarjan_lca import tarjan_lca_core


def _sequential_claim(dist, pred, virtual):
    """The distance-ordered claim loop ``claim_labels`` must reproduce."""
    labels = -np.ones(pred.size, dtype=np.int64)
    for v in np.argsort(dist, kind="stable"):
        p = pred[v]
        labels[v] = v if p == virtual or p < 0 else labels[p]
    return labels


class TestClaimLabels:
    def test_label_resolution_differential_fuzz(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            virtual = n
            # Forest predecessors: root markers (virtual or -1) mixed
            # with valid parents, acyclic by construction (parent < i
            # under a random relabeling).
            order = rng.permutation(n)
            pred = np.full(n, virtual, dtype=np.int64)
            for rank in range(1, n):
                node = order[rank]
                choice = rng.integers(0, 3)
                if choice == 0:
                    pred[node] = -1
                elif choice == 1:
                    pred[node] = virtual
                else:
                    pred[node] = order[int(rng.integers(0, rank))]
            dist = rng.uniform(0.0, 5.0, size=n)
            # The loop resolves in distance order; make parents
            # strictly closer so chains resolve identically.
            for rank in range(1, n):
                node = order[rank]
                if 0 <= pred[node] < n:
                    dist[node] = dist[pred[node]] + rng.uniform(0.01, 1.0)
            got = claim_labels(pred, virtual)
            assert np.array_equal(got, _sequential_claim(dist, pred, virtual))


def _disjoint_set_union(k, cu, cv, chosen):
    """The DisjointSet sequence the core must replicate exactly."""
    dsu = DisjointSet(k)
    added = np.zeros(chosen.size, dtype=bool)
    for i, e in enumerate(chosen):
        added[i] = dsu.union(int(cu[e]), int(cv[e]))
    labels = np.array([dsu.find(v) for v in range(k)], dtype=np.int64)
    return labels, added


class TestBoruvkaUnionCore:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [2, 7, 40, 200])
    def test_matches_disjoint_set_reference(self, seed, k):
        rng = np.random.default_rng(seed)
        m = 3 * k
        cu = rng.integers(0, k, size=m).astype(np.int64)
        cv = rng.integers(0, k, size=m).astype(np.int64)
        chosen = rng.permutation(m)[: 2 * k].astype(np.int64)
        labels, added = boruvka_union_core(k, cu, cv, chosen)
        ref_labels, ref_added = _disjoint_set_union(k, cu, cv, chosen)
        # Bit-identical representative ids, not just the same partition.
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(added, ref_added)

    def test_self_loops_never_added(self):
        cu = np.array([0, 1, 2], dtype=np.int64)
        cv = np.array([0, 1, 2], dtype=np.int64)
        labels, added = boruvka_union_core(3, cu, cv, np.arange(3))
        assert not added.any()
        assert np.array_equal(labels, np.arange(3))

    def test_empty_chosen(self):
        labels, added = boruvka_union_core(
            4,
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
        assert np.array_equal(labels, np.arange(4))
        assert added.size == 0

    def test_boruvka_round_equals_legacy_loop(self, monkeypatch):
        rng = np.random.default_rng(11)
        k = 60
        m = 150
        cu = rng.integers(0, k, size=m).astype(np.int64)
        cv = rng.integers(0, k, size=m).astype(np.int64)
        lengths = rng.random(m)
        orig = rng.permutation(1000)[:m].astype(np.int64)
        labels, added = _boruvka_round(k, cu, cv, lengths, orig)
        spy_calls = []

        def spy_core(k_, cu_, cv_, chosen_):
            spy_calls.append(chosen_.copy())
            return _disjoint_set_union(k_, cu_, cv_, chosen_)

        monkeypatch.setattr(lsst, "boruvka_union_core", spy_core)
        ref_labels, ref_added = _boruvka_round(k, cu, cv, lengths, orig)
        assert spy_calls, "the round must call the union core"
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(added, ref_added)


class TestTarjanCore:
    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_core_matches_binary_lifting(self, seed):
        g = generators.grid2d(9, 9, weights="uniform", seed=seed)
        idx = low_stretch_tree(g, seed=seed)
        tree = RootedTree.from_graph(g, idx, root=0)
        rng = np.random.default_rng(seed)
        us = rng.integers(0, tree.n, size=300).astype(np.int64)
        vs = rng.integers(0, tree.n, size=300).astype(np.int64)
        got = tarjan_lca_core(
            np.asarray(tree.parent, dtype=np.int64), int(tree.root), us, vs
        )
        assert np.array_equal(got, BinaryLiftingLCA(tree).query(us, vs))

    def test_zero_queries(self):
        g = generators.path_graph(5)
        tree = RootedTree.from_graph(g, np.arange(4), root=0)
        out = tarjan_lca_core(
            np.asarray(tree.parent, dtype=np.int64),
            0,
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
        assert out.size == 0


class TestStretchMethods:
    @pytest.mark.parametrize(
        "graph",
        [
            generators.grid2d(12, 12, weights="uniform", seed=2),
            generators.grid2d(10, 10, weights="lognormal", seed=4),
            generators.fem_mesh_2d(200, seed=8),
            generators.circuit_grid(9, 9, seed=6),
        ],
        ids=["grid", "weighted-grid", "fem", "circuit"],
    )
    def test_tarjan_bit_identical_to_lifting(self, graph):
        idx = low_stretch_tree(graph, seed=1)
        lifting = edge_stretches(graph, idx, method="lifting")
        tarjan = edge_stretches(graph, idx, method="tarjan")
        assert np.array_equal(lifting.stretches, tarjan.stretches)
        assert np.array_equal(lifting.tree_mask, tarjan.tree_mask)
        assert total_stretch(graph, idx, method="tarjan") == lifting.total

    def test_no_off_tree_edges(self):
        g = generators.path_graph(9)
        report = edge_stretches(g, np.arange(8), method="tarjan")
        assert np.array_equal(report.stretches, np.ones(8))

    @pytest.mark.parametrize("has_off_tree", [True, False])
    def test_unknown_method_rejected(self, has_off_tree):
        g = (
            generators.grid2d(4, 4, weights="uniform", seed=0)
            if has_off_tree
            else generators.path_graph(5)
        )
        idx = low_stretch_tree(g, seed=0)
        with pytest.raises(ValueError, match="unknown stretch method"):
            edge_stretches(g, idx, method="euler")
