"""Unit tests for the Joule-heat edge embedding (Eqs. 6, 12)."""

import numpy as np
import pytest

from repro.graphs import generators
from repro.sparsify import default_num_vectors, joule_heats, power_iterate
from repro.sparsify.edge_embedding import probe_heats
from repro.trees import RootedTree, TreeSolver, edge_stretches, low_stretch_tree


@pytest.fixture
def tree_setup(grid_weighted):
    idx = low_stretch_tree(grid_weighted, seed=0)
    solver = TreeSolver(RootedTree.from_graph(grid_weighted, idx))
    mask = np.zeros(grid_weighted.num_edges, dtype=bool)
    mask[idx] = True
    off = np.flatnonzero(~mask)
    return grid_weighted, idx, solver, off


class TestDefaults:
    def test_default_num_vectors_logarithmic(self):
        assert default_num_vectors(2) >= 4
        assert default_num_vectors(1024) == 10
        assert default_num_vectors(10**6) == 20


class TestPowerIterate:
    def test_shape(self, tree_setup):
        graph, _, solver, _ = tree_setup
        H = power_iterate(graph, solver, t=2, num_vectors=5, seed=0)
        assert H.shape == (graph.n, 5)

    def test_columns_mean_free(self, tree_setup):
        graph, _, solver, _ = tree_setup
        H = power_iterate(graph, solver, t=2, num_vectors=4, seed=1)
        assert np.abs(H.mean(axis=0)).max() < 1e-10

    def test_amplifies_dominant_direction(self, tree_setup):
        """More steps => iterate increasingly dominated by top eigenvector."""
        graph, idx, solver, _ = tree_setup
        from repro.spectral import generalized_power_iteration

        LG = graph.laplacian()
        LP = graph.edge_subgraph(idx).laplacian()
        h1 = power_iterate(graph, solver, t=1, num_vectors=1, seed=3)[:, 0]
        h4 = power_iterate(graph, solver, t=4, num_vectors=1, seed=3)[:, 0]

        def rayleigh(h):
            return float(h @ (LG @ h)) / float(h @ (LP @ h))

        assert rayleigh(h4) >= rayleigh(h1) - 1e-9

    def test_invalid_t(self, tree_setup):
        graph, _, solver, _ = tree_setup
        with pytest.raises(ValueError, match="t must be"):
            power_iterate(graph, solver, t=0)

    def test_invalid_num_vectors(self, tree_setup):
        graph, _, solver, _ = tree_setup
        with pytest.raises(ValueError, match="num_vectors"):
            power_iterate(graph, solver, num_vectors=0)


class TestJouleHeats:
    def test_nonnegative(self, tree_setup):
        graph, _, solver, off = tree_setup
        heats = joule_heats(graph, solver, off, seed=0)
        assert np.all(heats >= 0)
        assert heats.shape == (off.size,)

    def test_deterministic_given_seed(self, tree_setup):
        graph, _, solver, off = tree_setup
        a = joule_heats(graph, solver, off, seed=7)
        b = joule_heats(graph, solver, off, seed=7)
        assert np.array_equal(a, b)

    def test_correlates_with_stretch(self, tree_setup):
        """§3.3: high-heat off-tree edges are the high-stretch edges."""
        graph, idx, solver, off = tree_setup
        heats = joule_heats(graph, solver, off, t=2, num_vectors=12, seed=0)
        stretches = edge_stretches(graph, idx).stretches[off]
        # Top-quartile overlap between the two rankings.
        k = max(4, off.size // 4)
        top_heat = set(np.argsort(-heats)[:k].tolist())
        top_stretch = set(np.argsort(-stretches)[:k].tolist())
        overlap = len(top_heat & top_stretch) / k
        assert overlap > 0.5

    def test_probe_heats_match_fancy_index_gather(self, tree_setup):
        """The ``np.take`` gather gives the bits of ``H[u] - H[v]``."""
        graph, _, solver, off = tree_setup
        H = power_iterate(graph, solver, t=2, num_vectors=5, seed=2)
        diffs = H[graph.u[off]] - H[graph.v[off]]
        expected = graph.w[off] * np.einsum("ij,ij->i", diffs, diffs)
        assert np.array_equal(probe_heats(graph, H, off), expected)

    def test_sum_equals_quadratic_form(self, tree_setup):
        """Eq. 6: Σ heats = h' (L_G − L_P) h for a single probe."""
        graph, idx, solver, off = tree_setup
        H = power_iterate(graph, solver, t=2, num_vectors=1, seed=4)
        h = H[:, 0]
        LG = graph.laplacian()
        LP = graph.edge_subgraph(idx).laplacian()
        direct = float(h @ ((LG - LP) @ h))
        diffs = h[graph.u[off]] - h[graph.v[off]]
        heats = graph.w[off] * diffs**2
        assert heats.sum() == pytest.approx(direct, rel=1e-9)

    def test_critical_chord_outheats_redundant_chord(self):
        """Relative ranking: a high-stretch chord draws far more heat
        than a low-stretch (redundant) one."""
        from repro.graphs import Graph

        # Tree: unit path 0-1-2-3-4. Chords: (0,4) w=1 (stretch 4) and
        # (0,2) w=0.001 (stretch 0.002).
        g = Graph(
            5,
            [0, 1, 2, 3, 0, 0],
            [1, 2, 3, 4, 4, 2],
            [1.0, 1.0, 1.0, 1.0, 1.0, 0.001],
        )
        tree_idx = g.edge_indices(
            np.array([0, 1, 2, 3]), np.array([1, 2, 3, 4])
        )
        solver = TreeSolver(RootedTree.from_graph(g, tree_idx))
        off = np.setdiff1d(np.arange(g.num_edges), tree_idx)
        heats = joule_heats(g, solver, off, num_vectors=8, seed=0)
        critical = off == g.edge_indices(np.array([0]), np.array([4]))[0]
        assert heats[critical][0] > 100.0 * heats[~critical][0]
