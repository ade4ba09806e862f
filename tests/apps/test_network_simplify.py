"""Unit tests for the complex-network simplification application."""

import numpy as np
import pytest

from repro.apps import simplify_network
from repro.graphs import generators


class TestSimplifyNetwork:
    def test_report_fields(self):
        g = generators.barabasi_albert(600, 5, seed=1)
        report = simplify_network(g, sigma2=100.0, seed=0)
        assert report.total_seconds > 0.0
        assert report.edge_reduction > 1.0
        assert report.lambda1_ratio >= 1.0
        assert np.isfinite(report.eig_seconds_original)
        assert np.isfinite(report.eig_seconds_sparsified)

    def test_dense_graph_large_reduction(self):
        """Table 4 shape: dense random graphs reduce ~10-40x."""
        g = generators.erdos_renyi_gnm(400, 8000, seed=2)
        report = simplify_network(g, sigma2=100.0, seed=0,
                                  time_eigensolves=False)
        assert report.edge_reduction > 5.0

    def test_lambda1_drops_dramatically(self):
        """Table 4 shape: adding filtered edges slashes λ₁ by >> 10x."""
        g = generators.erdos_renyi_gnm(400, 8000, seed=3)
        report = simplify_network(g, sigma2=100.0, seed=0,
                                  time_eigensolves=False)
        assert report.lambda1_ratio > 10.0

    def test_eig_timing_skippable(self):
        g = generators.barabasi_albert(300, 4, seed=4)
        report = simplify_network(g, sigma2=100.0, seed=0,
                                  time_eigensolves=False)
        assert np.isnan(report.eig_seconds_original)
        assert np.isnan(report.eig_seconds_sparsified)

    def test_sparsifier_preserves_clustering(self):
        """The RCV-80NN use case: clustering on the sparsifier matches
        clustering on the original."""
        from repro.spectral import spectral_clustering

        pts = generators.gaussian_mixture_points(
            300, dim=4, clusters=3, separation=10.0, seed=5
        )
        g = generators.knn_graph(pts, k=12)
        report = simplify_network(g, sigma2=100.0, seed=0,
                                  time_eigensolves=False)
        labels_orig = spectral_clustering(g, 3, seed=1)
        labels_sparse = spectral_clustering(report.result.sparsifier, 3, seed=1)
        # Compare partitions with a pairwise Rand-style agreement.
        same_a = labels_orig[:, None] == labels_orig[None, :]
        same_b = labels_sparse[:, None] == labels_sparse[None, :]
        agreement = float(
            np.triu(same_a == same_b, k=1).sum()
            / (g.n * (g.n - 1) / 2)
        )
        assert agreement > 0.9


class TestDisconnectedNetworks:
    def test_disconnected_routes_through_shards(self):
        from repro.graphs.operations import disjoint_union
        from repro.sparsify import ShardedSparsifyResult

        g = disjoint_union(
            generators.barabasi_albert(300, 5, seed=1),
            generators.grid2d(12, 12, weights="uniform", seed=2),
        )
        report = simplify_network(g, sigma2=100.0, seed=0,
                                  time_eigensolves=False)
        assert isinstance(report.result, ShardedSparsifyResult)
        assert report.edge_reduction >= 1.0

    def test_lambda1_ratio_uses_per_shard_extremes(self):
        """λ1 of a block-diagonal pencil is the max over shards; the
        ratio must never mix the tree estimate of one shard with the
        final estimate of another."""
        from repro.graphs.operations import disjoint_union

        # Dense component (λ1 drops a lot) + sparse grid (barely moves).
        g = disjoint_union(
            generators.erdos_renyi_gnm(300, 6000, seed=3),
            generators.grid2d(10, 10, weights="uniform", seed=4),
        )
        report = simplify_network(g, sigma2=100.0, seed=0,
                                  time_eigensolves=False)
        stats = report.result.shards
        firsts = [s.lambda_max_first for s in stats
                  if np.isfinite(s.lambda_max_first)]
        lasts = [s.lambda_max_last for s in stats
                 if np.isfinite(s.lambda_max_last)]
        assert report.lambda1_ratio == pytest.approx(max(firsts) / max(lasts))
        assert report.lambda1_ratio >= 1.0
