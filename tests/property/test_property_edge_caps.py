"""Property-based tests of the per-iteration edge-cap knobs.

The paper's §3.7 adds off-tree edges in "small portions";
``max_edges_per_iteration`` (surfaced to stages as ``ctx.edge_cap()``)
is that portion size.  These tests fuzz the cap over random connected
graphs: the additions per iteration never exceed the cap, degenerate
caps (0, 1) stay graceful, and negative caps are rejected eagerly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparsify import densify, sparsify_graph
from repro.trees.lsst import low_stretch_tree

from tests.property.test_property_trees import connected_graphs


class TestEdgeCapProperties:
    @given(
        graph=connected_graphs(),
        cap=st.integers(min_value=0, max_value=12),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_additions_never_exceed_cap(self, graph, cap, seed):
        tree = low_stretch_tree(graph, method="akpw", seed=seed)
        result = densify(
            graph, tree, sigma2=2.0, seed=seed, max_iterations=5,
            max_edges_per_iteration=cap,
        )
        for iteration in result.iterations:
            assert iteration.num_added <= cap
        # The mask can only grow tree + cap * iterations edges.
        assert result.num_edges <= tree.size + cap * len(result.iterations)
        # Every tree edge survives in the mask.
        assert bool(result.edge_mask[tree].all())

    @given(graph=connected_graphs(), seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_cap_zero_freezes_the_backbone(self, graph, seed):
        tree = low_stretch_tree(graph, method="akpw", seed=seed)
        result = densify(
            graph, tree, sigma2=2.0, seed=seed, max_iterations=5,
            max_edges_per_iteration=0,
        )
        expected = np.zeros(graph.num_edges, dtype=bool)
        expected[tree] = True
        assert np.array_equal(result.edge_mask, expected)

    @given(graph=connected_graphs(), seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_cap_one_adds_at_most_one_per_iteration(self, graph, seed):
        result = sparsify_graph(
            graph, sigma2=2.0, seed=seed, max_iterations=4,
            max_edges_per_iteration=1,
        )
        for iteration in result.iterations:
            assert iteration.num_added <= 1

    def test_negative_cap_rejected(self):
        from repro.graphs import generators

        graph = generators.grid2d(10, 10, weights="uniform", seed=0)
        tree = low_stretch_tree(graph, method="akpw", seed=0)
        with pytest.raises(ValueError):
            densify(
                graph, tree, sigma2=2.0, seed=0,
                max_edges_per_iteration=-1,
            )
