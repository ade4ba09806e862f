"""Hypothesis property tests over the paper routines the stages call.

The routines behind the tree, filter and similarity stages obey
structural invariants on *any* input: trees span and stay connected,
filtering respects its threshold and ordering contract and is monotone
in the similarity target, scoring never exceeds its cap and is
prefix-monotone in it.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graphs import is_connected
from repro.sparsify.edge_similarity import select_dissimilar
from repro.sparsify.filtering import filter_edges, heat_threshold
from repro.trees.lsst import low_stretch_tree
from repro.utils.rng import as_rng

from tests.property.test_property_trees import connected_graphs


def _filter(heats, sigma2, lam_max):
    """θ_σ and the passing positions, as ``FilterStage`` derives them."""
    threshold = heat_threshold(sigma2, 1.0, lam_max, t=2)
    return threshold, filter_edges(heats, threshold).passing


class TestTreeProperties:
    @given(graph=connected_graphs(), seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_tree_spans_and_connects(self, graph, seed):
        idx = low_stretch_tree(graph, method="akpw", seed=as_rng(seed))
        assert idx.size == graph.n - 1
        assert np.unique(idx).size == idx.size
        assert is_connected(graph.edge_subgraph(idx))


@st.composite
def heat_vectors(draw, max_m=80):
    m = draw(st.integers(min_value=0, max_value=max_m))
    heats = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            min_size=m, max_size=m,
        )
    )
    return np.asarray(heats, dtype=np.float64)


class TestFilteringProperties:
    @given(
        heats=heat_vectors(),
        sigma2=st.floats(min_value=1.5, max_value=1e4),
        lam_max=st.floats(min_value=1.0, max_value=1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_threshold_and_ordering_contract(self, heats, sigma2, lam_max):
        threshold, passing = _filter(heats, sigma2, lam_max)
        assert 0.0 <= threshold <= 1.0
        assert passing.dtype == np.int64
        assert np.unique(passing).size == passing.size
        if passing.size:
            assert passing.min() >= 0 and passing.max() < heats.size
            norm = heats / heats.max()
            # Every survivor clears the threshold; order is by
            # descending normalized heat.
            assert np.all(norm[passing] >= threshold)
            assert np.all(np.diff(norm[passing]) <= 0)
            # Nothing above the threshold was dropped.
            assert np.count_nonzero(norm >= threshold) == passing.size

    @given(
        heats=heat_vectors(),
        lam_max=st.floats(min_value=1.0, max_value=1e3),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_similarity_target(self, heats, lam_max):
        """θ_σ grows with σ² (Eq. 15), so a looser similarity target can
        only admit *fewer* edges — the filter doubles as the stopping
        rule once θ_σ reaches 1."""
        _, demanding = _filter(heats, 4.0, lam_max)
        _, relaxed = _filter(heats, 400.0, lam_max)
        assert set(relaxed.tolist()) <= set(demanding.tolist())


@st.composite
def graphs_with_candidates(draw):
    graph = draw(connected_graphs())
    m = graph.num_edges
    count = draw(st.integers(min_value=0, max_value=m))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = np.random.default_rng(seed)
    candidates = rng.choice(m, size=count, replace=False)
    return graph, np.asarray(candidates, dtype=np.int64)


class TestScoringProperties:
    @given(data=graphs_with_candidates(), cap=st.integers(0, 50))
    @settings(max_examples=50, deadline=None)
    def test_cap_respected_and_subset(self, data, cap):
        graph, candidates = data
        added = select_dissimilar(graph, candidates, max_edges=cap)
        assert added.size <= cap
        assert set(added.tolist()) <= set(candidates.tolist())
        assert np.unique(added).size == added.size

    @given(data=graphs_with_candidates(), cap=st.integers(0, 30))
    @settings(max_examples=50, deadline=None)
    def test_prefix_monotone_in_cap(self, data, cap):
        """cap=k selects exactly the first k of the uncapped selection."""
        graph, candidates = data
        capped = select_dissimilar(graph, candidates, max_edges=cap)
        uncapped = select_dissimilar(graph, candidates, max_edges=None)
        assert np.array_equal(capped, uncapped[: min(cap, uncapped.size)])

    @given(data=graphs_with_candidates())
    @settings(max_examples=30, deadline=None)
    def test_degenerate_caps_graceful(self, data):
        graph, candidates = data
        assert select_dissimilar(graph, candidates, max_edges=0).size == 0
        one = select_dissimilar(graph, candidates, max_edges=1)
        assert one.size <= 1

    @given(data=graphs_with_candidates())
    @settings(max_examples=30, deadline=None)
    def test_endpoint_rule_holds(self, data):
        """Selected edges never share an endpoint with an *earlier*
        selected edge on both sides (the dissimilarity invariant)."""
        graph, candidates = data
        added = select_dissimilar(graph, candidates, max_edges=None)
        marked: set = set()
        for e in added:
            p, q = int(graph.u[e]), int(graph.v[e])
            assert not (p in marked and q in marked)
            marked.add(p)
            marked.add(q)
