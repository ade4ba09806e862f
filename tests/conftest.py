"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import Graph, generators


@pytest.fixture(autouse=True)
def _isolated_observability():
    """Restore the ambient observability collectors after every test.

    Service construction (``SparsifierService(metrics=True)``) and
    observability tests install process-global collectors; without this
    guard they would leak across the suite and couple test outcomes to
    execution order.
    """
    import repro.obs as obs

    tracer, metrics = obs.get_tracer(), obs.get_metrics()
    yield
    obs.configure(tracer=tracer, metrics=metrics)


class _SolveOnly:
    """A solver seen only through its ``solve`` method."""

    def __init__(self, inner):
        self._inner = inner

    def solve(self, rhs):
        return self._inner.solve(rhs)


@pytest.fixture
def solve_only():
    """Wrap a solver so that only its ``solve`` method shows.

    Callers that have a fast path for a concrete solver class
    (``DirectSolver.pair_resistances``) then take their generic
    solve-and-gather route on the same factorization.
    """
    return _SolveOnly


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def path5() -> Graph:
    """Path graph on 5 vertices with unit weights."""
    return generators.path_graph(5)


@pytest.fixture
def cycle6() -> Graph:
    """Cycle on 6 vertices."""
    return generators.cycle_graph(6)


@pytest.fixture
def triangle() -> Graph:
    """Weighted triangle: edges (0,1,w=1), (0,2,w=2), (1,2,w=3)."""
    return Graph(3, [0, 0, 1], [1, 2, 2], [1.0, 2.0, 3.0])


@pytest.fixture
def grid_small() -> Graph:
    """Unit-weight 8x8 grid (64 vertices)."""
    return generators.grid2d(8, 8)


@pytest.fixture
def grid_weighted() -> Graph:
    """Lognormal-weight 12x12 grid — the workhorse reference graph."""
    return generators.grid2d(12, 12, weights="lognormal", seed=7)


@pytest.fixture
def mesh_medium() -> Graph:
    """FEM-ish 2-D Delaunay mesh with ~400 vertices."""
    return generators.fem_mesh_2d(400, seed=9)


@pytest.fixture
def knn_medium() -> Graph:
    """k-NN graph of a 3-cluster Gaussian mixture (300 points)."""
    points = generators.gaussian_mixture_points(
        300, dim=4, clusters=3, separation=6.0, seed=11
    )
    return generators.knn_graph(points, k=8)
