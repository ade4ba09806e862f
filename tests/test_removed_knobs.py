"""The solver and shard-executor knobs are gone from every entry point.

The solver is picked from the graph (a direct factorization up to
``repro.sparsify.state.DIRECT_SOLVER_MAX_NODES`` vertices, AMG beyond,
with the module's fixed update budgets), and shards always run in one
serial loop in the calling process, so there is neither a shard
executor nor a worker count to choose.  Passing one of the removed
knobs, even at its old default, must be an error at the call, never a
silently ignored argument.  The CLI edge is pinned in
``tests/test_cli.py``.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.apps.network_simplify import simplify_network
from repro.core.context import PipelineContext
from repro.graphs import generators
from repro.obs import get_metrics
from repro.serve import (
    ServeClient,
    ServiceError,
    SparsifierRegistry,
    SparsifierService,
)
from repro.sparsify import (
    ShardedSparsifier,
    SimilarityAwareSparsifier,
    SparsifierState,
    densify,
    refine_sparsifier,
    sparsify_graph,
)
from repro.stream import DynamicSparsifier
from repro.trees import low_stretch_tree

SIGMA2 = 150.0

# Each removed knob at the default it used to have.
REMOVED = {
    "solver_method": "auto",
    "max_update_rank": 64,
    "amg_rebuild_every": 8,
    "backend": "auto",
    "workers": 1,
}


@pytest.fixture(scope="module")
def grid():
    return generators.grid2d(6, 6, weights="uniform", seed=0)


@pytest.fixture
def env(grid, tmp_path):
    return SimpleNamespace(
        grid=grid,
        tree=low_stretch_tree(grid, seed=0),
        result=sparsify_graph(grid, sigma2=SIGMA2, seed=0),
        registry=SparsifierRegistry(tmp_path / "spool"),
    )


ENTRY_POINTS = {
    "SparsifierState": lambda env, kw: SparsifierState(env.grid, env.tree, **kw),
    "PipelineContext": lambda env, kw: PipelineContext(
        graph=env.grid, rng=0, sigma2=SIGMA2, **kw
    ),
    "densify": lambda env, kw: densify(
        env.grid, env.tree, sigma2=SIGMA2, seed=0, **kw
    ),
    "SimilarityAwareSparsifier": lambda env, kw: SimilarityAwareSparsifier(
        sigma2=SIGMA2, **kw
    ),
    "sparsify_graph": lambda env, kw: sparsify_graph(
        env.grid, sigma2=SIGMA2, seed=0, **kw
    ),
    # The result already certifies this target, so refinement returns
    # early: the option must be refused all the same.
    "refine_sparsifier": lambda env, kw: refine_sparsifier(
        env.result, sigma2=SIGMA2, seed=0, **kw
    ),
    "ShardedSparsifier": lambda env, kw: ShardedSparsifier(sigma2=SIGMA2, **kw),
    "simplify_network": lambda env, kw: simplify_network(
        env.grid, sigma2=SIGMA2, seed=0, time_eigensolves=False, **kw
    ),
    "DynamicSparsifier": lambda env, kw: DynamicSparsifier(
        env.grid, sigma2=SIGMA2, seed=0, **kw
    ),
    "DynamicSparsifier.from_result": lambda env, kw: DynamicSparsifier.from_result(
        env.result, seed=0, **kw
    ),
    "SparsifierRegistry.register": lambda env, kw: env.registry.register(
        env.grid, sigma2=SIGMA2, seed=0, **kw
    ),
    "SparsifierRegistry.register_result": lambda env, kw: env.registry.register_result(
        env.result, seed=0, **kw
    ),
}


@pytest.mark.parametrize("knob", sorted(REMOVED))
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_removed_knob_is_type_error(env, entry, knob):
    with pytest.raises(TypeError, match=knob):
        ENTRY_POINTS[entry](env, {knob: REMOVED[knob]})


def _graphs_400s() -> float:
    family = get_metrics().snapshot().get("repro_http_errors_total", {})
    return family.get("values", {}).get(json.dumps(["/graphs", "400"]), 0.0)


@pytest.mark.parametrize("knob", sorted(REMOVED))
def test_removed_knob_is_400_on_post_graphs(grid, tmp_path, knob):
    registry = SparsifierRegistry(tmp_path / "spool")
    with SparsifierService(registry) as service:
        client = ServeClient(service.url)
        before = _graphs_400s()
        with pytest.raises(ServiceError) as excinfo:
            client.register(grid, sigma2=SIGMA2, seed=0, **{knob: REMOVED[knob]})
        assert excinfo.value.status == 400
        assert knob in str(excinfo.value)
        assert _graphs_400s() - before == 1.0
        assert client.stats()["artifacts"] == {}
