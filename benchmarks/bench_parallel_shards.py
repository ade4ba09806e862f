"""Shard-parallel sparsification: wall-clock speedup vs the serial path.

Two workloads:

- *multi-component*: a disjoint union of four equal grids — the exact
  decomposition case.  With four process workers the stitched run must
  beat serial shard execution by >1.5x wall-clock (acceptance
  criterion) while producing the identical edge mask.
- *partitioned*: one connected grid force-split into >= 4 shards via
  ``shard_max_nodes`` — the heuristic GRASS-style decomposition.  Same
  mask-determinism requirement; the speedup bar is lower because shard
  sizes are uneven.

The speedup assertions need real cores; they skip on single-CPU boxes
(the mask checks still run).  Run explicitly:

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel_shards.py -v -s
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from conftest import bench_scale
from repro.graphs import generators
from repro.graphs.operations import disjoint_union
from repro.sparsify import ShardedSparsifier

SIGMA2 = 100.0
WORKERS = 4


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _four_component_graph(side: int) -> "generators.Graph":
    parts = [
        generators.grid2d(side, side, weights="uniform", seed=seed)
        for seed in range(4)
    ]
    graph = parts[0]
    for part in parts[1:]:
        graph = disjoint_union(graph, part)
    return graph


def _timed_run(graph, **options):
    result = ShardedSparsifier(sigma2=SIGMA2, seed=0, **options).sparsify(graph)
    return result, result.wall_seconds


def test_multi_component_speedup():
    """Acceptance: >1.5x wall-clock with 4 workers on a 4-shard workload."""
    side = max(40, int(70 * np.sqrt(bench_scale())))
    graph = _four_component_graph(side)
    serial, t_serial = _timed_run(graph, workers=1)
    parallel, t_parallel = _timed_run(graph, workers=WORKERS)
    assert np.array_equal(serial.edge_mask, parallel.edge_mask)
    assert parallel.backend == "process"
    assert len(parallel.shards) == 4
    speedup = t_serial / t_parallel
    print(
        f"\nmulti-component {graph.n} vertices / {graph.num_edges} edges: "
        f"serial {t_serial:.2f}s, {WORKERS} process workers {t_parallel:.2f}s "
        f"-> speedup {speedup:.2f}x on {_cpus()} CPUs"
    )
    if _cpus() < 2:
        pytest.skip("speedup assertion needs more than one CPU")
    assert speedup > 1.5


def test_partitioned_speedup():
    """Fiedler-split shards of one connected grid also parallelize."""
    side = max(40, int(90 * np.sqrt(bench_scale())))
    graph = generators.grid2d(side, side, weights="uniform", seed=1)
    max_nodes = graph.n // 4 + 1
    serial, t_serial = _timed_run(graph, workers=1, shard_max_nodes=max_nodes)
    parallel, t_parallel = _timed_run(
        graph, workers=WORKERS, shard_max_nodes=max_nodes
    )
    assert np.array_equal(serial.edge_mask, parallel.edge_mask)
    assert parallel.backend == "process"
    assert len(parallel.shards) >= 4
    speedup = t_serial / t_parallel
    print(
        f"\npartitioned {graph.n} vertices into {len(parallel.shards)} shards "
        f"({parallel.cut_edge_indices.size} cut edges): serial {t_serial:.2f}s, "
        f"{WORKERS} process workers {t_parallel:.2f}s -> speedup {speedup:.2f}x"
    )
    if _cpus() < 2:
        pytest.skip("speedup assertion needs more than one CPU")
    assert speedup > 1.2


def test_process_pool_overhead_bounded():
    """On a small workload the process pool must stay within 3x of
    serial wall time — guards against pathological pickling costs."""
    graph = _four_component_graph(24)
    _, t_serial = _timed_run(graph, workers=1)
    _, t_parallel = _timed_run(graph, workers=2)
    print(
        f"\nsmall workload: serial {t_serial:.3f}s, process {t_parallel:.3f}s"
    )
    assert t_parallel < max(3.0 * t_serial, 2.0)
