"""Query-serving throughput: batched engine vs naive per-query solves.

The serving subsystem's reason to exist: a σ²-certified sparsifier is
a *reusable* proxy — the registry keeps it (and its factorization)
warm, and the engine coalesces query batches into multi-RHS solves.
Serving without the subsystem means naive per-query answering: every
resistance request pays its own Laplacian solve against its own
factorization, because nothing holds warm state between requests.
Headline target: ≥ 5x resistance-query throughput on
``grid2d(200, 200)`` (scaled by ``REPRO_SCALE``) for the batched
:class:`~repro.serve.QueryEngine` over that naive path, with identical
answers.  The warm per-query loop (shared factorization, one solve per
query) is also reported, isolating the artifact-reuse win from the
multi-RHS coalescing win.

A second, layer-level check times the pair-form resistance path
(:meth:`~repro.solvers.DirectSolver.pair_resistances`, which the engine
uses with the direct solver: a forward solve on the elimination-tree
reach of the pair endpoints) against solve-and-gather on the same warm
solver, at a Woodbury rank the serving tier reaches under event churn,
and sweeps the block size over 1, 8, 64 and 256 pairs on a fresh
factorization.

Run explicitly (benchmarks are not collected by the default test run):

    PYTHONPATH=src python -m pytest benchmarks/bench_serve_queries.py -v -s

CI runs this file with ``--smoke``: tiny sizes, parity asserts only.
"""

from __future__ import annotations

import time

import numpy as np

from repro.graphs import generators
from repro.serve import QueryEngine
from repro.solvers import DirectSolver
from repro.sparsify import exact_effective_resistances
from repro.stream import DynamicSparsifier, random_event_stream

SIGMA2 = 100.0

#: Full-mode floor of the pair-row path's speed-up over solve-and-gather
#: for 8-pair queries on grid2d(100, 100) at Woodbury rank >= 32.
PAIR_ROW_SPEEDUP_FLOOR = 1.3


def _query_pairs(n, count, rng):
    pairs = rng.integers(0, n, size=(count, 2))
    fix = pairs[:, 0] == pairs[:, 1]
    pairs[fix, 1] = (pairs[fix, 0] + 1) % n
    return pairs


def test_batched_engine_beats_per_query_solves(scale, smoke):
    """Acceptance: the warm batched engine answers k resistance queries
    ≥ 5x faster than naive per-query serving, with identical answers."""
    side = 36 if smoke else max(100, int(200 * scale))
    queries = 16 if smoke else 64
    graph = generators.grid2d(side, side, weights="uniform", seed=4)
    dyn = DynamicSparsifier(graph, sigma2=SIGMA2, seed=0)
    engine = QueryEngine(dyn)
    rng = np.random.default_rng(11)
    pairs = _query_pairs(graph.n, queries, rng)

    sparsifier = dyn.sparsifier()
    dyn.solver()  # warm the engine's factorization out of the timed region
    engine.resistance(pairs[:2])

    # Naive serving: no warm artifact — each query factorizes and solves.
    start = time.perf_counter()
    naive = np.concatenate([
        exact_effective_resistances(
            sparsifier,
            pair[None, :],
            solver=DirectSolver(sparsifier.laplacian().tocsc()),
        )
        for pair in pairs
    ])
    t_naive = time.perf_counter() - start

    # Warm per-query loop: shared factorization, one solve per query.
    warm_solver = DirectSolver(sparsifier.laplacian().tocsc())
    start = time.perf_counter()
    warm = np.concatenate([
        exact_effective_resistances(sparsifier, pair[None, :], solver=warm_solver)
        for pair in pairs
    ])
    t_warm = time.perf_counter() - start

    # Batched engine: one call, multi-RHS solves against the warm solver.
    start = time.perf_counter()
    batched = engine.resistance(pairs)
    t_batched = time.perf_counter() - start

    assert np.allclose(naive, batched)
    assert np.allclose(warm, batched)
    speedup = t_naive / max(t_batched, 1e-12)
    print(
        f"\ngrid2d({side}x{side}), {queries} resistance queries: "
        f"naive per-query {t_naive:.3f}s vs warm per-query {t_warm:.3f}s "
        f"vs batched engine {t_batched:.3f}s ({speedup:.1f}x over naive, "
        f"{queries / max(t_batched, 1e-12):,.0f} q/s batched)"
    )
    if not smoke:
        assert speedup >= 5.0


class _SolveOnly:
    """Hides ``pair_resistances``: resistances take solve-and-gather."""

    def __init__(self, inner):
        self._inner = inner

    def solve(self, rhs):
        return self._inner.solve(rhs)


def test_pair_rows_beat_solve_and_gather(smoke):
    """8-pair resistance queries read at the pair rows beat a full
    solve-and-gather on the same solver at Woodbury rank >= 32, with
    the same answers to 1e-12."""
    side = 30 if smoke else 100
    reps = 10 if smoke else 150
    graph = generators.grid2d(side, side, weights="uniform", seed=4)
    dyn = DynamicSparsifier(graph, sigma2=SIGMA2, seed=0)
    engine = QueryEngine(dyn)
    rng = np.random.default_rng(11)
    engine.resistance(_query_pairs(graph.n, 8, rng))  # warm the solver
    events = random_event_stream(graph, 2000, seed=3)
    for start in range(0, len(events), 4):
        if dyn.solver().update_rank >= 32:
            break
        dyn.apply(events[start : start + 4])
    rank = dyn.solver().update_rank
    assert rank >= 32
    generic = _SolveOnly(dyn.solver())

    t_pair, t_gather = [], []
    for _ in range(reps):
        pairs = _query_pairs(graph.n, 8, rng)
        start = time.perf_counter()
        fast = engine.resistance(pairs)
        t_pair.append(time.perf_counter() - start)
        start = time.perf_counter()
        slow = exact_effective_resistances(dyn.graph, pairs, solver=generic)
        t_gather.append(time.perf_counter() - start)
        assert np.allclose(fast, slow, rtol=1e-12, atol=0)
    pair_ms = 1e3 * float(np.median(t_pair))
    gather_ms = 1e3 * float(np.median(t_gather))
    speedup = gather_ms / max(pair_ms, 1e-12)
    print(
        f"\ngrid2d({side}x{side}) at Woodbury rank {rank}, 8-pair "
        f"resistance: solve-and-gather {gather_ms:.2f} ms vs pair rows "
        f"{pair_ms:.2f} ms ({speedup:.2f}x, medians of {reps})"
    )
    if not smoke:
        assert speedup >= PAIR_ROW_SPEEDUP_FLOOR


#: Pairs per resistance block in the sweep.
SWEEP_PAIRS = (1, 8, 64, 256)


def test_pair_forms_sweep_block_sizes(smoke):
    """Pair forms against solve-and-gather at 1, 8, 64 and 256 pairs on
    the σ²=100 sparsifier of a grid: the same answers to 1e-12 at every
    size (the smoke check), and from 8 pairs up no slower than
    ``PAIR_ROW_SPEEDUP_FLOOR`` (full mode)."""
    side = 30 if smoke else 100
    reps = 2 if smoke else 20
    graph = generators.grid2d(side, side, weights="uniform", seed=4)
    dyn = DynamicSparsifier(graph, sigma2=SIGMA2, seed=0)
    solver = dyn.solver()
    generic = _SolveOnly(solver)
    rng = np.random.default_rng(13)
    exact_effective_resistances(graph, _query_pairs(graph.n, 2, rng), solver=solver)
    rows = []
    for k in SWEEP_PAIRS:
        t_pair, t_gather = [], []
        for _ in range(reps):
            pairs = _query_pairs(graph.n, k, rng)
            start = time.perf_counter()
            fast = exact_effective_resistances(graph, pairs, solver=solver)
            t_pair.append(time.perf_counter() - start)
            start = time.perf_counter()
            slow = exact_effective_resistances(graph, pairs, solver=generic)
            t_gather.append(time.perf_counter() - start)
            np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=0)
        rows.append((k, 1e3 * float(np.median(t_pair)), 1e3 * float(np.median(t_gather))))
    print(f"\ngrid2d({side}x{side}) sparsifier, medians of {reps}:")
    for k, pair_ms, gather_ms in rows:
        print(f"  {k:4d} pairs: pair forms {pair_ms:8.2f} ms vs solve-and-gather "
              f"{gather_ms:8.2f} ms ({gather_ms / max(pair_ms, 1e-12):.2f}x)")
    if not smoke:
        for k, pair_ms, gather_ms in rows:
            if k >= 8:
                assert gather_ms / pair_ms >= PAIR_ROW_SPEEDUP_FLOOR, k


def test_http_latency_quantiles_from_metrics(smoke, tmp_path):
    """End-to-end HTTP serving latency, read from the service's own
    ``repro_http_request_seconds`` histogram — the same numbers
    ``/metrics`` exports, no client-side stopwatch."""
    import repro.obs as obs
    from repro.serve import ServeClient, SparsifierRegistry, SparsifierService

    obs.disable()  # the service installs a fresh ambient registry
    side = 12 if smoke else 28
    requests = 20 if smoke else 200
    graph = generators.grid2d(side, side, weights="uniform", seed=4)
    service = SparsifierService(SparsifierRegistry(tmp_path / "registry"))
    service.start()
    try:
        client = ServeClient(service.url)
        key = client.register(graph, sigma2=SIGMA2, seed=0)
        rng = np.random.default_rng(11)
        for _ in range(requests):
            client.resistance(key, _query_pairs(graph.n, 4, rng))
        hist = obs.get_metrics().histogram(
            "repro_http_request_seconds",
            "Wall-clock seconds per HTTP request, by endpoint "
            "(unknown paths pool under 'other').",
            labelnames=("endpoint",),
        )
        endpoint = "/query/resistance"
        assert hist.count(endpoint=endpoint) == requests
        p50 = hist.quantile(0.5, endpoint=endpoint)
        p99 = hist.quantile(0.99, endpoint=endpoint)
    finally:
        service.stop()
        obs.disable()
    assert 0.0 <= p50 <= p99
    print(
        f"\n{endpoint} over {requests} requests: "
        f"p50 {p50 * 1e3:.2f} ms, p99 {p99 * 1e3:.2f} ms"
    )


def test_serving_stays_fresh_under_churn(smoke):
    """Queries interleaved with event batches answer against the
    updated graph at every step (parity with a cold engine)."""
    side = 14 if smoke else 30
    graph = generators.grid2d(side, side, weights="uniform", seed=9)
    dyn = DynamicSparsifier(graph, sigma2=SIGMA2, seed=1)
    engine = QueryEngine(dyn)
    events = random_event_stream(graph, 60, seed=2, p_delete=0.35)
    rng = np.random.default_rng(5)
    for start in range(0, len(events), 20):
        dyn.apply(events[start : start + 20])
        pairs = _query_pairs(dyn.graph.n, 8, rng)
        served = engine.resistance(pairs)
        cold = exact_effective_resistances(dyn.sparsifier(), pairs)
        assert np.allclose(served, cold)
