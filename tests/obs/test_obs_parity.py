"""Observability-parity suite: collectors must never change results.

Instrumentation is strictly passive: running any consumer of the filter
loop with a live tracer *and* metrics registry must produce bit-identical
masks, backbones, σ² estimates and RNG streams to a run with collectors
disabled.  The scenarios mirror the golden-parity suite's four consumers
(batch, sharded, streaming, serving registry build), plus the
"profile is a view over the trace" contract: the per-stage seconds the
pipeline writes into its :class:`~repro.core.profile.PipelineProfile`
are the *same numbers* its stage spans record, so a profile
reconstructed from the trace matches the inline one exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
from repro.core.profile import PipelineProfile
from repro.graphs import generators
from repro.graphs.operations import disjoint_union
from repro.obs import MetricsRegistry, Tracer
from repro.sparsify import sparsify_graph
from repro.sparsify.parallel import ShardedSparsifier
from repro.stream import DynamicSparsifier, random_event_stream


def _observed_pair():
    """A fresh (tracer, metrics) pair for an enabled run."""
    return Tracer(), MetricsRegistry()


def _estimate_solves(metrics) -> float:
    """σ²-estimate solves counted in ``repro_solver_solves_total``."""
    return metrics.counter(
        "repro_solver_solves_total",
        "Laplacian solve() invocations, one per call (a k-column "
        "multi-RHS block counts once - batching exists to shrink "
        "this number).",
        labelnames=("solver", "caller"),
    ).value(solver="DirectSolver", caller="estimate")


def _grid():
    return generators.grid2d(10, 10, weights="lognormal", seed=3)


def _assert_results_match(a, b) -> None:
    assert np.array_equal(a.edge_mask, b.edge_mask)
    assert np.array_equal(a.tree_indices, b.tree_indices)
    assert a.sigma2_estimate == b.sigma2_estimate


class TestBatchParity:
    def test_batch_bit_identical_and_rng_stream_untouched(self):
        obs.disable()
        rng_off = np.random.default_rng(7)
        off = sparsify_graph(_grid(), sigma2=50.0, seed=rng_off)

        tracer, metrics = _observed_pair()
        rng_on = np.random.default_rng(7)
        with obs.observed(tracer=tracer, metrics=metrics):
            on = sparsify_graph(_grid(), sigma2=50.0, seed=rng_on)

        _assert_results_match(off, on)
        # Instrumentation consumed no randomness: the streams advance in
        # lockstep and their next draws agree.
        assert (
            rng_off.bit_generator.state == rng_on.bit_generator.state
        )
        assert tracer.records(category="stage"), "stages must emit spans"
        assert _estimate_solves(metrics) >= 1.0

    def test_profile_is_a_view_over_the_trace(self):
        tracer, metrics = _observed_pair()
        with obs.observed(tracer=tracer, metrics=metrics):
            result = sparsify_graph(_grid(), sigma2=50.0, seed=0)

        rebuilt = PipelineProfile.from_trace(tracer)
        inline = result.profile
        assert rebuilt.reports, "trace must contain stage spans"
        for name, report in rebuilt.reports.items():
            reference = inline.reports[name]
            assert report.calls == reference.calls
            # Same span objects feed both sinks: bit-equal, not approx.
            assert report.seconds == reference.seconds
        recorded = {n for n, r in inline.reports.items() if r.calls}
        assert set(rebuilt.reports) == recorded


class TestShardParity:
    def test_sharded_bit_identical(self):
        graph = disjoint_union(
            generators.grid2d(7, 7, weights="uniform", seed=0),
            generators.grid2d(6, 6, weights="uniform", seed=1),
        )
        kwargs = dict(sigma2=60.0, seed=11)

        obs.disable()
        off = ShardedSparsifier(**kwargs).sparsify(graph)

        tracer, metrics = _observed_pair()
        with obs.observed(tracer=tracer, metrics=metrics):
            on = ShardedSparsifier(**kwargs).sparsify(graph)

        _assert_results_match(off, on)
        assert [s.sparsifier_edges for s in off.shards] == [
            s.sparsifier_edges for s in on.shards
        ]
        # Every shard's stage spans land in the one trace.
        stage_spans = tracer.records(category="stage")
        assert sum(1 for r in stage_spans if r.name == "tree") >= 2
        assert {r.name for r in tracer.records(category="shard")} == {
            "shards.plan", "shards.run", "shards.stitch",
        }
        # Every shard's solves land in the one registry.
        assert _estimate_solves(metrics) >= 2.0


class TestStreamParity:
    def test_streaming_bit_identical(self):
        graph = generators.grid2d(9, 9, weights="uniform", seed=2)
        events = random_event_stream(
            graph, 200, seed=9, p_insert=0.5, p_delete=0.3
        )

        def run():
            dyn = DynamicSparsifier(
                graph, sigma2=30.0, seed=5, drift_tolerance=1.0,
                absorb_inserts=False,
            )
            dyn.apply_log(events, batch_size=40)
            return dyn

        obs.disable()
        off = run()
        tracer, metrics = _observed_pair()
        with obs.observed(tracer=tracer, metrics=metrics):
            on = run()

        assert off.redensify_count > 0, "scenario must exercise tier 3"
        assert on.redensify_count == off.redensify_count
        assert np.array_equal(on.edge_mask, off.edge_mask)
        assert np.array_equal(on.tree_indices, off.tree_indices)
        assert on.last_estimate == off.last_estimate
        assert (
            on._rng.bit_generator.state == off._rng.bit_generator.state
        )
        assert tracer.records(category="stream")
        batches = metrics.counter(
            "repro_stream_batches_total",
            "Event batches applied by DynamicSparsifier.",
        ).value()
        assert batches == on.batches_applied
        drift = metrics.gauge(
            "repro_stream_drift_ratio",
            "Tracked σ² estimate over the target σ² at the most "
            "recent drift check (tier 3 fires above "
            "drift_tolerance).",
        ).value()
        assert drift == pytest.approx(on.last_estimate / on.sigma2)


class TestServeParity:
    def test_registry_build_bit_identical(self, tmp_path):
        from repro.serve import SparsifierRegistry

        graph = generators.grid2d(8, 8, weights="uniform", seed=4)

        obs.disable()
        reg_off = SparsifierRegistry(tmp_path / "off")
        key_off = reg_off.register(graph, sigma2=80.0, seed=3)

        tracer, metrics = _observed_pair()
        with obs.observed(tracer=tracer, metrics=metrics):
            reg_on = SparsifierRegistry(tmp_path / "on")
            key_on = reg_on.register(graph, sigma2=80.0, seed=3)

        assert key_on == key_off  # same content address
        off_dyn = reg_off.get(key_off).dynamic
        on_dyn = reg_on.get(key_on).dynamic
        assert np.array_equal(on_dyn.edge_mask, off_dyn.edge_mask)
        assert np.array_equal(on_dyn.tree_indices, off_dyn.tree_indices)
        assert on_dyn.last_estimate == off_dyn.last_estimate
        assert metrics.counter(
            "repro_registry_events_total",
            "Registry traffic by event: hit (register/get without a "
            "build), build (registry miss), eviction (LRU spill to "
            "disk), reload (checkpoint restore).",
            labelnames=("event",),
        ).value(event="build") == 1.0
