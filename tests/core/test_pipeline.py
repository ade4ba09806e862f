"""Unit tests of the stage-pipeline core (`repro.core`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DensifyStage,
    PipelineContext,
    PipelineProfile,
    PipelineValidationError,
    RescaleStage,
    SparsifyPipeline,
    Stage,
    TreeStage,
)
from repro.graphs import generators
from repro.sparsify import SimilarityAwareSparsifier, sparsify_graph
from repro.stream import DynamicSparsifier


def grid(side=12, seed=0):
    return generators.grid2d(side, side, weights="uniform", seed=seed)


def batch_context(graph, sigma2=80.0, seed=0, **knobs):
    return PipelineContext(graph=graph, rng=seed, sigma2=sigma2, **knobs)


class TestContext:
    def test_sigma2_must_exceed_one(self):
        with pytest.raises(ValueError, match="sigma2 must exceed 1"):
            batch_context(grid(4), sigma2=1.0)

    def test_max_iterations_validated(self):
        with pytest.raises(ValueError, match="max_iterations must be >= 1"):
            batch_context(grid(4), max_iterations=0)

    def test_seed_coerced_to_generator(self):
        ctx = batch_context(grid(4), seed=3)
        assert isinstance(ctx.rng, np.random.Generator)

    def test_has_treats_nan_and_none_as_absent(self):
        ctx = batch_context(grid(4))
        assert ctx.has("graph") and ctx.has("rng") and ctx.has("sigma2")
        assert not ctx.has("tree_indices")
        assert not ctx.has("lambda_max")
        assert not ctx.has("no_such_name")
        ctx.lambda_max = 2.0
        assert ctx.has("lambda_max")

    def test_ensure_state_requires_tree(self):
        ctx = batch_context(grid(4))
        with pytest.raises(ValueError, match="without tree_indices"):
            ctx.ensure_state()

    def test_edge_cap_default_and_override(self):
        g = grid(50)  # 2500 vertices -> 5% = 125
        assert batch_context(g).edge_cap() == 125
        assert batch_context(g, max_edges_per_iteration=7).edge_cap() == 7
        assert batch_context(grid(4)).edge_cap() == 100


class TestValidation:
    def test_densify_without_tree_fails_fast(self):
        pipeline = SparsifyPipeline([DensifyStage()])
        with pytest.raises(PipelineValidationError, match="'densify'"):
            pipeline.run(batch_context(grid(4)))

    def test_wired_composition_validates(self):
        pipeline = SparsifyPipeline([TreeStage(), DensifyStage()])
        pipeline.validate(batch_context(grid(4)))  # no raise

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            SparsifyPipeline([])

    def test_unknown_densify_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown densify mode"):
            DensifyStage(mode="nope")

    def test_unknown_rescale_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown rescale scheme"):
            RescaleStage(scheme="nope")

    def test_missing_names_listed(self):
        with pytest.raises(PipelineValidationError, match="lambda_max"):
            SparsifyPipeline([DensifyStage(mode="drift")]).run(
                batch_context(grid(4))
            )


class TestHooksAndRun:
    def test_run_returns_same_context(self):
        ctx = batch_context(grid(8))
        out = SparsifyPipeline([TreeStage(), DensifyStage()]).run(ctx)
        assert out is ctx
        assert ctx.edge_mask is not None
        assert ctx.tree_indices is not None
        assert np.isfinite(ctx.sigma2_estimate)

    def test_stage_names_property(self):
        pipeline = SparsifyPipeline([TreeStage(), DensifyStage()])
        assert pipeline.stage_names == ("tree", "densify")

    def test_base_stage_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Stage().run(batch_context(grid(4)))


class TestProfile:
    def test_record_and_accumulate(self):
        profile = PipelineProfile()
        assert not profile
        profile.record("tree", 0.5, {"edges": 10})
        profile.record("tree", 0.25, {"edges": 5})
        report = profile.reports["tree"]
        assert report.calls == 2
        assert report.seconds == pytest.approx(0.75)
        assert report.counters["edges"] == 15
        assert profile

    def test_merge_and_total(self):
        a, b = PipelineProfile(), PipelineProfile()
        a.record("tree", 1.0, {"edges": 1})
        b.record("tree", 2.0, {"edges": 2})
        b.record("densify", 3.0, None)
        b.record("densify.filter", 0.5, {"candidates": 9})
        a.merge(b)
        assert a.reports["tree"].seconds == pytest.approx(3.0)
        assert a.reports["tree"].counters["edges"] == 3
        # Dotted sub-stage time is contained in the driver's total.
        assert a.total_seconds() == pytest.approx(6.0)

    def test_dict_round_trip(self):
        profile = PipelineProfile()
        profile.record("densify", 1.5, {"added": 4})
        clone = PipelineProfile.from_dict(profile.as_dict())
        assert clone.as_dict() == profile.as_dict()

    def test_table_lists_stages(self):
        g = grid(10)
        result = sparsify_graph(g, sigma2=80.0, seed=0)
        table = result.profile.table()
        for name in ("tree", "densify", "estimate", "embedding", "filter",
                     "similarity", "total"):
            assert name in table

    def test_pipeline_profile_counters(self):
        result = sparsify_graph(grid(10), sigma2=80.0, seed=0)
        reports = result.profile.reports
        assert reports["tree"].counters["edges"] == result.tree_indices.size
        added = reports["densify"].counters["added"]
        assert added == result.sparsifier.num_edges - result.tree_indices.size
        # Sub-stage order is stable for the table display.
        names = list(reports)
        assert names.index("densify") < names.index("densify.estimate")

    def test_sharded_profile_merges_shards(self):
        from repro.graphs.operations import disjoint_union

        g = disjoint_union(grid(8, seed=0), grid(7, seed=1))
        result = sparsify_graph(g, sigma2=80.0, seed=0)
        assert result.profile.reports["tree"].calls == 2
        assert result.profile.reports["densify"].calls == 2


class TestRescaleStage:
    def test_rescale_similarity_scheme(self):
        g = grid(10)
        plain = SimilarityAwareSparsifier(sigma2=80.0, seed=0).sparsify(g)
        scaled = SimilarityAwareSparsifier(
            sigma2=80.0, seed=0, rescale="similarity"
        ).sparsify(g)
        # The mask is untouched; rescaling only reweights the result.
        assert np.array_equal(plain.edge_mask, scaled.edge_mask)
        assert scaled.rescale is not None
        assert scaled.rescale.scale > 0
        assert scaled.rescale.sparsifier.num_edges == plain.sparsifier.num_edges
        assert scaled.rescale.sigma <= scaled.sigma2_estimate + 1e-9
        assert "rescale" in scaled.profile.reports

    def test_rescale_off_tree_scheme(self):
        g = grid(8)
        result = SimilarityAwareSparsifier(
            sigma2=40.0, seed=1, rescale="off_tree"
        ).sparsify(g)
        assert result.rescale is not None
        assert result.rescale.condition_number > 0

    def test_invalid_scheme_on_kernel(self):
        with pytest.raises(ValueError, match="unknown rescale scheme"):
            SimilarityAwareSparsifier(rescale="global")


class TestConsumersShareThePipeline:
    def test_kernel_exposes_its_composition(self):
        kernel = SimilarityAwareSparsifier(sigma2=50.0, rescale="similarity")
        assert kernel.pipeline().stage_names == ("tree", "densify", "rescale")
        assert SimilarityAwareSparsifier().pipeline().stage_names == (
            "tree", "densify",
        )

    def test_dynamic_build_records_profile(self):
        dyn = DynamicSparsifier(grid(10), sigma2=80.0, seed=0)
        assert dyn.profile.reports["tree"].calls == 1
        assert dyn.profile.reports["densify"].calls == 1

    def test_dynamic_drift_repair_accumulates_profile(self):
        from repro.stream import random_event_stream

        g = generators.grid2d(16, 16, weights="uniform", seed=0)
        dyn = DynamicSparsifier(
            g, sigma2=30.0, seed=5, drift_tolerance=1.0, absorb_inserts=False
        )
        events = random_event_stream(g, 300, seed=9, p_insert=0.5, p_delete=0.3)
        dyn.apply_log(events, batch_size=40)
        assert dyn.redensify_count > 0
        # Drift repairs run through the same densify stage.
        assert dyn.profile.reports["densify"].calls == 1 + dyn.redensify_count

    def test_dynamic_rejects_unknown_densify_option(self):
        with pytest.raises(TypeError, match="unexpected densify option"):
            DynamicSparsifier(grid(6), sigma2=80.0, seed=0,
                              densify_options={"bogus": 1})
