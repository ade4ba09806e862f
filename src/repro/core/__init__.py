"""Unified stage-pipeline core shared by every sparsification workflow.

The paper's algorithm is one staged dataflow — spanning tree →
spectral edge embedding → similarity scoring → off-tree edge filtering
→ (optional) rescaling (Feng, DAC 2018 §3).  This package expresses
that dataflow once, as composable first-class stages, so the batch
kernel (:mod:`repro.sparsify.similarity_aware`), the sharded
pipeline (:mod:`repro.sparsify.parallel`), the streaming tier-3 drift
repair (:mod:`repro.stream.dynamic`) and the serving registry build
(:mod:`repro.serve.registry`) all execute the same filter loop instead
of carrying private copies:

- :class:`~repro.core.stage.Stage` — the protocol: declared
  ``requires``/``provides`` context names plus a ``run(ctx)`` body;
- :class:`~repro.core.context.PipelineContext` — owns the graph, the
  evolving sparsifier state, the managed solver handle, the RNG and
  all accumulated statistics;
- :class:`~repro.core.pipeline.SparsifyPipeline` — the composer:
  validates stage wiring and instruments every stage with wall-clock
  timings and counters (:class:`~repro.core.profile.PipelineProfile`);
- :mod:`repro.core.stages` — the paper loop as stages
  (:class:`TreeStage`, :class:`EstimateStage`, :class:`EmbeddingStage`,
  :class:`FilterStage`, :class:`SimilarityStage`, :class:`DensifyStage`,
  :class:`RescaleStage`), their bodies lifted verbatim out of the
  former per-subsystem copies — golden-parity tests pin the masks and
  trees bit-identical to the pre-refactor implementations.
"""

from repro.core.context import PipelineContext
from repro.core.pipeline import PipelineValidationError, SparsifyPipeline
from repro.core.profile import PipelineProfile, StageReport
from repro.core.stage import Stage
from repro.core.stages import (
    DensifyIteration,
    DensifyStage,
    EmbeddingStage,
    EstimateStage,
    FilterStage,
    RescaleStage,
    SimilarityStage,
    TreeStage,
)

__all__ = [
    "Stage",
    "PipelineContext",
    "PipelineProfile",
    "StageReport",
    "SparsifyPipeline",
    "PipelineValidationError",
    "DensifyIteration",
    "TreeStage",
    "EstimateStage",
    "EmbeddingStage",
    "FilterStage",
    "SimilarityStage",
    "DensifyStage",
    "RescaleStage",
]
