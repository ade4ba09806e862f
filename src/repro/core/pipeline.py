"""The :class:`SparsifyPipeline` composer: validate, instrument, run.

A pipeline is an ordered stage list.  Before running, the composition
is validated against the context: every stage's declared ``requires``
must be satisfiable from the context's current values or an earlier
stage's ``provides`` — mis-wired compositions fail fast with a
:class:`PipelineValidationError` naming the stage and the missing
inputs instead of dying mid-run on an ``AttributeError``.  While
running, every stage execution is wrapped in an observability span
(category ``"stage"``; see :mod:`repro.obs`) whose wall-clock interval
and counters are folded into the context's
:class:`~repro.core.profile.PipelineProfile` — the profile is a view
over the trace, and
:meth:`~repro.core.profile.PipelineProfile.from_trace` rebuilds it
from the recorded spans.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.core.context import PipelineContext
from repro.core.stage import Stage
from repro.obs import get_tracer

__all__ = ["PipelineValidationError", "SparsifyPipeline"]


class PipelineValidationError(ValueError):
    """A stage's declared inputs cannot be satisfied by the composition."""


class SparsifyPipeline:
    """Composable, validated, instrumented stage sequence.

    Parameters
    ----------
    stages:
        Stages in execution order.

    Raises
    ------
    ValueError
        If ``stages`` is empty.

    Examples
    --------
    >>> from repro.core import DensifyStage, SparsifyPipeline, TreeStage
    >>> pipeline = SparsifyPipeline([TreeStage(), DensifyStage()])
    >>> pipeline.stage_names
    ('tree', 'densify')
    """

    def __init__(self, stages: Sequence[Stage]) -> None:
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        self.stages = list(stages)

    @property
    def stage_names(self) -> tuple[str, ...]:
        """Names of the composed stages, in execution order."""
        return tuple(stage.name for stage in self.stages)

    def validate(self, ctx: PipelineContext) -> None:
        """Check that every stage's inputs will be available.

        Walks the composition in order, treating a name as available
        when the context already holds it (:meth:`PipelineContext.has`)
        or an earlier stage declared it in ``provides``.

        Parameters
        ----------
        ctx:
            The context the pipeline is about to run against.

        Raises
        ------
        PipelineValidationError
            Naming the first stage with unsatisfied ``requires`` and
            the missing context names.
        """
        available = {
            field.name
            for field in dataclasses.fields(ctx)
            if ctx.has(field.name)
        }
        for stage in self.stages:
            missing = [name for name in stage.requires if name not in available]
            if missing:
                raise PipelineValidationError(
                    f"stage {stage.name!r} requires {missing} but the "
                    f"context and earlier stages only provide "
                    f"{sorted(available)}"
                )
            available.update(stage.provides)

    def run(self, ctx: PipelineContext) -> PipelineContext:
        """Validate, then execute every stage against the context.

        Parameters
        ----------
        ctx:
            The run's :class:`~repro.core.context.PipelineContext`.

        Returns
        -------
        PipelineContext
            The same context, mutated in place (returned for
            chaining).

        Raises
        ------
        PipelineValidationError
            When the composition's wiring is unsatisfiable (before any
            stage has run).
        """
        self.validate(ctx)
        for stage in self.stages:
            ctx.profile.ensure(stage.name)
            for child in stage.child_names:
                ctx.profile.ensure(child)
        for stage in self.stages:
            with get_tracer().span(stage.name, category="stage") as span:
                counters = stage.run(ctx)
                span.annotate(counters)
            ctx.profile.record(stage.name, span.elapsed, counters)
        return ctx
