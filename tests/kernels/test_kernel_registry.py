"""Stage bodies call their paper routines directly; no backend knob.

There is no kernel registry: ``TreeStage`` calls ``low_stretch_tree``
itself, and the ``kernel_backend`` knob is gone from every library
entry point.  Passing it is an error at construction, never a silently
ignored argument (the CLI and HTTP edges are pinned in
``tests/test_cli.py`` and ``tests/serve/test_service.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.context import PipelineContext
from repro.core.stages import TreeStage
from repro.graphs import generators
from repro.sparsify import SimilarityAwareSparsifier
from repro.stream import DynamicSparsifier
from repro.trees import low_stretch_tree
from repro.utils.rng import as_rng


class TestContextDispatch:
    def test_context_rejects_unknown_backend(self):
        g = generators.path_graph(4)
        with pytest.raises(TypeError, match="kernel_backend"):
            PipelineContext(
                graph=g, rng=as_rng(0), sigma2=60.0, kernel_backend="fortran"
            )

    def test_lsst_dispatch_writes_tree(self):
        g = generators.grid2d(5, 5, weights="uniform", seed=1)
        ctx = PipelineContext(graph=g, rng=as_rng(3), sigma2=60.0)
        counters = TreeStage().run(ctx)
        assert counters == {"edges": g.n - 1}
        assert ctx.tree_indices.dtype == np.int64
        expected = low_stretch_tree(g, method="akpw", seed=as_rng(3))
        assert np.array_equal(ctx.tree_indices, expected)


class TestApiValidation:
    def test_sparsifier_rejects_unknown_backend(self):
        with pytest.raises(TypeError, match="kernel_backend"):
            SimilarityAwareSparsifier(kernel_backend="fortran")

    def test_dynamic_rejects_unknown_backend(self):
        g = generators.grid2d(4, 4)
        with pytest.raises(TypeError, match="kernel_backend"):
            DynamicSparsifier(g, kernel_backend="fortran")
