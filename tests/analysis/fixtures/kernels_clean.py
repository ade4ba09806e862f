"""R2 clean fixture: stage bodies calling their paper routines directly.

Every ``ctx.*`` value passed into a routine is required or provided,
and every routine result lands on a provided name, so the contract
rules stay silent.  Parsed by the linter, never imported.
"""


class TreeStage(Stage):                           # noqa: F821
    """Builds the backbone with the low-stretch tree routine."""

    name = "tree"
    requires = ("graph", "rng")
    provides = ("tree_indices",)

    def run(self, ctx):
        """One routine call, declared inputs, declared output."""
        ctx.tree_indices = low_stretch_tree(      # noqa: F821
            ctx.graph, method=ctx.tree_method, seed=ctx.rng
        )
        return {"edges": int(ctx.tree_indices.size)}


class ThresholdStage(Stage):                      # noqa: F821
    """Filters the heats with the θ_σ threshold routine."""

    name = "threshold"
    requires = ("state", "off_tree", "heats", "lambda_max")
    provides = ("threshold", "candidates", "lambda_min")

    def run(self, ctx):
        """Both routine results land on provided names."""
        ctx.lambda_min = ctx.state.lambda_min()
        ctx.threshold = heat_threshold(           # noqa: F821
            ctx.sigma2, ctx.lambda_min, ctx.lambda_max, t=ctx.t
        )
        decision = filter_edges(ctx.heats, ctx.threshold)  # noqa: F821
        ctx.candidates = ctx.off_tree[decision.passing]
        return {"candidates": int(ctx.candidates.size)}
