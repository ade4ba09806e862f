"""R2 true-positive fixture: paper routines called straight from stage bodies.

A stage body hands context values to its routine and assigns the
result back; the contract rules see those ``ctx.*`` reads and writes
like any other, so a routine call cannot hide undeclared dataflow.
Parsed by the linter, never imported — the undefined ``Stage`` and
routine names only need to exist at runtime.
"""


class EmbedStage(Stage):                          # noqa: F821
    """Scores off-tree edges; hands the routine an undeclared input."""

    name = "embed"
    requires = ("state",)
    provides = ("heats",)

    def run(self, ctx):
        """R201: ``off_tree`` reaches the routine undeclared."""
        ctx.heats = joule_heats(                  # noqa: F821
            ctx.graph, ctx.state.solver(), ctx.off_tree, t=ctx.t
        )
        return {}


class ThresholdStage(Stage):                      # noqa: F821
    """Filters the heats; lands the routine's output undeclared."""

    name = "threshold"
    requires = ("off_tree", "heats", "lambda_max", "lambda_min")
    provides = ("threshold",)

    def run(self, ctx):
        """R202: the passing edges are written to an undeclared name."""
        ctx.threshold = heat_threshold(           # noqa: F821
            ctx.sigma2, ctx.lambda_min, ctx.lambda_max, t=ctx.t
        )
        decision = filter_edges(ctx.heats, ctx.threshold)  # noqa: F821
        ctx.candidates = ctx.off_tree[decision.passing]
        return {}
