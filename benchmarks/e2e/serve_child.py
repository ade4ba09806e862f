"""``repro serve`` with benchmark solver spans, for traced serve runs.

Usage (arguments are those of ``python -m repro serve``; pass
``--trace FILE`` to get the Chrome trace)::

    python3 benchmarks/e2e/serve_child.py --port 0 --port-file F --trace T

The serve command installs the tracer and the metrics registry; this
wrapper only adds the ``DirectSolver`` spans of :mod:`layers`, so the
server's own HTTP, stage and stream spans nest the solver work.
"""

from __future__ import annotations

import sys

import layers
from repro.cli import main as repro_main


def main(argv: list) -> int:
    """Serve with solver spans installed; returns the serve exit code."""
    with layers.solver_spans():
        return repro_main(["serve", *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
