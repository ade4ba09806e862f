"""Shared benchmark configuration.

Benchmarks regenerate every table and figure of the paper (shape
comparison, not absolute times — see EXPERIMENTS.md) and micro-benchmark
the pipeline kernels.  ``REPRO_SCALE`` scales workload sizes; the
default here is tuned for a single CPU core.

``--smoke`` switches supporting benchmarks into CI smoke mode: tiny
problem sizes and parity/correctness asserts only, no timing
assertions.  That lets a fast CI job collect the perf harnesses on
every push, so they cannot silently rot, without paying for (or
flaking on) real measurements.  The option is registered here, so the
benchmark files must be passed explicitly on the command line (they
always are — ``bench_*.py`` is not collected by the default run).
"""

from __future__ import annotations

import os

import pytest


def bench_scale(default: float = 0.6) -> float:
    """Benchmark problem-size multiplier (REPRO_SCALE, default 0.6)."""
    raw = os.environ.get("REPRO_SCALE", "")
    if not raw:
        return default
    return float(raw)


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="benchmark smoke mode: tiny sizes, parity asserts only",
    )


@pytest.fixture(scope="session")
def smoke(request: pytest.FixtureRequest) -> bool:
    return bool(request.config.getoption("--smoke"))


@pytest.fixture(scope="session")
def scale() -> float:
    return bench_scale()
