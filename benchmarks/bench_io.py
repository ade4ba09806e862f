"""Matrix Market IO: SciPy's compiled reader and writer vs per-line loops.

:mod:`repro.graphs.io` reads through ``scipy.io.mmread`` and writes
through ``scipy.io.mmwrite`` (fast_matrix_market, SciPy >= 1.12).  The
per-line Python reader and writer they replaced are frozen below as the
reference:

- exactness: ``read(write(g))`` reproduces ``u``, ``v`` and ``w`` bit
  for bit for a uniform grid, a lognormal grid and BA(1500), and the
  reader returns the frozen reader's COO (indices, values, dtypes and
  order) on files the frozen writer wrote, symmetric and general;
- refusals: malformed files (truncated, too long, oversized size line,
  bad index or token) raise ``ValueError``;
- speed: reading and writing the 400² lognormal grid (319,200 edges,
  one entry each in its symmetric file) beat the frozen loops by at
  least the floors below (full mode; smoke mode times a 40² grid and
  asserts nothing).

Run explicitly (benchmarks are not collected by the default test run):

    PYTHONPATH=src python -m pytest benchmarks/bench_io.py -v -s

CI runs this file with ``--smoke``: tiny sizes, the exactness and
refusal checks, no timing asserts.
"""

from __future__ import annotations

import io
import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs import generators
from repro.graphs.io import (
    load_graph_matrix_market,
    read_matrix_market,
    write_matrix_market,
)

#: Full-mode floors of the speed-up over the frozen loops on the 400²
#: lognormal grid, set below the worst of five runs on a shared 2-CPU
#: host (read 8.1-15.2x, write 3.8-6.7x).
READ_SPEEDUP_FLOOR = 5.0
WRITE_SPEEDUP_FLOOR = 3.0

#: Timed repetitions per side in full mode; the median is compared.
REPS = 5


def frozen_read_matrix_market(handle) -> sp.coo_matrix:
    """The per-line reader :mod:`repro.graphs.io` used before SciPy's.

    Takes an open text handle; returns the same COO layout (stored
    entries first, then the mirrored off-diagonal ones).
    """
    header = handle.readline().strip().lower().split()
    if len(header) < 5 or header[0] != "%%matrixmarket" or header[1] != "matrix":
        raise ValueError("not a MatrixMarket matrix file")
    layout, field, symmetry = header[2], header[3], header[4]
    if layout != "coordinate":
        raise ValueError(f"only coordinate layout supported, got {layout!r}")
    if field not in ("real", "integer", "pattern"):
        raise ValueError(f"unsupported field type {field!r}")
    if symmetry not in ("general", "symmetric", "skew-symmetric"):
        raise ValueError(f"unsupported symmetry {symmetry!r}")
    line = handle.readline()
    while line.startswith("%"):
        line = handle.readline()
    dims = line.split()
    nrows, ncols, nnz = int(dims[0]), int(dims[1]), int(dims[2])
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.ones(nnz, dtype=np.float64)
    for k in range(nnz):
        parts = handle.readline().split()
        rows[k] = int(parts[0]) - 1
        cols[k] = int(parts[1]) - 1
        if field != "pattern":
            vals[k] = float(parts[2])
    if symmetry == "general":
        return sp.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols))
    off = rows != cols
    mirrored = -vals[off] if symmetry == "skew-symmetric" else vals[off]
    return sp.coo_matrix(
        (
            np.concatenate([vals, mirrored]),
            (np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])),
        ),
        shape=(nrows, ncols),
    )


def frozen_write_matrix_market(handle, matrix, symmetric: bool = True) -> None:
    """The per-line writer :mod:`repro.graphs.io` used before SciPy's."""
    coo = matrix.tocoo()
    if symmetric:
        keep = coo.row >= coo.col
        rows, cols, vals = coo.row[keep], coo.col[keep], coo.data[keep]
        sym = "symmetric"
    else:
        rows, cols, vals = coo.row, coo.col, coo.data
        sym = "general"
    handle.write(f"%%MatrixMarket matrix coordinate real {sym}\n")
    handle.write(f"{coo.shape[0]} {coo.shape[1]} {rows.size}\n")
    for r, c, val in zip(rows, cols, vals):
        handle.write(f"{r + 1} {c + 1} {float(val)!r}\n")


def _graphs(smoke: bool) -> dict:
    side = 24 if smoke else 100
    return {
        "uniform-grid": generators.grid2d(side, side, weights="uniform", seed=3),
        "lognormal-grid": generators.grid2d(side, side, weights="lognormal", seed=3),
        "ba-1500": generators.barabasi_albert(1500, attach=4, seed=3),
    }


def _same_coo(a: sp.coo_matrix, b: sp.coo_matrix) -> bool:
    return (
        a.shape == b.shape
        and a.row.dtype == b.row.dtype
        and a.data.dtype == b.data.dtype
        and np.array_equal(a.row, b.row)
        and np.array_equal(a.col, b.col)
        and np.array_equal(a.data.view(np.int64), b.data.view(np.int64))
    )


def test_round_trip_is_bit_exact(smoke, tmp_path):
    """read(write(g)) reproduces the canonical edge arrays bit for bit."""
    for name, graph in _graphs(smoke).items():
        path = tmp_path / f"{name}.mtx"
        write_matrix_market(path, graph.adjacency(), symmetric=True)
        back = load_graph_matrix_market(path)
        assert back.n == graph.n, name
        assert np.array_equal(back.u, graph.u), name
        assert np.array_equal(back.v, graph.v), name
        assert np.array_equal(back.w.view(np.int64), graph.w.view(np.int64)), name


def test_reader_matches_frozen_reader(smoke):
    """On files the frozen writer wrote, the reader returns the frozen
    reader's COO: same indices, value bits, dtypes and entry order."""
    for name, graph in _graphs(smoke).items():
        for matrix, symmetric in ((graph.adjacency(), True),
                                  (graph.laplacian(), False)):
            out = io.StringIO()
            frozen_write_matrix_market(out, matrix, symmetric=symmetric)
            text = out.getvalue()
            ours = read_matrix_market(io.StringIO(text))
            frozen = frozen_read_matrix_market(io.StringIO(text))
            assert _same_coo(ours, frozen), (name, symmetric)


MALFORMED = {
    "five-declared-two-present": ("real symmetric", "5 5 5\n2 1 1.0\n3 1 2.0\n"),
    "truncated": ("real symmetric", "5 5 3\n2 1 1.0\n3 1 2.0\n"),
    "too-long": ("real general", "3 3 1\n2 1 1.0\n3 1 2.0\n"),
    "huge-count": ("real general", "3 3 4000000000\n2 1 1.0\n"),
    "huge-dimension": ("real general", "1000000000000 3 1\n2 1 1.0\n"),
    "zero-index": ("real general", "3 3 1\n0 1 1.0\n"),
    "index-out-of-range": ("real general", "3 3 1\n4 1 1.0\n"),
    "missing-value": ("real general", "3 3 1\n2 1\n"),
    "non-numeric-token": ("real general", "3 3 1\n2 1 abc\n"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_refused(case):
    banner, body = MALFORMED[case]
    text = f"%%MatrixMarket matrix coordinate {banner}\n{body}"
    with pytest.raises(ValueError):
        read_matrix_market(io.StringIO(text))


def _median_seconds(fn) -> float:
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def test_speed_over_frozen_loops(smoke, tmp_path):
    """Read and write the 400² lognormal grid against the frozen loops."""
    side = 40 if smoke else 400
    graph = generators.grid2d(side, side, weights="lognormal", seed=0)
    adjacency = graph.adjacency()
    path = tmp_path / "grid.mtx"
    frozen_path = tmp_path / "frozen.mtx"

    def frozen_write():
        with open(frozen_path, "w", encoding="utf-8") as handle:
            frozen_write_matrix_market(handle, adjacency)

    def frozen_read():
        with open(frozen_path, "r", encoding="utf-8") as handle:
            return frozen_read_matrix_market(handle)

    write_s = _median_seconds(lambda: write_matrix_market(path, adjacency))
    frozen_write_s = _median_seconds(frozen_write)
    read_s = _median_seconds(lambda: read_matrix_market(path))
    frozen_read_s = _median_seconds(frozen_read)
    assert _same_coo(read_matrix_market(path), frozen_read())

    read_speedup = frozen_read_s / read_s
    write_speedup = frozen_write_s / write_s
    print(
        f"\ngrid2d({side}x{side}) lognormal, {graph.num_edges} edges, medians of "
        f"{REPS}: read {frozen_read_s * 1e3:.0f} -> {read_s * 1e3:.0f} ms "
        f"({read_speedup:.1f}x), write {frozen_write_s * 1e3:.0f} -> "
        f"{write_s * 1e3:.0f} ms ({write_speedup:.1f}x)"
    )
    if not smoke:
        assert read_speedup >= READ_SPEEDUP_FLOOR
        assert write_speedup >= WRITE_SPEEDUP_FLOOR
