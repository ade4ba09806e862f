"""Graph and matrix I/O.

The paper's test cases come from the SuiteSparse (UFL) collection in
Matrix Market format.  This module reads and writes Matrix Market
coordinate files (real/integer/pattern, general/symmetric/
skew-symmetric) so the library can ingest the same files when they are
available, plus simple edge-list and NumPy archive formats for our
synthetic workloads.

Parsing and formatting run in SciPy's compiled fast_matrix_market
reader and writer (``scipy.io.mmread``/``mmwrite``, SciPy >= 1.12).
The module checks the banner and the size line itself before SciPy
sees the file, so a header it does not support, a dimension beyond
SuperLU's 32-bit index range or an entry count the body cannot hold is
refused before anything is allocated.  SciPy's reader takes the numeric
prefix of a token (``1.5abc`` reads as 1.5, ``0x10`` as 0.0, ``1_0`` as
1.0) and crashes the interpreter on a last line that ends in anything
but its newline (``2 1 1.5 `` at the end of the file), so one C-level
pass (:meth:`bytes.translate`) first refuses a body holding any byte
that cannot be part of a number or the whitespace between numbers, and
a missing final newline is supplied.  That pass sees bytes, not
tokens: a token made of number bytes in the wrong order (``1..5``,
``1e5e``) still reads as its prefix.  Every malformed file raises
:class:`ValueError`.  Each Matrix Market read and write opens one
``io`` span annotated with the file's entry count, so a traced run
attributes its load and write time.
"""

from __future__ import annotations

import io as _io
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp

from repro.graphs.graph import Graph
from repro.graphs.laplacian import graph_from_matrix
from repro.obs import get_tracer

__all__ = [
    "read_matrix_market",
    "write_matrix_market",
    "load_graph_matrix_market",
    "read_edge_list",
    "write_edge_list",
    "save_graph_npz",
    "load_graph_npz",
]

#: Largest row or column count a Matrix Market file may declare: the
#: 32-bit index range of SuperLU, which factors every Laplacian here.
MAX_DIMENSION = np.iinfo(np.int32).max

#: Fewest bytes an entry line takes: ``1 1`` and its newline.
_MIN_ENTRY_BYTES = 4

#: Every byte a coordinate body may hold: digits, signs, the decimal
#: point, exponent marks and the whitespace around tokens.
_BODY_BYTES = b"0123456789+-.eE \t\r\n"


def read_matrix_market(path: str | Path | _io.TextIOBase) -> sp.coo_matrix:
    """Parse a Matrix Market coordinate file into a COO matrix.

    Supports ``matrix coordinate real|integer|pattern
    general|symmetric|skew-symmetric`` headers — the subset the
    SuiteSparse Laplacian-adjacent collections use.  Symmetric storage
    is expanded to both triangles (mirrored entries follow the stored
    ones); pattern files get unit values (the paper's unit-weight rule).
    The values are float64; the indices have the dtype
    :class:`scipy.sparse.coo_matrix` picks for the shape.

    Raises
    ------
    ValueError
        On an unsupported banner, a malformed or oversized size line,
        a body that holds fewer or more entries than declared, an index
        outside the declared shape, a byte in the body that cannot be
        part of a number, or a token that is not a number.
    """
    with get_tracer().span("io.read_matrix_market", category="io") as span:
        if isinstance(path, (str, Path)):
            with open(path, "rb") as handle:
                data = handle.read()
        else:
            data = path.read().encode("utf-8")
        matrix, entries = _read_coordinate(data)
        span.annotate(entries=entries)
    return matrix


def _read_coordinate(data: bytes) -> tuple[sp.coo_matrix, int]:
    """Check the header and body bytes of a Matrix Market file, then parse it.

    Returns the matrix and the entry count its size line declares.
    """
    handle = _io.BytesIO(data)
    header = handle.readline().decode("utf-8", "replace").strip().lower().split()
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
    while line.startswith(b"%") or line.isspace():
        line = handle.readline()
    try:
        nrows, ncols, entries = (int(token) for token in line.split())
    except ValueError:
        raise ValueError(f"malformed size line {line[:80]!r}") from None
    if min(nrows, ncols, entries) < 0 or max(nrows, ncols) > MAX_DIMENSION:
        raise ValueError(
            f"size line declares a {nrows} x {ncols} matrix with {entries} "
            f"entries; rows and columns must lie in [0, {MAX_DIMENSION}]"
        )
    start = handle.tell()
    body = len(data) - start
    # The last entry line may end without its newline.
    if _MIN_ENTRY_BYTES * entries > body + 1:
        raise ValueError(
            f"size line declares {entries} entries, but only {body} bytes follow it"
        )
    # The file's stray bytes keep their order, so the body's follow the
    # header's (banner, comments and size line), and no body copy is made.
    stray = data.translate(None, _BODY_BYTES)
    in_header = len(data[:start].translate(None, _BODY_BYTES))
    if len(stray) > in_header:
        raise ValueError(
            f"malformed Matrix Market body: byte {stray[in_header:][:1]!r} is "
            "not part of an integer or floating-point number"
        )
    if not data.endswith(b"\n"):
        data += b"\n"
    try:
        matrix = scipy.io.mmread(_io.BytesIO(data))
    except ValueError as exc:
        raise ValueError(f"malformed Matrix Market body: {exc}") from exc
    return matrix.astype(np.float64, copy=False), entries


def write_matrix_market(
    path: str | Path | _io.TextIOBase,
    matrix: sp.spmatrix,
    symmetric: bool = True,
    comment: str | None = None,
) -> None:
    """Write a sparse matrix in Matrix Market coordinate format.

    Values are written as ``real`` in the shortest form that reads back
    bit for bit.  With ``symmetric`` only the lower triangle (diagonal
    included) is written, under a ``symmetric`` banner.  Each line of
    ``comment`` becomes a ``% <line>`` comment line.
    """
    with get_tracer().span("io.write_matrix_market", category="io") as span:
        coo = matrix.tocoo()
        entries = int(np.count_nonzero(coo.row >= coo.col)) if symmetric else coo.nnz
        options = {
            "comment": "\n".join(f" {line}" for line in (comment or "").splitlines()),
            "field": "real",
            "symmetry": "symmetric" if symmetric else "general",
        }
        if isinstance(path, (str, Path)):
            with open(path, "wb") as handle:
                scipy.io.mmwrite(handle, coo, **options)
        else:
            # SciPy writes bytes only; a text handle gets the decoded file.
            buffer = _io.BytesIO()
            scipy.io.mmwrite(buffer, coo, **options)
            path.write(buffer.getvalue().decode("utf-8"))
        span.annotate(entries=entries)


def load_graph_matrix_market(path: str | Path) -> Graph:
    """Read a Matrix Market file and apply the paper's graph conversion.

    Any symmetric sparse matrix becomes a weighted graph via
    :func:`repro.graphs.laplacian.graph_from_matrix` (absolute values of
    strictly-lower-triangular entries; unit weights for pattern files).
    The conversion runs in its own ``io.graph_from_matrix`` span,
    annotated with the graph's edge count.
    """
    matrix = read_matrix_market(path)
    with get_tracer().span("io.graph_from_matrix", category="io") as span:
        graph = graph_from_matrix(matrix.tocsr())
        span.annotate(edges=graph.num_edges)
    return graph


def read_edge_list(path: str | Path, num_vertices: int | None = None) -> Graph:
    """Read a whitespace ``u v [w]`` edge list (0-based labels).

    When ``num_vertices`` is omitted, a ``# vertices N ...`` header
    comment (the form :func:`write_edge_list` emits) fixes the vertex
    count; otherwise it falls back to ``max label + 1``.  The header
    keeps trailing isolated vertices — which no edge line can mention —
    from being silently dropped on a round trip.

    Raises
    ------
    ValueError
        On a line with fewer than two fields or a field that is not a
        number.
    """
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    header_vertices: int | None = None
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if (
                    header_vertices is None
                    and len(parts) >= 2
                    and parts[0] == "vertices"
                    and parts[1].isdigit()
                ):
                    header_vertices = int(parts[1])
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(
                    f"edge list line {number}: expected 'u v [w]', got {line!r}"
                )
            us.append(int(parts[0]))
            vs.append(int(parts[1]))
            ws.append(float(parts[2]) if len(parts) > 2 else 1.0)
    if num_vertices is None:
        num_vertices = header_vertices
    if num_vertices is None:
        num_vertices = (max(max(us, default=-1), max(vs, default=-1)) + 1) or 1
    return Graph(num_vertices, np.array(us), np.array(vs), np.array(ws))


def write_edge_list(path: str | Path, graph: Graph) -> None:
    """Write the canonical edge list as ``u v w`` lines."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# vertices {graph.n} edges {graph.num_edges}\n")
        for u, v, w in zip(graph.u, graph.v, graph.w):
            handle.write(f"{u} {v} {float(w)!r}\n")


def save_graph_npz(path: str | Path, graph: Graph) -> None:
    """Save a graph as a compressed NumPy archive."""
    np.savez_compressed(
        path, n=np.int64(graph.n), u=graph.u, v=graph.v, w=graph.w
    )


def load_graph_npz(path: str | Path) -> Graph:
    """Load a graph saved by :func:`save_graph_npz`."""
    with np.load(path) as data:
        return Graph(int(data["n"]), data["u"], data["v"], data["w"])
