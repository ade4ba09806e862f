"""Unit tests for graph and Matrix Market I/O."""

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.graphs import Graph, generators
from repro.graphs.io import (
    MAX_DIMENSION,
    load_graph_npz,
    load_graph_matrix_market,
    read_edge_list,
    read_matrix_market,
    save_graph_npz,
    write_edge_list,
    write_matrix_market,
)
from repro.obs import Tracer, observed


class TestMatrixMarket:
    def test_symmetric_roundtrip(self, grid_weighted, tmp_path):
        path = tmp_path / "grid.mtx"
        write_matrix_market(path, grid_weighted.adjacency(), symmetric=True)
        back = read_matrix_market(path)
        assert np.allclose(
            back.toarray(), grid_weighted.adjacency().toarray()
        )

    def test_general_roundtrip(self, tmp_path):
        matrix = sp.random(6, 6, density=0.4, random_state=0).tocsr()
        path = tmp_path / "general.mtx"
        write_matrix_market(path, matrix, symmetric=False)
        assert np.allclose(read_matrix_market(path).toarray(), matrix.toarray())

    def test_pattern_file_gets_unit_weights(self):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 1\n"
        matrix = read_matrix_market(io.StringIO(text))
        assert matrix.nnz == 4  # symmetric expansion
        assert np.all(matrix.tocoo().data == 1.0)

    def test_comment_lines_skipped(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n% another\n2 2 1\n1 2 3.5\n"
        )
        matrix = read_matrix_market(io.StringIO(text))
        assert matrix.toarray()[0, 1] == pytest.approx(3.5)

    def test_skew_symmetric_expansion(self):
        text = "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 4.0\n"
        matrix = read_matrix_market(io.StringIO(text)).toarray()
        assert matrix[1, 0] == pytest.approx(4.0)
        assert matrix[0, 1] == pytest.approx(-4.0)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="MatrixMarket"):
            read_matrix_market(io.StringIO("garbage\n"))

    def test_array_layout_rejected(self):
        text = "%%MatrixMarket matrix array real general\n2 2\n"
        with pytest.raises(ValueError, match="coordinate"):
            read_matrix_market(io.StringIO(text))

    def test_complex_field_rejected(self):
        text = "%%MatrixMarket matrix coordinate complex general\n1 1 0\n"
        with pytest.raises(ValueError, match="field"):
            read_matrix_market(io.StringIO(text))

    def test_comment_written(self, tmp_path, triangle):
        path = tmp_path / "c.mtx"
        write_matrix_market(path, triangle.adjacency(), comment="hello\nworld")
        content = path.read_text()
        assert "% hello" in content and "% world" in content

    def test_load_graph_applies_paper_rule(self, tmp_path, grid_weighted):
        # Write the Laplacian; loading should recover the graph via the
        # absolute-value-of-lower-triangle rule.
        path = tmp_path / "lap.mtx"
        write_matrix_market(path, grid_weighted.laplacian(), symmetric=True)
        g = load_graph_matrix_market(path)
        assert g == grid_weighted


class TestEdgeList:
    def test_roundtrip(self, tmp_path, grid_weighted):
        path = tmp_path / "edges.txt"
        write_edge_list(path, grid_weighted)
        back = read_edge_list(path)
        assert back == grid_weighted

    def test_unweighted_lines_default_to_one(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 2\n")
        g = read_edge_list(path)
        assert np.all(g.w == 1.0)

    def test_explicit_vertex_count(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n")
        g = read_edge_list(path, num_vertices=5)
        assert g.n == 5


class TestAdversarialMatrixMarket:
    """Round-trips on the awkward corners of the format."""

    def test_pattern_symmetric_with_comments(self):
        """Comment lines between the header and the dims line, pattern
        field, symmetric storage — all at once."""
        text = (
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "% SuiteSparse-style provenance comment\n"
            "% another comment line\n"
            "4 4 3\n"
            "2 1\n"
            "3 2\n"
            "4 3\n"
        )
        m = read_matrix_market(io.StringIO(text))
        dense = m.toarray()
        assert np.array_equal(dense, dense.T)
        assert dense[1, 0] == 1.0 and dense[0, 1] == 1.0
        g = Graph.from_sparse(m.tocsr())
        assert g.num_edges == 3
        assert np.all(g.w == 1.0)

    def test_symmetric_diagonal_not_duplicated(self):
        """Diagonal entries of a symmetric file must not be doubled."""
        text = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n"
            "1 1 5.0\n"
            "2 1 -1.0\n"
        )
        m = read_matrix_market(io.StringIO(text)).toarray()
        assert m[0, 0] == 5.0
        assert m[0, 1] == m[1, 0] == -1.0

    def test_write_read_preserves_exact_weights(self, tmp_path):
        """repr-based writing keeps every float64 bit-exact."""
        g = generators.grid2d(5, 5, weights="lognormal", seed=13)
        path = tmp_path / "exact.mtx"
        write_matrix_market(path, g.adjacency(), symmetric=True)
        back = Graph.from_sparse(read_matrix_market(path).tocsr())
        assert np.array_equal(back.w, g.w)


def _mtx(body: str, banner: str = "real general") -> io.StringIO:
    return io.StringIO(f"%%MatrixMarket matrix coordinate {banner}\n{body}")


class TestMalformedMatrixMarket:
    """Every malformed file is a ValueError, raised before anything the
    size line declares is allocated."""

    @pytest.mark.parametrize("body, banner, match", [
        ("5 5 5\n2 1 1.0\n3 1 2.0\n", "real symmetric", "bytes follow"),
        ("5 5 3\n2 1 1.0\n3 1 2.0\n", "real symmetric", "Truncated"),
        ("3 3 1\n2 1 1.0\n3 1 2.0\n", "real general", "Too many lines"),
        ("3 3 1\n0 1 1.0\n", "real general", "out of bounds"),
        ("3 3 1\n4 1 1.0\n", "real general", "out of bounds"),
        ("3 3 1\n2 4 1.0\n", "real general", "out of bounds"),
        ("3 3 1\n2 1\n", "real general", "floating-point"),
        ("3 3 1\n2 1 abc\n", "real general", "floating-point"),
        ("3 3 1\nx 1 1.0\n", "real general", "integer"),
        ("3 3\n2 1 1.0\n", "real general", "size line"),
        ("3 3 one\n2 1 1.0\n", "real general", "size line"),
        ("", "real general", "size line"),
        ("-3 3 1\n2 1 1.0\n", "real general", "must lie in"),
    ], ids=["five-declared-two-present", "truncated", "too-long",
            "zero-index", "row-out-of-range", "col-out-of-range",
            "missing-value", "non-numeric-value", "non-numeric-index",
            "short-size-line", "non-numeric-size", "no-size-line",
            "negative-dimension"])
    def test_refused(self, body, banner, match):
        with pytest.raises(ValueError, match=match):
            read_matrix_market(_mtx(body, banner))

    @pytest.mark.parametrize("token", ["1.5abc", "0x10", "1_0"])
    def test_value_with_trailing_characters_refused(self, token):
        """SciPy's reader alone reads these as 1.5, 0.0 and 1.0."""
        with pytest.raises(ValueError, match=r"byte b'[a-z_]' is not part"):
            read_matrix_market(_mtx(f"2 2 1\n2 1 {token}\n"))

    @pytest.mark.parametrize("end", [" ", "\t", "\r", "\x00"])
    def test_last_line_without_newline_reads_in_a_child(self, end):
        """SciPy's reader crashes the interpreter on these files; the
        child process keeps such a regression from taking the suite
        down."""
        code = (
            "import sys\n"
            "from repro.graphs.io import read_matrix_market\n"
            "try:\n"
            "    print(read_matrix_market(sys.stdin).data.tolist())\n"
            "except ValueError:\n"
            "    print('refused')\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        child = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            input=_mtx("2 2 1\n2 1 1.5" + end).read(), timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert child.returncode == 0, child.stderr
        expected = "refused" if end == "\x00" else "[1.5]"
        assert child.stdout.strip() == expected

    def test_huge_entry_count_refused_before_allocation(self):
        """4e9 declared entries would need ~30 GiB of index arrays."""
        with pytest.raises(ValueError, match="bytes follow"):
            read_matrix_market(_mtx("3 3 4000000000\n2 1 1.0\n"))

    def test_entry_count_bound_is_tight(self, tmp_path):
        """Two ``1 1`` lines (the last without its newline) fit 7 bytes;
        a third declared entry does not."""
        path = tmp_path / "tight.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n"
                        "2 2 2\n1 1\n2 2")
        assert read_matrix_market(path).nnz == 2
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n"
                        "2 2 3\n1 1\n2 2")
        with pytest.raises(ValueError, match="3 entries, but only 7 bytes"):
            read_matrix_market(path)

    def test_huge_dimension_refused(self, tmp_path):
        """1e12 rows would make ``tocsr`` allocate terabytes."""
        path = tmp_path / "wide.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "1000000000000 3 1\n2 1 1.0\n")
        with pytest.raises(ValueError, match="must lie in"):
            load_graph_matrix_market(path)

    def test_largest_dimension_accepted(self):
        text = f"{MAX_DIMENSION} {MAX_DIMENSION} 1\n2 1 1.5\n"
        assert read_matrix_market(_mtx(text)).shape == (MAX_DIMENSION,) * 2
        with pytest.raises(ValueError, match="must lie in"):
            read_matrix_market(_mtx(f"{MAX_DIMENSION + 1} 3 1\n2 1 1.5\n"))

    def test_hermitian_symmetry_rejected(self):
        with pytest.raises(ValueError, match="unsupported symmetry 'hermitian'"):
            read_matrix_market(_mtx("1 1 0\n", "real hermitian"))


class TestExactRoundTrip:
    @pytest.mark.parametrize("make", [
        lambda: generators.grid2d(24, 24, weights="uniform", seed=3),
        lambda: generators.grid2d(24, 24, weights="lognormal", seed=3),
        lambda: generators.barabasi_albert(1500, attach=4, seed=3),
    ], ids=["uniform-grid", "lognormal-grid", "ba-1500"])
    def test_graph_bits_survive(self, tmp_path, make):
        g = make()
        path = tmp_path / "g.mtx"
        write_matrix_market(path, g.adjacency(), symmetric=True)
        back = load_graph_matrix_market(path)
        assert back.n == g.n
        assert np.array_equal(back.u, g.u) and np.array_equal(back.v, g.v)
        assert np.array_equal(back.w.view(np.int64), g.w.view(np.int64))

    def test_repr_format_fixture_reads_back_same_bits(self):
        """Files in the ``repr`` float format the per-line writer used,
        with a subnormal, extremes and a value that needs 17 digits."""
        tokens = ["5e-324", "1e-300", "2.2250738585072014e-308",
                  "1.7976931348623157e+308", "0.30000000000000004",
                  "0.1", "-2.5", "3.0"]
        lines = "".join(f"{k + 1} {k + 1} {t}\n" for k, t in enumerate(tokens))
        n = len(tokens)
        matrix = read_matrix_market(_mtx(f"{n} {n} {n}\n{lines}"))
        expected = np.array([float(t) for t in tokens])
        assert matrix.data.dtype == np.float64
        assert np.array_equal(matrix.data.view(np.int64), expected.view(np.int64))

    def test_integer_field_reads_as_float64(self):
        matrix = read_matrix_market(_mtx("2 2 1\n2 1 7\n", "integer general"))
        assert matrix.data.dtype == np.float64
        assert matrix.toarray()[1, 0] == 7.0

    def test_symmetric_write_keeps_lower_triangle(self, grid_weighted):
        out = io.StringIO()
        write_matrix_market(out, grid_weighted.adjacency(), symmetric=True,
                            comment="grid")
        lines = out.getvalue().splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate real symmetric"
        assert lines[1] == "% grid"
        entries = [line.split() for line in lines[3:]]
        assert len(entries) == int(lines[2].split()[2]) == grid_weighted.num_edges
        assert all(int(r) > int(c) for r, c, _ in entries)
        back = read_matrix_market(io.StringIO(out.getvalue()))
        assert (back != grid_weighted.adjacency()).nnz == 0


class TestIoSpans:
    def test_read_and_write_each_open_one_span(self, tmp_path, grid_weighted):
        tracer = Tracer()
        path = tmp_path / "g.mtx"
        with observed(tracer=tracer):
            write_matrix_market(path, grid_weighted.adjacency(), symmetric=True)
            load_graph_matrix_market(path)
        records = tracer.records(category="io")
        spans = {r.name: r for r in records}
        assert len(records) == len(spans) == 3
        assert set(spans) == {"io.write_matrix_market", "io.read_matrix_market",
                              "io.graph_from_matrix"}
        edges = grid_weighted.num_edges
        assert spans["io.write_matrix_market"].args["entries"] == edges
        assert spans["io.read_matrix_market"].args["entries"] == edges
        assert spans["io.graph_from_matrix"].args["edges"] == edges


class TestEdgeListRefusals:
    @pytest.mark.parametrize("text", ["0\n", "0 1\n2\n"])
    def test_short_line_refused(self, tmp_path, text):
        path = tmp_path / "edges.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match="expected 'u v"):
            read_edge_list(path)


class TestEdgeListIsolatedVertices:
    def test_roundtrip_keeps_trailing_isolated_vertices(self, tmp_path):
        """Vertices 3 and 4 have no edges; the header must keep them."""
        g = Graph(5, [0, 1], [1, 2], [2.0, 3.0])
        path = tmp_path / "iso.txt"
        write_edge_list(path, g)
        back = read_edge_list(path)
        assert back.n == 5
        assert back == g

    def test_explicit_count_overrides_header(self, tmp_path):
        g = Graph(5, [0], [1], [1.0])
        path = tmp_path / "iso.txt"
        write_edge_list(path, g)
        assert read_edge_list(path, num_vertices=7).n == 7

    def test_headerless_file_still_infers_from_labels(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("# free-form comment\n0 3\n")
        assert read_edge_list(path).n == 4


class TestNpz:
    def test_roundtrip(self, tmp_path):
        g = generators.fem_mesh_2d(120, seed=3)
        path = tmp_path / "graph.npz"
        save_graph_npz(path, g)
        assert load_graph_npz(path) == g

    def test_roundtrip_preserves_dtypes_and_bits(self, tmp_path):
        g = generators.grid2d(6, 6, weights="lognormal", seed=1)
        path = tmp_path / "graph.npz"
        save_graph_npz(path, g)
        back = load_graph_npz(path)
        assert back.u.dtype == np.int64 and back.v.dtype == np.int64
        assert back.w.dtype == np.float64
        assert np.array_equal(back.w, g.w)  # bit-exact, not approx
        assert isinstance(back.n, int)

    def test_isolated_vertices_survive(self, tmp_path):
        g = Graph(6, [0], [1], [0.5])
        path = tmp_path / "iso.npz"
        save_graph_npz(path, g)
        assert load_graph_npz(path).n == 6
