"""Unit tests for timing, validation, table formatting and memory utils."""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.utils import (
    Timer,
    as_index_array,
    check_positive,
    check_probability,
    check_square,
    check_symmetric,
    check_vertex_count,
    factor_nbytes,
    format_si,
    format_table,
    sparse_nbytes,
    timed,
)


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.009

    def test_lap_without_stop(self):
        with Timer() as t:
            assert t.lap() >= 0.0

    def test_lap_before_start_rejected(self):
        t = Timer()
        with pytest.raises(RuntimeError, match="never started"):
            t.lap()

    def test_restart(self):
        with Timer() as t:
            time.sleep(0.01)
            t.restart()
        assert t.elapsed < 0.01

    def test_restart_clears_stale_elapsed(self):
        """Regression: lap-style reuse must not report the previous
        interval's elapsed after a restart."""
        t = Timer()
        with t:
            time.sleep(0.01)
        assert t.elapsed >= 0.009
        t.restart()
        assert t.elapsed == 0.0
        assert t.lap() >= 0.0

    def test_timed_decorator(self):
        @timed
        def add(a, b):
            return a + b

        result, elapsed = add(2, 3)
        assert result == 5
        assert elapsed >= 0.0


class TestValidation:
    def test_check_positive_ok(self):
        assert check_positive(2.5, "x") == 2.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_check_positive_rejects(self, bad):
        with pytest.raises(ValueError, match="x"):
            check_positive(bad, "x")

    def test_check_probability(self):
        assert check_probability(0.5, "p") == 0.5
        with pytest.raises(ValueError):
            check_probability(1.5, "p")

    def test_check_vertex_count(self):
        assert check_vertex_count(3) == 3
        with pytest.raises(ValueError):
            check_vertex_count(0)
        with pytest.raises(ValueError):
            check_vertex_count(2.5)

    def test_check_vertex_count_refuses_booleans_and_names_the_field(self):
        assert check_vertex_count(3.0, name="dim") == 3
        for bad in (True, np.True_, "3"):
            with pytest.raises(ValueError, match="dim"):
                check_vertex_count(bad, name="dim")

    def test_as_index_array_keeps_integers(self):
        out = as_index_array([[0, 3.0], [2, 7]], "labels")
        assert out.dtype == np.int64 and out.tolist() == [[0, 3], [2, 7]]
        arr = np.arange(4, dtype=np.int64)
        assert as_index_array(arr, "labels") is arr

    @pytest.mark.parametrize(
        "bad", [[0, 1.5], [True], [0, True], [float("inf")], [None], ["1"]],
    )
    def test_as_index_array_refuses_a_changing_cast(self, bad):
        with pytest.raises(ValueError, match="labels"):
            as_index_array(bad, "labels")

    @pytest.mark.parametrize("bad", [[10**30], [2**63], [1e30]])
    def test_as_index_array_refuses_past_int64(self, bad):
        with pytest.raises(OverflowError):
            as_index_array(bad, "labels")

    def test_check_square(self):
        check_square(np.eye(3))
        with pytest.raises(ValueError, match="square"):
            check_square(np.ones((2, 3)))

    def test_check_symmetric_dense(self):
        check_symmetric(np.eye(4))
        with pytest.raises(ValueError, match="symmetric"):
            check_symmetric(np.triu(np.ones((3, 3))))

    def test_check_symmetric_sparse(self):
        check_symmetric(sp.eye(4).tocsr())
        bad = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            check_symmetric(bad)


class TestFormatting:
    def test_format_si_paper_style(self):
        assert format_si(1_600_000) == "1.6E6"
        assert format_si(3_000) == "3E3"
        assert format_si(42) == "42"
        assert format_si(0) == "0"

    def test_format_si_negative(self):
        assert format_si(-2500) == "-2.5E3"

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2], [33, 4]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_format_table_wrong_row_length(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [[1]])


class TestMemory:
    def test_sparse_nbytes_positive(self, grid_small):
        assert sparse_nbytes(grid_small.laplacian()) > 0

    def test_sparse_nbytes_counts_arrays(self):
        m = sp.random(50, 50, density=0.1, random_state=0).tocsr()
        expected = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        assert sparse_nbytes(m) == expected

    def test_sparse_nbytes_rejects_dense(self):
        with pytest.raises(TypeError, match="sparse"):
            sparse_nbytes(np.eye(3))

    def test_factor_nbytes(self, grid_small):
        import scipy.sparse.linalg as spla

        from repro.graphs import ground_matrix

        lu = spla.splu(ground_matrix(grid_small.laplacian()).tocsc())
        assert factor_nbytes(lu) > 0

    def test_factor_nbytes_rejects_other(self):
        with pytest.raises(TypeError, match="L/U"):
            factor_nbytes(object())
