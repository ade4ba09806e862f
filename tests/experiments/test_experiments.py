"""Smoke tests for every experiment regenerator (tiny scale)."""

import numpy as np
import pytest

from repro.experiments import common
from repro.experiments import (
    ablations,
    figure1,
    figure2,
    table1,
    table2,
    table3,
    table4,
)


@pytest.fixture(autouse=True)
def isolate_results(tmp_path, monkeypatch):
    """Route CSV artifacts into the test's temp directory."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    return tmp_path


class TestCommon:
    def test_env_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert common.env_scale() == 1.0

    def test_env_scale_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.5")
        assert common.env_scale() == 2.5

    def test_env_scale_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "abc")
        with pytest.raises(ValueError, match="REPRO_SCALE"):
            common.env_scale()

    def test_env_scale_negative(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ValueError, match="positive"):
            common.env_scale()

    def test_scaled_size_minimum(self):
        assert common.scaled_size(100, 0.001, minimum=16) == 16

    def test_write_csv(self, isolate_results):
        path = common.write_csv("x.csv", ["a", "b"], [[1, 2], [3, 4]])
        assert path.exists()
        assert path.read_text().startswith("a,b")


class TestTable1:
    def test_rows_and_error_bounds(self):
        rows = table1.run(scale=0.25, seed=0)
        assert len(rows) == 5
        for row in rows:
            assert len(row) == len(table1.HEADERS)
            lmin_exact, lmin_est = float(row[2]), float(row[3])
            lmax_exact, lmax_est = float(row[5]), float(row[6])
            # One-sided estimator properties (paper Section 3.6).
            assert lmin_est >= lmin_exact - 1e-6
            assert lmax_est <= lmax_exact * 1.001
            # Errors in the paper's ballpark (few percent to ~15%).
            assert abs(lmin_est - lmin_exact) / lmin_exact < 0.35
            assert abs(lmax_est - lmax_exact) / lmax_exact < 0.35


class TestTable2:
    def test_rows_and_iteration_ordering(self):
        rows = table2.run(scale=0.2, seed=0)
        assert len(rows) == 5
        for row in rows:
            assert len(row) == len(table2.HEADERS)
            d50, n50 = float(row[4]), int(row[5])
            d200, n200 = float(row[7]), int(row[8])
            assert n50 <= n200  # Table 2's headline ordering
            assert d50 >= d200 * 0.98
            assert n50 < 200


class TestTable3:
    def test_rows_and_quality(self):
        rows = table3.run(scale=0.2, seed=0)
        assert len(rows) == 8
        for row in rows:
            assert len(row) == len(table3.HEADERS)
            balance = float(row[3])
            memory_direct = float(row[5])
            memory_iterative = float(row[7])
            rel_err = float(row[8])
            assert 0.5 <= balance <= 2.0
            assert memory_iterative < memory_direct  # the paper's M_I << M_D
            assert rel_err <= 0.10


class TestTable4:
    def test_rows_and_reductions(self):
        rows = table4.run(scale=0.12, seed=0, time_eigensolves=False)
        assert len(rows) == 5
        for row in rows:
            assert len(row) == len(table4.HEADERS)
            reduction = float(row[5].rstrip("x"))
            lam_ratio = float(row[6].rstrip("x").replace(",", ""))
            assert reduction > 1.0
            assert lam_ratio >= 1.0
        # The dense random case must show a large reduction.
        dense_row = [r for r in rows if r[1] == "appu"][0]
        assert float(dense_row[5].rstrip("x")) > 5.0


class TestFigure1:
    def test_alignment_metrics(self, isolate_results):
        output = figure1.run(scale=0.15, seed=0)
        assert output["coords_original"].shape == output["coords_sparsifier"].shape
        err = float(output["row"][5])
        assert err < 1.0
        assert (isolate_results / "figure1_original.csv").exists()
        assert (isolate_results / "figure1_sparsifier.csv").exists()


class TestFigure2:
    def test_series_and_thresholds(self, isolate_results):
        output = figure2.run(scale=0.3, seed=0)
        assert len(output["rows"]) == 2
        for name, data in output["series"].items():
            norm = data["sorted_normalized_heats"]
            assert norm[0] == pytest.approx(1.0)
            assert np.all(np.diff(norm) <= 1e-15)  # descending
            th = data["thresholds"]
            assert th[500.0] > th[100.0]  # larger sigma2 -> higher threshold
        assert (isolate_results / "figure2_circuit_grid.csv").exists()


class TestAblations:
    def test_sweeps_present(self):
        rows = ablations.run(scale=0.5, seed=0)
        sweeps = {row[0] for row in rows}
        assert sweeps == {"tree", "t", "r", "similarity", "baseline", "rescale"}
        # The similarity-aware pipeline must beat uniform at equal budget.
        by_setting = {(r[0], r[1]): r for r in rows}
        kappa_sa = float(by_setting[("baseline", "similarity_aware")][3])
        kappa_uniform = float(by_setting[("baseline", "uniform")][3])
        assert kappa_sa < kappa_uniform
        # Global rescaling improves the two-sided Eq. 2 sigma.
        sigma_off = float(by_setting[("rescale", "off (sigma Eq.2)")][4])
        sigma_global = float(by_setting[("rescale", "global (sigma Eq.2)")][4])
        assert sigma_global < sigma_off
