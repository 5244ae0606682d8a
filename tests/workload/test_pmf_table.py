"""Tests for the execution-time pmf table (repro.workload.pmf_table)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.generator import generate_cluster
from repro.config import ClusterConfig, GridConfig
from repro.sim.system import build_trial_system
from repro.stoch.pmf import PMF
from repro.workload.etc_matrix import ETCMatrix
from repro.workload.pmf_table import ExecutionTimeTable
from tests.conftest import micro_config
from tests.stoch import reference

_CLUSTER = generate_cluster(ClusterConfig(num_nodes=2), np.random.default_rng(3))


@pytest.fixture(scope="module")
def table():
    cluster = generate_cluster(ClusterConfig(num_nodes=3), np.random.default_rng(0))
    etc = ETCMatrix(
        np.random.default_rng(1).uniform(400.0, 1100.0, size=(6, cluster.num_nodes))
    )
    return ExecutionTimeTable(etc, cluster, GridConfig(dt=10.0), exec_cv=0.2)


class TestConstruction:
    def test_rejects_width_mismatch(self):
        cluster = generate_cluster(ClusterConfig(num_nodes=3), np.random.default_rng(0))
        etc = ETCMatrix(np.ones((4, 2)))
        with pytest.raises(ValueError):
            ExecutionTimeTable(etc, cluster, GridConfig(), exec_cv=0.2)

    def test_rejects_bad_cv(self):
        cluster = generate_cluster(ClusterConfig(num_nodes=2), np.random.default_rng(0))
        etc = ETCMatrix(np.ones((2, 2)) * 100)
        with pytest.raises(ValueError):
            ExecutionTimeTable(etc, cluster, GridConfig(), exec_cv=0.0)


def assert_cells_match_oracle(table):
    """Every cell, ``eet`` and ``eec`` entry equals the per-cell oracle bitwise."""
    grid = table.grid
    mult = table.cluster.exec_multiplier_table()
    energy = table.cluster.power_table() / table.cluster.efficiency_vector()[:, None]
    T, N, P = table.eet.shape
    for t in range(T):
        for n in range(N):
            for pi in range(P):
                ref = reference.gamma(
                    float(table.etc.means[t, n] * mult[n, pi]),
                    table.exec_cv,
                    grid.dt,
                    tail_sigmas=grid.tail_sigmas,
                )
                got = table.pmf(t, n, pi)
                assert got.start == ref.start and got.dt == ref.dt
                assert got.probs.tobytes() == ref.probs.tobytes()
                assert table.eet[t, n, pi] == ref.mean()
                assert table.eec[t, n, pi] == ref.mean() * energy[n, pi]


class TestBatchMatchesPerCell:
    def test_every_cell_equals_discretized_gamma_bitwise(self):
        """The one vectorized gamma pass reproduces the per-cell oracle."""
        assert_cells_match_oracle(build_trial_system(micro_config(seed=7)).table)

    def test_build_validates_no_cell(self, monkeypatch):
        """Cells come from the shared finalizer, never ``PMF.__init__``."""
        calls = []
        init = PMF.__init__

        def counting(self, *args, **kwargs):
            calls.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PMF, "__init__", counting)
        etc = ETCMatrix(np.full((4, _CLUSTER.num_nodes), 500.0))
        table = ExecutionTimeTable(etc, _CLUSTER, GridConfig(dt=10.0), exec_cv=0.2)
        assert len(table.pmf(3, 1, 0)) > 1
        assert calls == []

    @settings(max_examples=40)
    @given(
        means=st.lists(st.floats(0.05, 3000.0), min_size=1, max_size=6),
        exec_cv=st.floats(0.005, 1.5),
        dt=st.floats(0.25, 60.0),
        tail_sigmas=st.floats(0.05, 12.0),
    )
    def test_property_cells_match_oracle(self, means, exec_cv, dt, tail_sigmas):
        """Wide, narrow (single-bin), untrimmed and trimmed laws alike."""
        etc = ETCMatrix(np.outer(means, np.linspace(0.8, 1.2, _CLUSTER.num_nodes)))
        grid = GridConfig(dt=dt, tail_sigmas=tail_sigmas)
        assert_cells_match_oracle(ExecutionTimeTable(etc, _CLUSTER, grid, exec_cv))


class TestPMFs:
    def test_pmf_mean_matches_scaled_etc(self, table):
        etc = table.etc
        mult = table.cluster.exec_multiplier_table()
        for t in (0, 3):
            for n in range(table.cluster.num_nodes):
                for pi in (0, table.cluster.num_pstates - 1):
                    pmf = table.pmf(t, n, pi)
                    expected = etc.means[t, n] * mult[n, pi]
                    assert pmf.mean() == pytest.approx(expected, rel=0.02)

    def test_deeper_pstates_are_slower(self, table):
        for n in range(table.cluster.num_nodes):
            means = [table.pmf(0, n, pi).mean() for pi in range(table.cluster.num_pstates)]
            assert all(a < b for a, b in zip(means, means[1:]))

    def test_pmf_spread_matches_cv(self, table):
        pmf = table.pmf(1, 0, 0)
        assert pmf.std() / pmf.mean() == pytest.approx(0.2, rel=0.1)

    def test_all_pmfs_share_grid(self, table):
        dts = {
            table.pmf(t, n, pi).dt
            for t in range(2)
            for n in range(table.cluster.num_nodes)
            for pi in range(table.cluster.num_pstates)
        }
        assert dts == {10.0}


class TestExpectationTables:
    def test_eet_matches_pmf_means(self, table):
        for n in range(table.cluster.num_nodes):
            for pi in range(table.cluster.num_pstates):
                assert table.eet[2, n, pi] == pytest.approx(table.pmf(2, n, pi).mean())

    def test_eec_formula(self, table):
        # Section V-A: EEC = EET * mu(i, pi) / epsilon(i).
        power = table.cluster.power_table()
        eff = table.cluster.efficiency_vector()
        n, pi = 1, 2
        expected = table.eet[0, n, pi] * power[n, pi] / eff[n]
        assert table.eec[0, n, pi] == pytest.approx(expected)

    def test_eec_tradeoff_exists(self, table):
        # P0 is usually costlier than the deepest state (the whole point
        # of DVFS): more power but less time, power quadratic in voltage.
        eec = table.eec
        cheaper = np.mean(eec[:, :, -1] < eec[:, :, 0])
        assert cheaper > 0.8

    def test_tables_readonly(self, table):
        with pytest.raises(ValueError):
            table.eet[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            table.eec[0, 0, 0] = 1.0


class TestAggregates:
    def test_t_avg_is_mean_of_eet(self, table):
        assert table.t_avg() == pytest.approx(float(table.eet.mean()))

    def test_mean_exec_of_type(self, table):
        assert table.mean_exec_of_type(3) == pytest.approx(float(table.eet[3].mean()))

    def test_mean_exec_per_type_vector(self, table):
        vec = table.mean_exec_per_type()
        assert vec.shape == (table.etc.num_task_types,)
        assert vec[3] == pytest.approx(table.mean_exec_of_type(3))

    def test_t_avg_exceeds_base_mean(self, table):
        # Deeper P-states only slow tasks down, so averaging over
        # P-states inflates t_avg above the P0-only mean.
        assert table.t_avg() > table.etc.overall_mean()


class TestPaddedMatrices:
    def test_padding_preserves_mass(self, table):
        pad = table.padded(0, 1)
        assert np.allclose(pad.probs.sum(axis=1), 1.0)

    def test_rows_match_pmfs(self, table):
        pad = table.padded(2, 0)
        for pi in range(table.cluster.num_pstates):
            pmf = table.pmf(2, 0, pi)
            n = len(pmf)
            assert np.allclose(pad.probs[pi, :n], pmf.probs)
            assert np.allclose(pad.times[pi, :n], pmf.times)
            assert np.all(pad.probs[pi, n:] == 0.0)

    def test_matrices_readonly(self, table):
        pad = table.padded(0, 0)
        with pytest.raises(ValueError):
            pad.probs[0, 0] = 1.0
