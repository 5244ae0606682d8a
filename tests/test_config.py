"""Tests for configuration dataclasses (repro.config)."""

from __future__ import annotations

import math

import pytest

from repro.config import (
    ClusterConfig,
    EnergyConfig,
    FilterConfig,
    GridConfig,
    IdlePowerMode,
    LambdaMode,
    SimulationConfig,
    WorkloadConfig,
)


class TestGridConfig:
    def test_defaults_valid(self):
        cfg = GridConfig()
        assert cfg.dt > 0 and cfg.tail_sigmas > 0

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            GridConfig(dt=0.0)

    def test_rejects_nonpositive_tail(self):
        with pytest.raises(ValueError):
            GridConfig(tail_sigmas=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["dt", "tail_sigmas"])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            GridConfig(**{name: value})


class TestClusterConfig:
    def test_paper_defaults(self):
        cfg = ClusterConfig()
        assert cfg.num_nodes == 8
        assert cfg.num_pstates == 5
        assert cfg.min_speed_ratio == pytest.approx(0.42)
        assert (cfg.p0_power_low, cfg.p0_power_high) == (125.0, 135.0)
        assert (cfg.efficiency_min, cfg.efficiency_max) == (0.90, 0.98)

    def test_rejects_bad_processor_range(self):
        with pytest.raises(ValueError):
            ClusterConfig(min_processors=3, max_processors=2)

    def test_rejects_single_pstate(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_pstates=1)

    def test_rejects_perf_step_below_one(self):
        with pytest.raises(ValueError):
            ClusterConfig(perf_step_low=0.9)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            ClusterConfig(efficiency_min=0.0)


class TestWorkloadConfig:
    def test_paper_defaults(self):
        cfg = WorkloadConfig()
        assert cfg.num_tasks == 1000
        assert cfg.num_task_types == 100
        assert cfg.mu_task == 750.0
        assert cfg.v_task == cfg.v_mach == 0.25
        assert cfg.burst_head == cfg.burst_tail == 200
        assert cfg.lull_tasks == 600

    def test_paper_rate_ratios(self):
        cfg = WorkloadConfig()
        # lambda_fast / lambda_eq = (1/8) / (1/28); slow = (1/48) / (1/28).
        assert cfg.fast_ratio == pytest.approx(3.5)
        assert cfg.slow_ratio == pytest.approx((1 / 48) / (1 / 28))

    def test_rejects_oversized_bursts(self):
        with pytest.raises(ValueError):
            WorkloadConfig(num_tasks=300, burst_head=200, burst_tail=200)

    def test_with_num_tasks_scales_bursts(self):
        scaled = WorkloadConfig().with_num_tasks(500)
        assert scaled.num_tasks == 500
        assert scaled.burst_head == 100
        assert scaled.burst_tail == 100
        assert scaled.lull_tasks == 300

    def test_with_num_tasks_tiny(self):
        scaled = WorkloadConfig().with_num_tasks(3)
        assert scaled.num_tasks == 3
        assert scaled.burst_head + scaled.burst_tail <= 3

    def test_with_num_tasks_rejects_zero(self):
        with pytest.raises(ValueError):
            WorkloadConfig().with_num_tasks(0)

    def test_rejects_bad_ratios(self):
        with pytest.raises(ValueError):
            WorkloadConfig(fast_ratio=0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["mu_task", "v_task", "v_mach", "exec_cv"])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            WorkloadConfig(**{name: value})


class TestFilterConfig:
    def test_paper_defaults(self):
        cfg = FilterConfig()
        assert cfg.rho_thresh == 0.5
        assert (cfg.zeta_mul_low, cfg.zeta_mul_mid, cfg.zeta_mul_high) == (0.8, 1.0, 1.2)

    def test_zeta_mul_low_depth(self):
        assert FilterConfig().zeta_mul(0.3) == 0.8

    def test_zeta_mul_boundary_low(self):
        # Depth exactly 0.8 falls in the middle band (paper: "0.8 to 1.0").
        assert FilterConfig().zeta_mul(0.8) == 1.0

    def test_zeta_mul_mid_band(self):
        assert FilterConfig().zeta_mul(1.1) == 1.0

    def test_zeta_mul_high_depth(self):
        assert FilterConfig().zeta_mul(2.5) == 1.2

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            FilterConfig(rho_thresh=1.5)

    def test_rejects_unordered_depths(self):
        with pytest.raises(ValueError):
            FilterConfig(depth_low=2.0, depth_high=1.0)


class TestEnergyConfig:
    def test_default_is_p4_floor(self):
        assert EnergyConfig().idle_power_mode is IdlePowerMode.P4_FLOOR

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            EnergyConfig(budget_mult=0.0)


class TestSimulationConfig:
    def test_with_seed(self):
        cfg = SimulationConfig(seed=1).with_seed(9)
        assert cfg.seed == 9

    def test_with_updates_replaces_section_fields(self):
        cfg = SimulationConfig().with_updates(workload={"num_tasks": 700, "burst_head": 100})
        assert cfg.workload.num_tasks == 700
        assert cfg.workload.burst_head == 100
        # untouched fields keep defaults
        assert cfg.workload.mu_task == 750.0

    def test_with_updates_rejects_seed(self):
        with pytest.raises(ValueError):
            SimulationConfig().with_updates(seed={"x": 1})

    def test_with_updates_unknown_field_raises(self):
        with pytest.raises(TypeError):
            SimulationConfig().with_updates(workload={"nope": 1})

    def test_frozen(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            SimulationConfig().seed = 5  # type: ignore[misc]

    def test_lambda_mode_enum(self):
        assert WorkloadConfig().lambda_mode is LambdaMode.DERIVED
