"""Configuration dataclasses for the entire simulation study.

All knobs of the paper's Section VI (simulation environment) live here as
frozen dataclasses with the paper's values as defaults.  A single
:class:`SimulationConfig` aggregates the sub-configurations and is the only
object the high-level APIs (:mod:`repro.experiments`, :mod:`repro.sim`)
need.

Defaults marked "paper" reproduce the published setup; the remaining
defaults pin down details the paper leaves open (each such decision is
documented in ``DESIGN.md`` §4).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

__all__ = [
    "IdlePowerMode",
    "LambdaMode",
    "GridConfig",
    "ClusterConfig",
    "WorkloadConfig",
    "EnergyConfig",
    "FilterConfig",
    "SimulationConfig",
]


class IdlePowerMode(enum.Enum):
    """How idle cores are charged against the energy budget.

    ``P4_FLOOR`` (default, the paper's model)
        Idle cores park in the deepest P-state and draw its power.  The
        paper's cores "cannot be turned off" and Eq. 1 integrates power
        over *every* interval between P-state transitions — idle included;
        only shared node components (disks, fans) are excluded as a
        constant.  The idle floor is what drains the budget of heuristics
        that dawdle, and it is invisible to the heuristics' running
        energy estimate (which only subtracts per-assignment EEC,
        Section V-F) — exactly the paper's optimistic estimator.

    ``EXCLUDED``
        Idle intervals draw no budgeted energy (the idle floor is folded
        into the excluded constant).  Provided for the ablation bench
        ``bench_ablation_idle_power``.
    """

    P4_FLOOR = "p4_floor"
    EXCLUDED = "excluded"


class LambdaMode(enum.Enum):
    """How the arrival-rate triple (eq, fast, slow) is obtained.

    ``DERIVED``
        Compute the equilibrium rate from the generated system as
        ``total_cores / t_avg`` and apply the paper's fast/slow ratios.
        This adapts to the randomly generated cluster of each trial suite
        exactly as the paper calibrated its own rates to its system.

    ``PAPER``
        Use the paper's absolute values (1/28, 1/8, 1/48).
    """

    DERIVED = "derived"
    PAPER = "paper"


@dataclass(frozen=True)
class GridConfig:
    """Discretization of the time axis for probability mass functions.

    Attributes
    ----------
    dt:
        Bin width of the global pmf grid, in the paper's (unitless) time
        units; the mean task execution time is 750, so the default of 15
        gives ~50+ bins across a typical distribution.
    tail_sigmas:
        Continuous distributions are truncated at ``mean ± tail_sigmas *
        std`` before discretization.
    """

    dt: float = 15.0
    tail_sigmas: float = 4.0

    def __post_init__(self) -> None:
        # ``not isfinite or <= 0``: NaN compares False both ways, and a
        # scenario file can spell ``nan``/``inf`` (TOML literals).
        if not math.isfinite(self.dt) or self.dt <= 0.0:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not math.isfinite(self.tail_sigmas) or self.tail_sigmas <= 0.0:
            raise ValueError(
                f"tail_sigmas must be positive and finite, got {self.tail_sigmas}"
            )


@dataclass(frozen=True)
class ClusterConfig:
    """Random-cluster generation parameters (paper Sections III-A and VI)."""

    #: Number of heterogeneous compute nodes (paper: N = 8).
    num_nodes: int = 8
    #: Multicore processors per node are drawn uniformly in this range.
    min_processors: int = 1
    max_processors: int = 4
    #: Cores per multicore processor are drawn uniformly in this range.
    min_cores: int = 1
    max_cores: int = 4
    #: Number of ACPI P-states available on every core (paper: 5).
    num_pstates: int = 5
    #: Each P-state step improves performance by U(15%, 25%) (paper §VI).
    perf_step_low: float = 1.15
    perf_step_high: float = 1.25
    #: Minimum operating frequency as a fraction of the maximum (paper: 42%).
    min_speed_ratio: float = 0.42
    #: Power of the highest P-state is drawn from U(125, 135) watts.
    p0_power_low: float = 125.0
    p0_power_high: float = 135.0
    #: Low P-state core voltage drawn from U(1.000, 1.150) volts.
    v_low_min: float = 1.000
    v_low_max: float = 1.150
    #: High P-state core voltage drawn from U(1.400, 1.550) volts.
    v_high_min: float = 1.400
    v_high_max: float = 1.550
    #: Power-supply efficiency per node drawn from U(0.90, 0.98).
    efficiency_min: float = 0.90
    efficiency_max: float = 0.98

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if not (1 <= self.min_processors <= self.max_processors):
            raise ValueError("invalid processor count range")
        if not (1 <= self.min_cores <= self.max_cores):
            raise ValueError("invalid core count range")
        if self.num_pstates < 2:
            raise ValueError("need at least two P-states for DVFS")
        if not (1.0 < self.perf_step_low <= self.perf_step_high):
            raise ValueError("performance steps must exceed 1.0 and be ordered")
        if not (0.0 < self.min_speed_ratio < 1.0):
            raise ValueError("min_speed_ratio must be in (0, 1)")
        if not (0.0 < self.efficiency_min <= self.efficiency_max <= 1.0):
            raise ValueError("efficiency range must lie in (0, 1]")


@dataclass(frozen=True)
class WorkloadConfig:
    """Workload generation parameters (paper Sections III-B and VI)."""

    #: Tasks per simulation trial (paper: 1,000).
    num_tasks: int = 1000
    #: Distinct task types; each task's type is uniform over these (paper: 100).
    num_task_types: int = 100
    #: CVB mean task execution time (paper: mu_task = 750).
    mu_task: float = 750.0
    #: CVB task coefficient of variation (paper: V_task = 0.25).
    v_task: float = 0.25
    #: CVB machine coefficient of variation (paper: V_mach = 0.25).
    v_mach: float = 0.25
    #: Coefficient of variation of each execution-time pmf around its CVB
    #: mean (paper: unspecified; see DESIGN.md §4.1).
    exec_cv: float = 0.20
    #: Tasks arriving in the early burst (paper: first 200 tasks).
    burst_head: int = 200
    #: Tasks arriving in the late burst (paper: last 200 tasks).
    burst_tail: int = 200
    #: How the arrival-rate triple is obtained.
    lambda_mode: LambdaMode = LambdaMode.DERIVED
    #: Paper's absolute equilibrium rate, used when ``lambda_mode`` is PAPER.
    lambda_eq_paper: float = 1.0 / 28.0
    #: Fast (burst) rate as a multiple of the equilibrium rate
    #: (paper: (1/8) / (1/28) = 3.5).
    fast_ratio: float = 3.5
    #: Slow (lull) rate as a multiple of the equilibrium rate
    #: (paper: (1/48) / (1/28) = 7/12).
    slow_ratio: float = 7.0 / 12.0
    #: Deadline load factor as a multiple of t_avg (paper: exactly t_avg).
    load_factor_mult: float = 1.0

    def __post_init__(self) -> None:
        if self.num_tasks < 1 or self.num_task_types < 1:
            raise ValueError("num_tasks and num_task_types must be >= 1")
        if self.burst_head + self.burst_tail > self.num_tasks:
            raise ValueError("bursts cannot exceed the total task count")
        for name in ("mu_task", "v_task", "v_mach", "exec_cv"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not (0.0 < self.slow_ratio < 1.0 < self.fast_ratio):
            raise ValueError("need slow_ratio < 1 < fast_ratio")

    @property
    def lull_tasks(self) -> int:
        """Number of tasks arriving between the two bursts."""
        return self.num_tasks - self.burst_head - self.burst_tail

    def with_num_tasks(self, num_tasks: int) -> "WorkloadConfig":
        """Scale the workload to ``num_tasks``, keeping burst proportions.

        Used by reduced-scale benches: the paper's 200/600/200 split
        becomes e.g. 80/240/80 for a 400-task run.
        """
        if num_tasks < 1:
            raise ValueError("num_tasks must be >= 1")
        ratio = num_tasks / self.num_tasks
        head = int(round(self.burst_head * ratio))
        tail = int(round(self.burst_tail * ratio))
        head = min(head, num_tasks)
        tail = min(tail, num_tasks - head)
        return replace(self, num_tasks=num_tasks, burst_head=head, burst_tail=tail)


@dataclass(frozen=True)
class EnergyConfig:
    """Energy budget and energy-filter parameters (paper Sections V-F, VI)."""

    #: Idle-power accounting mode (see :class:`IdlePowerMode`).
    idle_power_mode: IdlePowerMode = IdlePowerMode.P4_FLOOR
    #: Budget multiplier: zeta_max = budget_mult * t_avg * p_avg * num_tasks.
    #: The paper uses exactly 1.0 ("the energy required to execute an
    #: average task one thousand times").
    budget_mult: float = 1.0

    def __post_init__(self) -> None:
        if self.budget_mult <= 0.0:
            raise ValueError("budget_mult must be positive")


@dataclass(frozen=True)
class FilterConfig:
    """Thresholds of the two generic filters (paper Section V-F)."""

    #: zeta_mul below the low queue-depth threshold.
    zeta_mul_low: float = 0.8
    #: zeta_mul between the thresholds.
    zeta_mul_mid: float = 1.0
    #: zeta_mul above the high queue-depth threshold.
    zeta_mul_high: float = 1.2
    #: Average queue depth below which zeta_mul_low applies (paper: 0.8).
    depth_low: float = 0.8
    #: Average queue depth above which zeta_mul_high applies (paper: 1.2).
    depth_high: float = 1.2
    #: Robustness-filter probability threshold (paper: 0.5).
    rho_thresh: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 <= self.rho_thresh <= 1.0):
            raise ValueError("rho_thresh must be a probability")
        if self.depth_low > self.depth_high:
            raise ValueError("depth thresholds must be ordered")
        for name in ("zeta_mul_low", "zeta_mul_mid", "zeta_mul_high"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")

    def zeta_mul(self, avg_queue_depth: float) -> float:
        """Select the fair-share multiplier for the observed queue depth."""
        if avg_queue_depth < self.depth_low:
            return self.zeta_mul_low
        if avg_queue_depth <= self.depth_high:
            return self.zeta_mul_mid
        return self.zeta_mul_high


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level configuration aggregating every subsystem.

    Attributes
    ----------
    seed:
        Master seed for a trial; all internal streams derive from it via
        :mod:`repro.rng`.
    """

    seed: int = 0
    grid: GridConfig = field(default_factory=GridConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    filters: FilterConfig = field(default_factory=FilterConfig)

    def with_seed(self, seed: int) -> "SimulationConfig":
        """Return a copy of this configuration with a different seed."""
        return replace(self, seed=seed)

    def with_updates(self, **sections: Mapping[str, Any]) -> "SimulationConfig":
        """Return a copy with fields of named sections replaced.

        Examples
        --------
        >>> cfg = SimulationConfig().with_updates(workload={"num_tasks": 100})
        >>> cfg.workload.num_tasks
        100
        """
        updates: dict[str, Any] = {}
        for section, fields in sections.items():
            current = getattr(self, section)
            if section == "seed":
                raise ValueError("use with_seed() for the seed")
            updates[section] = replace(current, **dict(fields))
        return replace(self, **updates)
