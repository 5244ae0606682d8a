"""On-demand candidate columns: computed at decision time, only when read.

``CandidateBuilder.build`` fills ``queue_len``, ``eet``, ``eec`` and
``mask`` up front and computes ``ect`` / ``prob_on_time`` the first time
something reads them.  These tests pin the three halves of that
contract:

* **decision time** — every ρ the engine records is the one the per-core
  oracle gives at the moment of the decision, also for orphans re-mapped
  after an outage and for an overloaded service run, and a column read
  after the commit raises;
* **work skipped** — SQ and Random do no pmf work at all, MECT without
  the robustness filter never enters the ρ stage;
* **read order** — whichever column is read first, and however often,
  the arrays equal the oracle's bitwise.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import api, build_trial_system
from repro import service as service_mod
from repro.faults import FaultEvent, FaultPolicy, FaultSchedule
from repro.filters.chain import build_filter_chain
from repro.heuristics.base import Heuristic
from repro.heuristics.registry import build_heuristic
from repro.service import ServiceConfig
from repro.sim.engine import Engine
from repro.sim.mapper import CandidateBuilder
from repro.sim.metrics import TraceCollector
from repro.sim.state import CoreState, QueuedTask, RunningTask
from repro.stoch.ops import set_op_observer
from tests.conftest import micro_config, tiny_config
from tests.perf.reference import build_candidate_set, reference_engine

#: One node down mid-burst: orphans running and queued work on the tiny
#: 3-node system and re-maps it through ``Engine._remap_orphan``.
OUTAGE = FaultSchedule((FaultEvent("node_outage", 0, 800.0, 3000.0),))


@pytest.fixture(scope="module")
def system():
    return build_trial_system(micro_config(seed=11))


@pytest.fixture(scope="module")
def queued_system():
    """One node, so every policy builds queues (and eager runs convolve)."""
    return build_trial_system(micro_config(seed=11, cluster={"num_nodes": 1}))


@pytest.fixture(scope="module")
def fault_system():
    return build_trial_system(tiny_config(seed=123))


class _Witness(Heuristic):
    """Wraps a heuristic; records the oracle's ρ for each decision.

    The oracle runs inside ``select``, i.e. after the filters and before
    the engine commits, on the engine's live cores.
    """

    def __init__(self, inner: Heuristic) -> None:
        self.inner = inner
        self.name = inner.name
        self.engine: Engine | None = None
        self.expected: list[float] = []
        self.decided: list = []

    def select(self, cands, ctx):
        index = self.inner.select(cands, ctx)
        engine = self.engine
        oracle = build_candidate_set(ctx.task, engine.cores, engine.system.table, ctx.t_now)
        self.expected.append(0.0 if index is None else float(oracle.prob_on_time[index]))
        self.decided.append((cands, index))
        return index


class _ServiceWitness(_Witness):
    """Also records the builder's ρ: a service engine keeps no collector."""

    def __init__(self, inner: Heuristic) -> None:
        super().__init__(inner)
        self.recorded: list[float] = []
        self.deepest = 0

    def select(self, cands, ctx):
        index = super().select(cands, ctx)
        self.recorded.append(0.0 if index is None else float(cands.prob_on_time[index]))
        self.deepest = max(self.deepest, int(cands.queue_len.max()))
        return index


def _witnessed_run(system, heuristic, variant, **engine_kwargs):
    witness = _Witness(build_heuristic(heuristic, np.random.default_rng(7)))
    collector = TraceCollector()
    engine = Engine(
        system, witness, build_filter_chain(variant), collector=collector, **engine_kwargs
    )
    witness.engine = engine
    engine.run()
    return engine, witness, collector


class TestDecisionTimeRho:
    @pytest.mark.parametrize("variant", ("none", "en"))
    @pytest.mark.parametrize("heuristic", ("SQ", "MECT", "LL", "Random"))
    def test_recorded_rho_is_the_oracle_at_decision(self, system, heuristic, variant):
        _, witness, collector = _witnessed_run(system, heuristic, variant)
        assert len(collector.chosen_probs) == len(witness.expected) == system.num_tasks
        assert collector.chosen_probs == witness.expected

    @pytest.mark.parametrize("heuristic", ("SQ", "Random", "LL"))
    def test_remapped_orphans_record_decision_time_rho(self, fault_system, heuristic):
        engine, witness, collector = _witnessed_run(
            fault_system,
            heuristic,
            "none",
            faults=OUTAGE,
            fault_policy=FaultPolicy(running="resume", remap=True),
        )
        assert engine.fault_stats.remapped > 0
        assert len(witness.expected) == fault_system.num_tasks + engine.fault_stats.orphaned
        assert collector.chosen_probs == witness.expected

    @pytest.mark.parametrize("heuristic", ("MECT", "LL"))
    def test_service_overload_records_decision_time_rho(self, queued_system, heuristic):
        # Poisson traffic at three times the equilibrium rate on one
        # node, drawing on a rolling budget: queues run deep, and the
        # ready CDFs outgrow the rows' first width.
        witnesses: list[_ServiceWitness] = []
        grown: list[int] = []
        reserve = CandidateBuilder._reserve

        def make(system, heuristic, *args, **kwargs):
            witness = _ServiceWitness(heuristic)
            witness.engine = Engine(system, witness, *args, **kwargs)
            witnesses.append(witness)
            return witness.engine

        def counted_reserve(builder, pad, size):
            if size and builder._pad:
                grown.append(size)
            reserve(builder, pad, size)

        service = ServiceConfig(traffic="poisson", rate_mult=3.0, task_limit=120)
        scenario = api.Scenario(heuristic, "en+rob", mode="service", service=service)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(service_mod, "Engine", make)
            mp.setattr(CandidateBuilder, "_reserve", counted_reserve)
            result = api.run_service(scenario, service, system=queued_system)
        (witness,) = witnesses
        assert len(witness.expected) == result.totals.mapped + result.totals.discarded
        assert witness.recorded == witness.expected
        assert witness.engine.rolling_budget is not None
        assert witness.deepest >= 3  # a running task and two queued behind it
        assert grown

    def test_columns_raise_after_commit(self, system):
        _, witness, _ = _witnessed_run(system, "SQ", "none")
        committed = [cands for cands, index in witness.decided if index is not None]
        assert committed
        for cands in committed:
            with pytest.raises(RuntimeError, match="committed"):
                cands.prob_on_time
            with pytest.raises(RuntimeError, match="committed"):
                cands.ect
            # The cheap columns are snapshots and stay readable.
            assert cands.queue_len.size == cands.eet.size == len(cands)

    def test_seal_covers_columns_already_read(self, system):
        cores = _busy_cores(system)
        task = system.workload.tasks[1]
        cands = CandidateBuilder(cores, system.table).build(task, task.arrival)
        cands.prob_on_time
        cands.seal()
        with pytest.raises(RuntimeError):
            cands.prob_on_time
        with pytest.raises(RuntimeError):
            cands.ect


class _Counting:
    """Counts ``CoreState.ready_pmf`` calls and stoch ops during a run."""

    def __init__(self, mp: pytest.MonkeyPatch) -> None:
        self.ready_calls = 0
        self.ops: Counter[str] = Counter()
        original = CoreState.ready_pmf

        def ready_pmf(core, t_now):
            self.ready_calls += 1
            return original(core, t_now)

        mp.setattr(CoreState, "ready_pmf", ready_pmf)

    def observe(self, op: str, grid_size: int) -> None:
        self.ops[op] += 1


def _counted_run(system, heuristic, variant, mp):
    counting = _Counting(mp)
    engine = Engine(
        system,
        build_heuristic(heuristic, np.random.default_rng(7)),
        build_filter_chain(variant),
    )
    previous = set_op_observer(counting.observe)
    try:
        engine.run()
    finally:
        set_op_observer(previous)
    return counting


class TestWorkSkipped:
    @pytest.mark.parametrize("variant", ("none", "en"))
    @pytest.mark.parametrize("heuristic", ("SQ", "Random"))
    def test_no_pmf_work_for_queue_and_random_policies(self, queued_system, heuristic, variant):
        system = queued_system
        with pytest.MonkeyPatch.context() as mp:
            counting = _counted_run(system, heuristic, variant, mp)
        assert counting.ready_calls == 0
        assert counting.ops["convolve"] == 0
        assert counting.ops["truncate_below"] == 0
        # The eager oracle does the work on the same trial, so the zero
        # above is a skip, not an idle cluster.
        with pytest.MonkeyPatch.context() as mp, reference_engine(uncached=False):
            eager = _counted_run(system, heuristic, variant, mp)
        assert eager.ready_calls > 0
        assert eager.ops["convolve"] > 0
        assert eager.ops["truncate_below"] > 0

    @pytest.mark.parametrize("variant", ("none", "en"))
    def test_mect_skips_the_rho_stage(self, system, variant):
        stages: Counter[str] = Counter()
        ready_stage = CandidateBuilder._ready_stage

        def counted_ready(builder, t_now):
            stages["ready"] += 1
            return ready_stage(builder, t_now)

        def no_rho(*args):
            raise AssertionError("MECT without the robustness filter entered the rho stage")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CandidateBuilder, "_ready_stage", counted_ready)
            mp.setattr(CandidateBuilder, "_rho_stage", no_rho)
            _counted_run(system, "MECT", variant, mp)
        assert stages["ready"] > 0

    def test_mect_robust_makes_one_core_pass_per_arrival(self, system):
        stages: Counter[str] = Counter()
        builds = CandidateBuilder.build
        ready_stage = CandidateBuilder._ready_stage

        def counted_build(builder, task, t_now):
            stages["build"] += 1
            return builds(builder, task, t_now)

        def counted_ready(builder, t_now):
            stages["ready"] += 1
            return ready_stage(builder, t_now)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CandidateBuilder, "build", counted_build)
            mp.setattr(CandidateBuilder, "_ready_stage", counted_ready)
            _counted_run(system, "MECT", "en+rob", mp)
        # The robustness filter reads rho, MECT then reads ect: one
        # ready stage serves both (the energy filter may empty the set
        # first, in which case neither column is read).
        assert 0 < stages["ready"] <= stages["build"]


def _busy_cores(system):
    """Fresh cores with running and queued work on the first and last."""
    cluster = system.cluster
    dt = system.config.grid.dt
    cores = [
        CoreState(cid, int(cluster.core_node_index[cid]), dt)
        for cid in range(cluster.num_cores)
    ]
    probe = system.workload.tasks[0]
    t0 = probe.arrival
    first = system.table.pmf(probe.type_id, cores[0].node_index, 0)
    cores[0].set_running(RunningTask(probe, 0, first, start_time=t0, completion_time=t0 + 200.0))
    cores[0].enqueue(QueuedTask(probe, 0, first))
    cores[0].enqueue(QueuedTask(probe, 1, system.table.pmf(probe.type_id, cores[0].node_index, 1)))
    last = system.table.pmf(probe.type_id, cores[-1].node_index, 1)
    cores[-1].set_running(RunningTask(probe, 1, last, start_time=t0, completion_time=t0 + 500.0))
    return cores


class TestReadOrder:
    ORDERS = {
        "ect first": ("ect", "prob_on_time"),
        "rho first": ("prob_on_time", "ect"),
        "ect only": ("ect",),
        "rho only": ("prob_on_time",),
        "twice": ("ect", "prob_on_time", "ect", "prob_on_time"),
    }

    @pytest.mark.parametrize("order", ORDERS)
    def test_any_order_equals_the_oracle(self, system, order):
        cores = _busy_cores(system)
        builder = CandidateBuilder(cores, system.table)
        for task in system.workload.tasks[1:6]:
            got = builder.build(task, task.arrival)
            ref = build_candidate_set(task, cores, system.table, task.arrival)
            for name in self.ORDERS[order]:
                assert np.array_equal(getattr(got, name), getattr(ref, name)), name
            for name in ("core_ids", "pstates", "queue_len", "eet", "eec", "mask"):
                assert np.array_equal(getattr(got, name), getattr(ref, name)), name

    def test_columns_are_computed_once(self, system):
        cores = _busy_cores(system)
        task = system.workload.tasks[1]
        cands = CandidateBuilder(cores, system.table).build(task, task.arrival)
        assert cands.ect is cands.ect
        assert cands.prob_on_time is cands.prob_on_time
