"""Property test: the shared core arrays and task conservation, after every event.

``CandidateBuilder`` reads every core's queue length from one occupancy
array that ``CoreState``'s mutators keep current, instead of visiting
the cores, and finds the ready rows it must refresh from the version and
busy arrays kept beside it.  The property pinned here, for batch,
service and fault runs under random configurations and policies: after
every event the occupancy array equals ``CoreState.assigned_count``, the
busy array equals ``running is not None`` and the version array equals
the core's ``_version``, core by core; the engine's in-system count
equals the occupancy sum, and every task that has arrived is accounted
for exactly once — arrivals = mapped + discarded + shed (plus those
waiting out a deferral, zero once the run ends).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SimulationConfig, api, build_trial_system
from repro import service as service_mod
from repro.faults import FaultEvent, FaultPolicy, FaultSchedule, SheddingConfig
from repro.filters.chain import build_filter_chain
from repro.heuristics.registry import build_heuristic
from repro.service import ServiceConfig
from repro.sim.engine import Engine


class _Ledger:
    """Per-task terminal dispositions, recorded through the engine hooks."""

    def __init__(self) -> None:
        self.mapped = 0
        self.discarded = 0
        self.deferred: set[int] = set()

    def on_mapped(self, engine, task, core_id, pstate):
        self.mapped += 1

    def on_discarded(self, engine, task):
        self.discarded += 1

    def on_completion(self, engine, core_id, task, t_now):
        pass

    def on_shed(self, engine, task, cause, deferred):
        if deferred:
            self.deferred.add(task.task_id)


class CheckedEngine(Engine):
    """An engine that asserts the invariants after every handled event."""

    def __init__(self, *args, hooks=None, **kwargs) -> None:
        self.ledger_hooks = _Ledger()
        self.arrived: set[int] = set()
        self.events = 0
        super().__init__(*args, hooks=_Chain(self.ledger_hooks, hooks), **kwargs)
        self.occupancy = self._builder._occupancy
        self.versions = self._builder._version
        self.busy = self._builder._busy

    def _check(self) -> None:
        self.events += 1
        counts = [core.assigned_count for core in self.cores]
        assert self.occupancy.tolist() == counts
        assert self.busy.tolist() == [core.running is not None for core in self.cores]
        assert self.versions.tolist() == [core._version for core in self.cores]
        assert self.in_system == sum(counts)
        hooks = self.ledger_hooks
        waiting = len(hooks.deferred)
        assert len(self.arrived) == (
            hooks.mapped + hooks.discarded + self.fault_stats.shed + waiting
        )

    def _handle_arrival(self, task, t_now):
        self.arrived.add(task.task_id)
        self.ledger_hooks.deferred.discard(task.task_id)
        super()._handle_arrival(task, t_now)
        self._check()

    def _handle_completion(self, payload, t_now):
        handled = super()._handle_completion(payload, t_now)
        self._check()
        return handled

    def _handle_fault(self, transition, t_now):
        super()._handle_fault(transition, t_now)
        self._check()


class _Chain:
    """Forwards every hook call to the ledger, then to the run's own hooks."""

    def __init__(self, first, second) -> None:
        self._hooks = tuple(h for h in (first, second) if h is not None)

    def __getattr__(self, name):
        targets = [getattr(h, name) for h in self._hooks if hasattr(h, name)]
        if not targets:
            raise AttributeError(name)

        def call(*args):
            for target in targets:
                target(*args)

        return call


@st.composite
def cases(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    num_tasks = draw(st.integers(min_value=8, max_value=30))
    num_nodes = draw(st.integers(min_value=1, max_value=3))
    heuristic = draw(st.sampled_from(["SQ", "MECT", "LL", "Random"]))
    variant = draw(st.sampled_from(["none", "en", "rob", "en+rob"]))
    mode = draw(st.sampled_from(["batch", "service", "fault"]))
    head = min(num_tasks // 3, 5)
    config = SimulationConfig(seed=seed).with_updates(
        workload={
            "num_tasks": num_tasks,
            "num_task_types": 4,
            "burst_head": head,
            "burst_tail": head,
        },
        cluster={"num_nodes": num_nodes, "max_processors": 2, "max_cores": 2},
    )
    return config, heuristic, variant, mode


def _run(config, heuristic, variant, mode) -> CheckedEngine:
    built: list[CheckedEngine] = []

    def make(*args, **kwargs):
        built.append(CheckedEngine(*args, **kwargs))
        return built[-1]

    scenario = api.Scenario(heuristic, variant, config=config)
    if mode == "batch":
        system = build_trial_system(config)
        make(
            system,
            build_heuristic(heuristic, np.random.default_rng(config.seed)),
            build_filter_chain(variant),
        ).run()
    elif mode == "service":
        # Overloaded Poisson traffic with queue-depth shedding and
        # deferral, on a rolling budget.
        service = ServiceConfig(
            rate_mult=3.0,
            task_limit=config.workload.num_tasks,
            shedding=SheddingConfig(queue_depth=1.0, defer=50.0, max_defers=1, min_prob=0.05),
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(service_mod, "Engine", make)
            api.run_service(scenario, service)
    else:
        # An outage of node 0 early in the burst, orphans re-mapped.
        faults = FaultSchedule((FaultEvent("node_outage", 0, 300.0, 2000.0),))
        service = ServiceConfig(
            traffic="replay", faults=faults, fault_policy=FaultPolicy(running="resume")
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(service_mod, "Engine", make)
            api.run_service(scenario, service)
    (engine,) = built
    return engine


@given(cases())
@settings(max_examples=24, deadline=None)
def test_occupancy_and_conservation_hold_after_every_event(case):
    config, heuristic, variant, mode = case
    engine = _run(config, heuristic, variant, mode)
    assert engine.events > 0
    hooks = engine.ledger_hooks
    assert not hooks.deferred
    assert len(engine.arrived) == hooks.mapped + hooks.discarded + engine.fault_stats.shed
    assert engine.in_system == 0
    assert not engine.occupancy.any()
