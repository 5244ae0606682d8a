"""Property test: the builder's ρ column is non-negative and monotone in the deadline.

At every decision of batch, service and fault runs under random
configurations and policies, the engine's ρ column is read and the same
cores are re-scored by a second :class:`CandidateBuilder` at later
deadlines — one ulp later, a sub-microsecond later, or up to several
thousand seconds later.  Every entry must be ``>= 0.0`` and none may
fall as the deadline grows, compared exactly: each index, CDF entry,
product and the fixed-order sum is monotone under rounding, so no slack
is needed.

``ρ <= 1`` is not asserted: the cumulative sum behind the ready-time
CDF can end a few ulps above 1.0, so ρ can too (the largest seen on the
paper's grid is ``1.0000000000000013``).  Bounding it is left to
computing the miss probability as a late-mass tail instead (ROADMAP
item 3).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api, build_trial_system
from repro import service as service_mod
from repro.faults import FaultEvent, FaultPolicy, FaultSchedule
from repro.filters.chain import build_filter_chain
from repro.heuristics.base import Heuristic
from repro.heuristics.registry import build_heuristic
from repro.service import ServiceConfig
from repro.sim.engine import Engine
from repro.sim.mapper import CandidateBuilder
from tests.sim.test_occupancy_properties import cases

#: Deadline steps: one ulp, or a non-negative amount of seconds.
steps = st.lists(
    st.one_of(
        st.just("ulp"),
        st.floats(min_value=0.0, max_value=1e-6),
        st.floats(min_value=0.0, max_value=5000.0),
    ),
    min_size=1,
    max_size=4,
)


class _Probe(Heuristic):
    """Wraps a heuristic; checks ρ at the decision's deadline and later ones."""

    def __init__(self, inner: Heuristic, deadline_steps: list) -> None:
        self.inner = inner
        self.name = inner.name
        self.steps = deadline_steps
        self.engine: Engine | None = None
        self.builder: CandidateBuilder | None = None
        self.checked = 0

    def select(self, cands, ctx):
        if self.builder is None:
            self.builder = CandidateBuilder(self.engine.cores, self.engine.system.table)
        rho = cands.prob_on_time
        assert (rho >= 0.0).all()
        task = ctx.task
        deadline = task.deadline
        for step in self.steps:
            deadline = float(np.nextafter(deadline, np.inf)) if step == "ulp" else deadline + step
            later = self.builder.build(dataclasses.replace(task, deadline=deadline), ctx.t_now)
            assert (later.prob_on_time >= rho).all()
            rho = later.prob_on_time
        self.checked += 1
        return self.inner.select(cands, ctx)


def _run(config, heuristic, variant, mode, deadline_steps) -> _Probe:
    probes: list[_Probe] = []

    def make(system, policy, *args, **kwargs):
        probe = _Probe(policy, deadline_steps)
        probe.engine = Engine(system, probe, *args, **kwargs)
        probes.append(probe)
        return probe.engine

    scenario = api.Scenario(heuristic, variant, config=config)
    if mode == "batch":
        system = build_trial_system(config)
        make(
            system,
            build_heuristic(heuristic, np.random.default_rng(config.seed)),
            build_filter_chain(variant),
        ).run()
    else:
        if mode == "service":
            # Overloaded Poisson traffic on a rolling budget.
            service = ServiceConfig(rate_mult=3.0, task_limit=config.workload.num_tasks)
        else:
            # An outage of node 0 early in the burst, orphans re-mapped.
            faults = FaultSchedule((FaultEvent("node_outage", 0, 300.0, 2000.0),))
            service = ServiceConfig(
                traffic="replay",
                faults=faults,
                fault_policy=FaultPolicy(running="resume", remap=True),
            )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(service_mod, "Engine", make)
            api.run_service(scenario, service)
    (probe,) = probes
    return probe


@given(cases(), steps)
@settings(max_examples=24, deadline=None)
def test_rho_is_non_negative_and_monotone_in_the_deadline(case, deadline_steps):
    config, heuristic, variant, mode = case
    probe = _run(config, heuristic, variant, mode, deadline_steps)
    assert probe.checked > 0
