"""The ρ stage's certified column-0 index and its elementwise fallback.

``CandidateBuilder._rho_stage`` evaluates the reference index
``floor(((d - t) - s)/dt + 1e-9)`` only at each (row, P-state)'s first
padded column and takes ``floor(x0) - l`` for column ``l``, which is
exact whenever ``x0`` lies farther than a rounding bound from an
integer.  Pairs inside the bound take the reference's elementwise chain
(``_exact_windows``).  These tests force that fallback two ways — a
deadline placed on an integer index, and a bound widened to cover every
pair — and pin both bitwise to the per-core oracle; unforced, a run
never needs it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import build_trial_system
from repro.filters.chain import build_filter_chain
from repro.heuristics.base import Heuristic
from repro.heuristics.registry import build_heuristic
from repro.sim import mapper
from repro.sim.engine import Engine
from repro.sim.mapper import CandidateBuilder
from tests.conftest import micro_config
from tests.perf.reference import build_candidate_set
from tests.perf.test_on_demand_columns import _busy_cores


@pytest.fixture(scope="module")
def queued_system():
    """One node, so the runs below build queues."""
    return build_trial_system(micro_config(seed=11, cluster={"num_nodes": 1}))


@pytest.fixture(scope="module")
def system():
    return build_trial_system(micro_config(seed=11))


class _Fallbacks:
    """Counts the (row, P-state) pairs sent to ``_exact_windows``."""

    def __init__(self, mp: pytest.MonkeyPatch) -> None:
        self.pairs = 0
        exact = CandidateBuilder._exact_windows

        def counted(builder, times, *args):
            self.pairs += times.shape[0]
            return exact(builder, times, *args)

        mp.setattr(CandidateBuilder, "_exact_windows", counted)


def _assert_oracle(got, task, cores, table, t_now):
    ref = build_candidate_set(task, cores, table, t_now)
    assert got.prob_on_time.tobytes() == ref.prob_on_time.tobytes()
    assert got.ect.tobytes() == ref.ect.tobytes()


def test_deadline_on_an_integer_index_takes_the_fallback(system):
    """``x0`` within a few ulps of ``m`` (either side) matches the oracle."""
    cores = _busy_cores(system)
    builder = CandidateBuilder(cores, system.table)
    task = system.workload.tasks[1]
    t_now = task.arrival
    dt = system.config.grid.dt
    ready = cores[0].ready_pmf(t_now)
    times = system.table.padded(task.type_id, cores[0].node_index).times
    with pytest.MonkeyPatch.context() as mp:
        fallbacks = _Fallbacks(mp)
        for p in range(times.shape[0]):
            for m in (0, 1, 3, ready.probs.size - 1):
                on_index = times[p, 0] + ready.start + (m - 1e-9) * dt
                for deadline in (
                    np.nextafter(on_index, -np.inf),
                    on_index,
                    np.nextafter(on_index, np.inf),
                ):
                    probe = dataclasses.replace(task, deadline=float(deadline))
                    got = builder.build(probe, t_now)
                    _assert_oracle(got, probe, cores, system.table, t_now)
    assert fallbacks.pairs > 0


class _Comparing(Heuristic):
    """Wraps a heuristic; pins every decision's columns to the oracle."""

    def __init__(self, inner: Heuristic) -> None:
        self.inner = inner
        self.name = inner.name
        self.engine: Engine | None = None
        self.decisions = 0

    def select(self, cands, ctx):
        engine = self.engine
        _assert_oracle(cands, ctx.task, engine.cores, engine.system.table, ctx.t_now)
        self.decisions += 1
        return self.inner.select(cands, ctx)


def _compared_run(system, heuristic, variant):
    witness = _Comparing(build_heuristic(heuristic, np.random.default_rng(7)))
    engine = Engine(system, witness, build_filter_chain(variant))
    witness.engine = engine
    engine.run()
    return engine, witness


@pytest.mark.parametrize("heuristic", ("MECT", "LL"))
def test_fallback_everywhere_matches_the_oracle(queued_system, heuristic):
    """A bound covering every pair sends every pair through the fallback."""
    with pytest.MonkeyPatch.context() as mp:
        fallbacks = _Fallbacks(mp)
        mp.setattr(mapper, "_ROUNDING", 1.0)
        _, witness = _compared_run(queued_system, heuristic, "en+rob")
    assert witness.decisions == queued_system.num_tasks
    # Every row of every scored arrival: at least one row per P-state.
    assert fallbacks.pairs >= witness.decisions * queued_system.cluster.num_pstates


@pytest.mark.parametrize("heuristic", ("MECT", "LL"))
def test_unforced_runs_never_fall_back(queued_system, heuristic):
    with pytest.MonkeyPatch.context() as mp:
        fallbacks = _Fallbacks(mp)
        _, witness = _compared_run(queued_system, heuristic, "en+rob")
    assert witness.decisions == queued_system.num_tasks
    assert fallbacks.pairs == 0
