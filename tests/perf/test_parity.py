"""Results-neutrality of the performance layer.

The engine has one path — the vectorized candidate builder with a
kernel cache, on numpy, the only kernel backend.  It has one acceptance
contract, bitwise equality: every trial equals one run on the reference
computations kept in ``tests/perf/reference.py`` — same scalar fields,
same per-task outcomes, same manifest digests — across all four
heuristics and with the filters on or off, and every candidate array
equals the reference loop's.  Speed is allowed to vary; results are
not.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_trial_system
from repro.experiments.runner import TrialPlan, VariantSpec
from repro.obs.manifest import trial_digest
from repro.sim.mapper import CandidateBuilder
from repro.sim.state import CoreState, QueuedTask, RunningTask
from tests.conftest import micro_config
from tests.perf.reference import build_candidate_set, reference_engine

HEURISTICS = ("SQ", "MECT", "LL", "Random")
VARIANTS = ("none", "en+rob")


@pytest.fixture(scope="module")
def system():
    return build_trial_system(micro_config(seed=11))


def _run(system, spec):
    return TrialPlan(system=system, spec=spec, keep_outcomes=True).run()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_perf_knobs_are_results_neutral(system, heuristic, variant):
    """The default engine equals the per-core loop and the uncached run,
    each alone and together."""
    spec = VariantSpec(heuristic, variant)
    result = _run(system, spec)
    for loop, uncached in ((True, True), (True, False), (False, True)):
        with reference_engine(loop=loop, uncached=uncached):
            reference = _run(system, spec)
        assert result == reference  # full dataclass equality incl. outcomes
        assert trial_digest(result) == trial_digest(reference)


def _fresh_cores(system):
    cluster = system.cluster
    dt = system.config.grid.dt
    return [
        CoreState(cid, int(cluster.core_node_index[cid]), dt)
        for cid in range(cluster.num_cores)
    ]


class TestBuilderMatchesReference:
    """CandidateBuilder's batched arrays equal the reference loop's, bitwise."""

    ARRAYS = ("core_ids", "pstates", "queue_len", "eet", "eec", "ect", "prob_on_time")

    def _assert_equal(self, got, ref):
        for name in self.ARRAYS:
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        assert np.array_equal(got.mask, ref.mask)

    def test_idle_cluster(self, system):
        cores = _fresh_cores(system)
        builder = CandidateBuilder(cores, system.table)
        for task in system.workload.tasks[:5]:
            got = builder.build(task, task.arrival)
            ref = build_candidate_set(task, cores, system.table, task.arrival)
            self._assert_equal(got, ref)

    def test_with_running_and_queued_work(self, system):
        cores = _fresh_cores(system)
        builder = CandidateBuilder(cores, system.table)
        probe = system.workload.tasks[0]
        t0 = probe.arrival
        pmf = system.table.pmf(probe.type_id, cores[0].node_index, 0)
        cores[0].set_running(
            RunningTask(probe, 0, pmf, start_time=t0, completion_time=t0 + 200.0)
        )
        cores[0].enqueue(QueuedTask(probe, 0, pmf))
        last = cores[-1]
        pmf_last = system.table.pmf(probe.type_id, last.node_index, 1)
        last.set_running(
            RunningTask(probe, 1, pmf_last, start_time=t0, completion_time=t0 + 500.0)
        )
        for task in system.workload.tasks[1:6]:
            got = builder.build(task, task.arrival)
            ref = build_candidate_set(task, cores, system.table, task.arrival)
            self._assert_equal(got, ref)
