"""Tests for candidate-set construction (repro.sim.mapper)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.robustness.completion import prob_on_time
from repro.sim.mapper import CandidateBuilder
from repro.sim.state import CoreState, QueuedTask, RunningTask


def _build(task, cores, table, t_now):
    return CandidateBuilder(cores, table).build(task, t_now)


@pytest.fixture()
def cores(tiny_system):
    cluster = tiny_system.cluster
    dt = tiny_system.config.grid.dt
    return [
        CoreState(cid, int(cluster.core_node_index[cid]), dt)
        for cid in range(cluster.num_cores)
    ]


class TestBuildCandidates:
    def test_shape_and_ordering(self, tiny_system, cores):
        task = tiny_system.workload.tasks[0]
        cands = _build(task, cores, tiny_system.table, task.arrival)
        C = tiny_system.cluster.num_cores
        P = tiny_system.cluster.num_pstates
        assert len(cands) == C * P
        assert np.array_equal(cands.core_ids, np.repeat(np.arange(C), P))
        assert np.array_equal(cands.pstates, np.tile(np.arange(P), C))
        assert cands.mask.all()

    def test_eet_eec_from_tables(self, tiny_system, cores):
        task = tiny_system.workload.tasks[0]
        cands = _build(task, cores, tiny_system.table, task.arrival)
        node0 = cores[0].node_index
        assert cands.eet[0] == pytest.approx(tiny_system.table.eet[task.type_id, node0, 0])
        assert cands.eec[1] == pytest.approx(tiny_system.table.eec[task.type_id, node0, 1])

    def test_ect_on_idle_cores_is_arrival_plus_eet(self, tiny_system, cores):
        task = tiny_system.workload.tasks[0]
        t = task.arrival
        cands = _build(task, cores, tiny_system.table, t)
        assert np.allclose(cands.ect, t + cands.eet)

    def test_queue_len_reflects_occupancy(self, tiny_system, cores):
        task = tiny_system.workload.tasks[0]
        t = task.arrival
        pmf = tiny_system.table.pmf(task.type_id, cores[0].node_index, 0)
        cores[0].set_running(
            RunningTask(task, 0, pmf, start_time=t, completion_time=t + 100)
        )
        cores[0].enqueue(QueuedTask(task, 0, pmf))
        cands = _build(task, cores, tiny_system.table, t)
        P = tiny_system.cluster.num_pstates
        assert np.all(cands.queue_len[:P] == 2)
        assert np.all(cands.queue_len[P:] == 0)

    def test_prob_matches_scalar_reference(self, tiny_system, cores):
        task = tiny_system.workload.tasks[3]
        t = task.arrival
        cands = _build(task, cores, tiny_system.table, t)
        P = tiny_system.cluster.num_pstates
        for cid in (0, len(cores) - 1):
            ready = cores[cid].ready_pmf(t)
            for pi in range(P):
                expected = prob_on_time(
                    ready,
                    tiny_system.table.pmf(task.type_id, cores[cid].node_index, pi),
                    task.deadline,
                )
                assert cands.prob_on_time[cid * P + pi] == pytest.approx(expected, abs=1e-12)

    def test_probabilities_are_probabilities(self, tiny_system, cores):
        task = tiny_system.workload.tasks[0]
        cands = _build(task, cores, tiny_system.table, task.arrival)
        assert np.all(cands.prob_on_time >= 0.0)
        assert np.all(cands.prob_on_time <= 1.0 + 1e-12)

    def test_deeper_pstate_never_more_robust_on_same_core(self, tiny_system, cores):
        # Slower execution cannot raise the on-time probability.
        task = tiny_system.workload.tasks[0]
        cands = _build(task, cores, tiny_system.table, task.arrival)
        P = tiny_system.cluster.num_pstates
        probs = cands.prob_on_time.reshape(-1, P)
        assert np.all(np.diff(probs, axis=1) <= 1e-6)

    def test_busy_core_less_robust_than_idle_twin(self, tiny_system, cores):
        # Two cores of the same node: loading one lowers its probability.
        cluster = tiny_system.cluster
        twins = None
        node_idx = cluster.core_node_index
        for cid in range(1, cluster.num_cores):
            if node_idx[cid] == node_idx[cid - 1]:
                twins = (cid - 1, cid)
                break
        if twins is None:
            pytest.skip("generated cluster has no same-node core pair")
        task = tiny_system.workload.tasks[0]
        t = task.arrival
        pmf = tiny_system.table.pmf(task.type_id, cores[twins[0]].node_index, 0)
        cores[twins[0]].set_running(
            RunningTask(task, 0, pmf, start_time=t, completion_time=t + 1)
        )
        cands = _build(task, cores, tiny_system.table, t)
        P = cluster.num_pstates
        busy = cands.prob_on_time[twins[0] * P]
        idle = cands.prob_on_time[twins[1] * P]
        assert busy <= idle + 1e-9


class TestOnDemandColumns:
    """``ect`` / ``prob_on_time`` are computed when read."""

    @pytest.fixture()
    def busy(self, tiny_system, cores):
        task = tiny_system.workload.tasks[0]
        t = task.arrival
        pmf = tiny_system.table.pmf(task.type_id, cores[0].node_index, 0)
        cores[0].set_running(RunningTask(task, 0, pmf, start_time=t, completion_time=t + 100))
        cores[0].enqueue(QueuedTask(task, 0, pmf))
        return cores

    def test_build_leaves_cores_untouched(self, tiny_system, busy, monkeypatch):
        def no_ready_pmf(core, t_now):
            raise AssertionError("build() computed a ready pmf")

        monkeypatch.setattr(CoreState, "ready_pmf", no_ready_pmf)
        task = tiny_system.workload.tasks[3]
        cands = _build(task, busy, tiny_system.table, task.arrival)
        P = tiny_system.cluster.num_pstates
        assert np.all(cands.queue_len[:P] == 2)
        with pytest.raises(AssertionError, match="ready pmf"):
            cands.ect

    def test_matches_scalar_reference(self, tiny_system, busy):
        task = tiny_system.workload.tasks[3]
        t = task.arrival
        cands = _build(task, busy, tiny_system.table, t)
        P = tiny_system.cluster.num_pstates
        for cid in (0, len(busy) - 1):
            ready = busy[cid].ready_pmf(t)
            node = busy[cid].node_index
            for pi in range(P):
                exec_pmf = tiny_system.table.pmf(task.type_id, node, pi)
                expected = prob_on_time(ready, exec_pmf, task.deadline)
                assert cands.prob_on_time[cid * P + pi] == pytest.approx(expected, abs=1e-12)
                assert cands.ect[cid * P + pi] == pytest.approx(ready.mean() + cands.eet[cid * P + pi])


class TestReadyRows:
    """The builder refreshes a core's CDF row only when it is stale."""

    @pytest.fixture()
    def running(self, tiny_system, cores):
        """Core 0 runs a task; returns (cores, first impulse time)."""
        task = tiny_system.workload.tasks[0]
        t = task.arrival
        pmf = tiny_system.table.pmf(task.type_id, cores[0].node_index, 0)
        cores[0].set_running(RunningTask(task, 0, pmf, start_time=t, completion_time=t + 1))
        return cores, t + pmf.start

    @pytest.fixture()
    def calls(self, monkeypatch):
        made: list[float] = []
        ready_pmf = CoreState.ready_pmf

        def counted(core, t_now):
            made.append(t_now)
            return ready_pmf(core, t_now)

        monkeypatch.setattr(CoreState, "ready_pmf", counted)
        return made

    def _ect(self, builder, tiny_system, t):
        return builder.build(tiny_system.workload.tasks[1], t).ect

    def test_valid_row_is_reused(self, tiny_system, running, calls):
        cores, first_impulse = running
        builder = CandidateBuilder(cores, tiny_system.table)
        t = tiny_system.workload.tasks[0].arrival
        self._ect(builder, tiny_system, t)
        self._ect(builder, tiny_system, (t + first_impulse) / 2)
        self._ect(builder, tiny_system, first_impulse)
        assert calls == [t]

    def test_row_refreshed_once_truncation_removes_mass(self, tiny_system, running, calls):
        cores, first_impulse = running
        builder = CandidateBuilder(cores, tiny_system.table)
        t = tiny_system.workload.tasks[0].arrival
        self._ect(builder, tiny_system, t)
        later = first_impulse + tiny_system.config.grid.dt
        got = self._ect(builder, tiny_system, later)
        assert calls == [t, later]
        assert got[0] == cores[0].ready_pmf(later).mean() + tiny_system.table.eet[
            tiny_system.workload.tasks[1].type_id, cores[0].node_index, 0
        ]

    def test_mutation_refreshes_the_row(self, tiny_system, running, calls):
        cores, _ = running
        builder = CandidateBuilder(cores, tiny_system.table)
        task = tiny_system.workload.tasks[0]
        t = task.arrival
        self._ect(builder, tiny_system, t)
        pmf = tiny_system.table.pmf(task.type_id, cores[0].node_index, 0)
        cores[0].enqueue(QueuedTask(task, 0, pmf))
        self._ect(builder, tiny_system, t)
        assert calls == [t, t]

    def test_idle_cores_compute_no_ready_pmf(self, tiny_system, cores, calls):
        builder = CandidateBuilder(cores, tiny_system.table)
        task = tiny_system.workload.tasks[0]
        builder.build(task, task.arrival).prob_on_time
        assert calls == []

    def test_columns_of_an_older_set_raise(self, tiny_system, running):
        cores, _ = running
        builder = CandidateBuilder(cores, tiny_system.table)
        tasks = tiny_system.workload.tasks
        older = builder.build(tasks[1], tasks[1].arrival)
        builder.build(tasks[2], tasks[2].arrival).prob_on_time
        with pytest.raises(RuntimeError, match="later set"):
            older.prob_on_time


class TestBuilderInputs:
    def test_rejects_core_count_mismatch(self, tiny_system, cores):
        with pytest.raises(ValueError, match="cluster"):
            CandidateBuilder(cores[:-1], tiny_system.table)

    def test_rejects_core_off_the_table_grid(self, tiny_system, cores):
        dt = tiny_system.config.grid.dt
        cores[-1] = CoreState(cores[-1].core_id, cores[-1].node_index, dt / 2)
        with pytest.raises(ValueError, match="grid"):
            CandidateBuilder(cores, tiny_system.table)
