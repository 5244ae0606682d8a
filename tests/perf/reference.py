"""Reference computations the perf suite pins the fast path against.

The engine has one code path: :class:`~repro.sim.mapper.CandidateBuilder`
with a kernel cache installed.  This module keeps the straightforward
versions it replaced, as test oracles only:

* :func:`build_candidate_set` — one pass over every core, scoring each
  with :func:`~repro.robustness.completion.prob_on_time_all_pstates`,
  every column computed eagerly (the builder computes ``ect`` and
  ``prob_on_time`` only when read);
* :func:`reference_engine` — patches every engine built inside it to
  run on the per-core loop and/or without a kernel cache.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np
import pytest

from repro.heuristics.base import CandidateSet
from repro.robustness.completion import prob_on_time_all_pstates
from repro.sim import engine as engine_mod
from repro.sim.mapper import CandidateBuilder
from repro.sim.state import CoreState
from repro.stoch.ops import set_kernel_cache
from repro.workload.pmf_table import ExecutionTimeTable
from repro.workload.task import Task


def build_candidate_set(
    task: Task,
    cores: Sequence[CoreState],
    table: ExecutionTimeTable,
    t_now: float,
) -> CandidateSet:
    """The :class:`CandidateSet` for ``task``, one core at a time."""
    cluster = table.cluster
    C = cluster.num_cores
    P = cluster.num_pstates
    core_node = cluster.core_node_index

    eet = table.eet[task.type_id][core_node]  # (C, P)
    eec = table.eec[task.type_id][core_node]

    ready_means = np.empty(C)
    prob = np.empty((C, P))
    queue_len = np.empty(C, dtype=np.int64)
    for c in range(C):
        core = cores[c]
        ready = core.ready_pmf(t_now)
        ready_means[c] = ready.mean()
        pad = table.padded(task.type_id, core.node_index)
        prob[c] = prob_on_time_all_pstates(ready, pad.times, pad.probs, task.deadline)
        queue_len[c] = core.assigned_count

    ect = ready_means[:, None] + eet

    return CandidateSet(
        core_ids=np.repeat(np.arange(C), P),
        pstates=np.tile(np.arange(P), C),
        queue_len=np.repeat(queue_len, P),
        eet=eet.ravel(),
        eec=eec.ravel(),
        ect=ect.ravel(),
        prob_on_time=prob.ravel(),
    )


def _loop_build(builder: CandidateBuilder, task: Task, t_now: float) -> CandidateSet:
    return build_candidate_set(task, builder._cores, builder._table, t_now)


def _no_cache(cache: object) -> object:
    return set_kernel_cache(None)


@contextmanager
def reference_engine(*, loop: bool = True, uncached: bool = True) -> Iterator[None]:
    """Run every engine built inside on the reference computations.

    ``loop`` swaps ``CandidateBuilder.build`` for
    :func:`build_candidate_set`; ``uncached`` keeps the engine from
    installing its kernel cache, so :mod:`repro.stoch.ops` computes
    every truncation afresh.
    """
    with pytest.MonkeyPatch.context() as mp:
        if loop:
            mp.setattr(CandidateBuilder, "build", _loop_build)
        if uncached:
            mp.setattr(engine_mod, "set_kernel_cache", _no_cache)
        yield
