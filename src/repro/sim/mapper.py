"""Building the vectorized candidate set for one arriving task.

For a task of type ``tau`` arriving at ``t_l``, every (core, P-state)
pair is a potential assignment.  :class:`CandidateBuilder` assembles the
aligned arrays of Section V-A quantities over all candidates in
candidate order (core-major, then P-state):

* ``EET`` and ``EEC`` come straight from the precomputed tables, and
  ``queue_len`` from the cores' shared occupancy array — no core is
  visited;
* ``ECT`` is the core's expected ready time plus EET (linearity of
  expectation over the convolution, so no pmf product is formed);
* ``rho`` (on-time probability) is one padded-matrix pass per distinct
  ready pmf against its CDF.

``ECT`` and ``rho`` are computed on demand, the first time a filter or
heuristic reads them, in two stages: the *ready stage* (one pass over
the cores collecting ready-time pmfs and means, shared by both columns)
and the *rho stage* (the batched index grid, CDF gather and einsum).  A
policy that reads neither (SQ, Random, the energy filter) does no pmf
work at all; MECT without the robustness filter skips the rho stage.

The builder precomputes the per-candidate coordinate arrays once per
trial, shares a single degenerate ready pmf across all idle cores, and
deduplicates the per-core probability rows by ``(node, ready pmf)`` —
every idle core of a node yields the same row, so a mostly-idle cluster
computes a handful of rows instead of one per core.  Its arithmetic is
the expression-for-expression batching of a per-core loop over
:func:`~repro.robustness.completion.prob_on_time_all_pstates`; the test
suite keeps that loop as an oracle and pins the two bitwise equal.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.heuristics.base import CandidateSet
from repro.sim.state import CoreState, shared_occupancy
from repro.stoch.pmf import PMF
from repro.workload.pmf_table import ExecutionTimeTable
from repro.workload.task import Task

__all__ = ["CandidateBuilder"]

#: Per-type tables: EET (C, P), EET and EEC flattened, the node-stacked
#: padded time/probability matrices, and each node's native pad width.
_TypeTables = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]


class CandidateBuilder:
    """Per-trial candidate-set builder with batched array construction.

    Bound to one core list and one execution-time table (both live for a
    whole trial), so the candidate coordinate arrays — identical for
    every arrival — are built once, and the cores are bound to one
    occupancy array read for ``queue_len``.  When a set's ``ect`` or
    ``prob_on_time`` is read, it shares one degenerate ready pmf across
    all idle cores and computes one probability row per *distinct*
    ``(node, ready pmf)`` pair instead of one per core.  Every core must
    sit on the table's time grid.
    """

    __slots__ = (
        "_cores",
        "_table",
        "_num_cores",
        "_num_pstates",
        "_num_nodes",
        "_core_ids",
        "_pstates",
        "_occupancy",
        "_dt",
        "_node_cores",
        "_by_type",
    )

    def __init__(
        self,
        cores: Sequence[CoreState],
        table: ExecutionTimeTable,
        *,
        type_tables: dict | None = None,
    ) -> None:
        self._cores = list(cores)
        self._table = table
        cluster = table.cluster
        if len(self._cores) != cluster.num_cores:
            raise ValueError("core list does not match the table's cluster")
        if any(core.dt != table.grid.dt for core in self._cores):
            raise ValueError("every core must use the table's grid dt")
        self._num_cores = cluster.num_cores
        self._num_pstates = cluster.num_pstates
        self._num_nodes = cluster.num_nodes
        core_ids = np.repeat(np.arange(self._num_cores), self._num_pstates)
        pstates = np.tile(np.arange(self._num_pstates), self._num_cores)
        core_ids.setflags(write=False)
        pstates.setflags(write=False)
        self._core_ids = core_ids
        self._pstates = pstates
        self._occupancy = shared_occupancy(self._cores)
        self._dt = table.grid.dt
        # Cores grouped by node: collecting distinct ready pmfs in node
        # order keeps each node's rows contiguous, so the per-node dot
        # can run on array slices without gather copies.
        grouped: dict[int, list[int]] = {}
        for c, core in enumerate(self._cores):
            grouped.setdefault(core.node_index, []).append(c)
        self._node_cores: list[tuple[int, list[int]]] = list(grouped.items())
        # Per-type gathers and node-stacked padded matrices, built on
        # first use; identical values to per-arrival table lookups,
        # shared read-only across arrivals.  A caller
        # holding several builders over the *same* table (the specs of
        # one trial) may pass a shared ``type_tables`` dict so the
        # tables are built once per trial instead of once per spec —
        # entries are pure functions of (table, type_id), so sharing is
        # exact.
        self._by_type: dict[int, _TypeTables] = type_tables if type_tables is not None else {}

    def _type_tables(self, type_id: int) -> _TypeTables:
        cached = self._by_type.get(type_id)
        if cached is None:
            cluster = self._table.cluster
            core_node = cluster.core_node_index
            eet = self._table.eet[type_id][core_node]  # (C, P)
            eec_flat = self._table.eec[type_id][core_node].ravel()
            eet_flat = eet.ravel()
            # Every node's padded (P, L) matrices stacked to a common
            # width so one batched pass covers all nodes.  The extra
            # columns extend the table's own padding scheme — zero
            # probability, times repeating the row's last impulse — so
            # the index/gather passes can run rectangularly; each node's
            # *native* width is kept so row reductions run over exactly
            # the reference's term count (an appended ``+0.0`` term is
            # value-neutral but can change the reduction's accumulator
            # blocking, which is a bitwise difference).
            pads = [self._table.padded(type_id, n) for n in range(self._num_nodes)]
            widths = tuple(pad.times.shape[1] for pad in pads)
            width = max(widths)
            times_stack = np.empty((self._num_nodes, self._num_pstates, width))
            probs_stack = np.zeros((self._num_nodes, self._num_pstates, width))
            for n, pad in enumerate(pads):
                length = widths[n]
                times_stack[n, :, :length] = pad.times
                times_stack[n, :, length:] = pad.times[:, -1:]
                probs_stack[n, :, :length] = pad.probs
            for arr in (eet, eet_flat, eec_flat, times_stack, probs_stack):
                arr.setflags(write=False)
            cached = (eet, eet_flat, eec_flat, times_stack, probs_stack, widths)
            self._by_type[type_id] = cached
        return cached

    def build(self, task: Task, t_now: float) -> CandidateSet:
        """The candidate set for one arrival at ``t_now``.

        ``queue_len``, ``eet``, ``eec`` and ``mask`` are filled now;
        ``ect`` and ``prob_on_time`` are computed when first read.
        """
        tables = self._type_tables(task.type_id)
        return CandidateSet(
            core_ids=self._core_ids,
            pstates=self._pstates,
            queue_len=np.repeat(self._occupancy, self._num_pstates),
            eet=tables[1],
            eec=tables[2],
            columns=_OnDemandColumns(self, tables, task.deadline, t_now),
        )

    def _ready_stage(self, t_now: float) -> _Ready:
        """One pass over the cores: ready-time means and distinct ready pmfs.

        Cores are visited grouped by node, collecting the *distinct*
        (node, ready pmf) pairs; grouping keeps each node's rows
        contiguous.  One degenerate pmf stands in for every idle core's
        ready time: its values are exactly what CoreState.ready_pmf
        would build, and sharing the object caches the mean and
        collapses all idle cores of a node onto one probability row
        (identity against it is the only way two cores can share a
        ready pmf).
        """
        cores = self._cores
        idle_delta: PMF | None = None
        idle_mean = 0.0
        slots: list[int] = [0] * self._num_cores  # per core: its distinct-row index
        means: list[float] = [0.0] * self._num_cores
        rows: list[PMF] = []
        node_blocks: list[tuple[int, int, int]] = []  # (node, row lo, row hi)
        for node, node_core_ids in self._node_cores:
            row_lo = len(rows)
            idle_slot = -1
            for c in node_core_ids:
                core = cores[c]
                if core.running is None:
                    if idle_delta is None:
                        idle_delta = PMF.delta(t_now, self._dt)
                        idle_mean = idle_delta.mean()
                    means[c] = idle_mean
                    if idle_slot < 0:
                        idle_slot = len(rows)
                        rows.append(idle_delta)
                    slots[c] = idle_slot
                else:
                    ready = core.ready_pmf(t_now)
                    # Inline of PMF.mean's cached branch (same
                    # expression, minus the method dispatch).
                    m1 = ready._m1
                    means[c] = (
                        float(ready.start + ready.dt * m1) if m1 is not None else ready.mean()
                    )
                    slots[c] = len(rows)
                    rows.append(ready)
            row_hi = len(rows)
            if row_hi > row_lo:
                node_blocks.append((node, row_lo, row_hi))
        return _Ready(np.array(means), slots, rows, node_blocks)

    def _rho_stage(self, ready: _Ready, tables: _TypeTables, deadline: float) -> np.ndarray:
        """On-time probability per candidate, one row per distinct ready pmf.

        The offset/index grid over all nodes is one elementwise pass,
        then the CDF gather and the per-P-state dot run per distinct pmf
        on its contiguous (P, width) slice — the same expressions, on
        the same values, as prob_on_time_all_pstates evaluates one core
        at a time.
        """
        _, _, _, times_stack, probs_stack, widths = tables
        dt = self._dt
        rows_pmf = ready.rows
        node_blocks = ready.node_blocks
        u = len(rows_pmf)
        starts = np.array([pmf.start for pmf in rows_pmf])
        sizes_l = [pmf.probs.size for pmf in rows_pmf]
        sizes = np.array(sizes_l, dtype=np.int64)
        cdfs = [pmf.cdf for pmf in rows_pmf]
        # ``deadline - time`` for every (node, P-state, impulse) —
        # the same elementwise expression the reference evaluates
        # per node (elementwise ufuncs are exact per element
        # regardless of batching).
        a_stack = deadline - times_stack  # (N, P, width)
        # floor((a - start) / dt + 1e-9) in-place on a writable
        # stack of each distinct pmf's node rows: the same
        # elementwise chain as the expression form, without the
        # intermediate temporaries.
        work = np.empty((u, a_stack.shape[1], a_stack.shape[2]))
        for node, row_lo, row_hi in node_blocks:
            work[row_lo:row_hi] = a_stack[node]
        np.subtract(work, starts[:, None, None], out=work)
        np.divide(work, dt, out=work)
        np.add(work, 1e-9, out=work)
        np.floor(work, out=work)
        ks_all = work.astype(np.int64)
        np.minimum(ks_all, (sizes - 1)[:, None, None], out=ks_all)
        np.maximum(ks_all, -1, out=ks_all)
        # One flat gather over all distinct CDFs, with an exact-0.0
        # sentinel ahead of each block: entry ``j`` of pmf ``i``
        # lives at ``offsets[i] + j`` and the clamped ``j == -1``
        # (query before the pmf's start) lands on the sentinel — the
        # same per-element values the reference's ``np.where`` form
        # produces, without materializing the mask.
        offsets_l: list[int] = []
        acc = 1
        for size in sizes_l:
            offsets_l.append(acc)
            acc += size + 1
        flat_cdf = np.zeros(acc - 1)
        for i, cdf in enumerate(cdfs):
            off = offsets_l[i]
            flat_cdf[off : off + cdf.size] = cdf
        np.add(ks_all, np.array(offsets_l, dtype=np.int64)[:, None, None], out=ks_all)
        fr_all = np.take(flat_cdf, ks_all)
        # One sum-of-products per node over its contiguous row
        # block: einsum's u axis is an outer loop over independent
        # (p, l) reductions, so each row is bitwise the per-slice
        # two-operand reduction, and broadcasting the node's shared
        # probability matrix avoids a gather copy.  Sliced to the
        # node's native pad width: the reduction must run over
        # exactly the reference's terms, because extra zero-probability
        # columns — while value-neutral term by term — change the
        # inner loop's accumulator blocking and therefore rounding.
        rows = np.empty((u, self._num_pstates))
        for node, row_lo, row_hi in node_blocks:
            w = widths[node]
            np.einsum(
                "pl,upl->up",
                probs_stack[node, :, :w],
                fr_all[row_lo:row_hi, :, :w],
                out=rows[row_lo:row_hi],
            )
        return np.take(rows, ready.slots, axis=0).ravel()  # (C, P) scatter by slot


class _Ready(NamedTuple):
    """The ready stage's output, shared by the ``ect`` and ρ columns."""

    means: np.ndarray  # (C,) ready-time mean per core
    slots: list[int]  # per core: index of its ready pmf in ``rows``
    rows: list[PMF]  # distinct ready pmfs, node blocks contiguous
    node_blocks: list[tuple[int, int, int]]  # (node, row lo, row hi)


class _OnDemandColumns:
    """The ``ect`` / ``prob_on_time`` source of one built candidate set.

    Both columns share one ready stage, run on the first read of either.
    """

    __slots__ = ("_builder", "_tables", "_deadline", "_t_now", "_ready")

    def __init__(
        self, builder: CandidateBuilder, tables: _TypeTables, deadline: float, t_now: float
    ) -> None:
        self._builder = builder
        self._tables = tables
        self._deadline = deadline
        self._t_now = t_now
        self._ready: _Ready | None = None

    def _ready_stage(self) -> _Ready:
        if self._ready is None:
            self._ready = self._builder._ready_stage(self._t_now)
        return self._ready

    def ect(self) -> np.ndarray:
        # Linearity of expectation: the ready-time mean plus EET.
        return (self._ready_stage().means[:, None] + self._tables[0]).ravel()

    def prob_on_time(self) -> np.ndarray:
        return self._builder._rho_stage(self._ready_stage(), self._tables, self._deadline)
