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
* ``rho`` (on-time probability) is one windowed gather from per-core
  ready-time CDF rows and one sum of products per node.

``ECT`` and ``rho`` are computed on demand, the first time a filter or
heuristic reads them, in two stages: the *ready stage* (refresh the
stale rows, read the ready-time means, shared by both columns) and the
*rho stage* (write the refreshed CDF rows, the column-0 index, CDF
gather and einsum).  A policy that reads neither (SQ, Random, the
energy filter) does no pmf work at all; MECT without the robustness
filter skips the rho stage and builds no CDF.

The builder keeps each core's ready-time state as rows of arrays —
start, CDF size, mean, a validity stamp and a padded CDF row — and
refreshes a busy core's row only when its version changed or its
running pmf's first impulse fell behind ``t_now``; one vector compare
against the arrays the cores keep current
(:func:`~repro.sim.state.shared_arrays`) finds those rows.  Idle cores
share one degenerate row, scored once per node.  Its arithmetic yields
the values of a per-core loop over
:func:`~repro.robustness.completion.prob_on_time_all_pstates`; the test
suite keeps that loop as an oracle and pins the two bitwise equal.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.heuristics.base import CandidateSet
from repro.sim.state import CoreState, shared_arrays
from repro.stoch.pmf import PMF
from repro.workload.pmf_table import ExecutionTimeTable
from repro.workload.task import Task

__all__ = ["CandidateBuilder"]

#: Per-type tables: EET (C, P), EET and EEC flattened, the node-stacked
#: padded time/probability matrices, each node's native pad width, the
#: first impulse time per (node, P-state), and a bound on the magnitude
#: of every padded time and of ``l * dt`` over the stack's columns.
_TypeTables = tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple[int, ...], np.ndarray, float
]

#: ``2**-48``, i.e. 32 units of float64 roundoff; the scale of the
#: rounding bound that certifies the column-0 index (see ``_rho_stage``).
_ROUNDING = 2.0**-48


class CandidateBuilder:
    """Per-trial candidate-set builder with batched array construction.

    Bound to one core list and one execution-time table (both live for a
    whole trial), so the candidate coordinate arrays — identical for
    every arrival — are built once, and the cores are bound to one set
    of shared arrays (occupancy, version, busy).  Every core must sit on
    the table's time grid.

    Ready-time state is held per core in arrays (start, CDF size, mean,
    validity stamp, truncation start) and as row ``c`` of ``_cdf``, the
    core's ready-time CDF stored right to left: entry ``pad + 1 + k``
    counted from the row's right end — column ``origin - k``, ``origin
    = width - pad - 2`` — is ``F(k)`` clamped the way the reference
    clamps, ``0.0`` for ``k < 0`` (``pad + 1`` zeros on the right) and
    ``F(size - 1)`` past the last impulse (at least ``pad`` copies on
    the left).  Right to left makes the ρ window over padded columns
    ``l = 0, 1, ...`` — indices ``k0 - l`` — an ascending slice of a
    row.  Row ``num_cores`` is the idle row, the CDF of a degenerate
    pmf; its start is the arrival time.  ``pad + 1`` is the widest
    padded type table met so far, so a window of any type's width at a
    clamped column-0 index stays inside a row.
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
        "_version",
        "_busy",
        "_dt",
        "_node_cores",
        "_by_type",
        "_generation",
        "_pad",
        "_cdf",
        "_start",
        "_size",
        "_mean",
        "_stamp",
        "_trunc",
        "_windows",
        "_pending",
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
        num_cores = self._num_cores = cluster.num_cores
        self._num_pstates = cluster.num_pstates
        self._num_nodes = cluster.num_nodes
        core_ids = np.repeat(np.arange(num_cores), self._num_pstates)
        pstates = np.tile(np.arange(self._num_pstates), num_cores)
        core_ids.setflags(write=False)
        pstates.setflags(write=False)
        self._core_ids = core_ids
        self._pstates = pstates
        self._occupancy, self._version, self._busy = shared_arrays(self._cores)
        self._dt = table.grid.dt
        # Cores grouped by node, nodes in order: the rho stage lays each
        # node's rows out contiguously, so the per-node dot runs on array
        # slices and per-node values expand with one np.repeat.
        grouped: dict[int, list[int]] = {}
        for c, core in enumerate(self._cores):
            grouped.setdefault(core.node_index, []).append(c)
        self._node_cores: list[tuple[int, list[int]]] = sorted(grouped.items())
        # Per-type gathers and node-stacked padded matrices, built on
        # first use; identical values to per-arrival table lookups,
        # shared read-only across arrivals.  A caller
        # holding several builders over the *same* table (the specs of
        # one trial) may pass a shared ``type_tables`` dict so the
        # tables are built once per trial instead of once per spec —
        # entries are pure functions of (table, type_id), so sharing is
        # exact.
        self._by_type: dict[int, _TypeTables] = type_tables if type_tables is not None else {}
        # Bumped per build; a set's columns are valid only while it is
        # the latest, since a later ready stage rewrites the rows.
        self._generation = 0
        # Ready rows (see the class docstring).  The padding grows with
        # the widest type table the rho stage meets, the width with the
        # longest CDF; a stamp of -1 marks a row never filled.
        self._pad = 0
        self._cdf = np.zeros((num_cores + 1, 2))
        self._cdf[num_cores, 0] = 1.0
        # Per type width, the read-only sliding-window view of _cdf;
        # rebuilt when _cdf is reallocated.
        self._windows: dict[int, np.ndarray] = {}
        self._start = np.zeros(num_cores + 1)
        self._size = np.ones(num_cores + 1, dtype=np.int64)
        self._mean = np.zeros(num_cores)
        self._stamp = np.full(num_cores, -1, dtype=np.int64)
        self._trunc = np.zeros(num_cores)
        # Ready pmfs refreshed since the last rho stage, by core: their
        # CDF rows are written only when a rho stage reads them.
        self._pending: dict[int, PMF] = {}

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
            first_times = np.ascontiguousarray(times_stack[:, :, 0])
            span = float(np.abs(times_stack).max()) + (width - 1) * self._dt
            for arr in (eet, eet_flat, eec_flat, times_stack, probs_stack, first_times):
                arr.setflags(write=False)
            cached = (eet, eet_flat, eec_flat, times_stack, probs_stack, widths, first_times, span)
            self._by_type[type_id] = cached
        return cached

    def build(self, task: Task, t_now: float) -> CandidateSet:
        """The candidate set for one arrival at ``t_now``.

        ``queue_len``, ``eet``, ``eec`` and ``mask`` are filled now;
        ``ect`` and ``prob_on_time`` are computed when first read.
        """
        tables = self._type_tables(task.type_id)
        self._generation += 1
        return CandidateSet(
            core_ids=self._core_ids,
            pstates=self._pstates,
            queue_len=np.repeat(self._occupancy, self._num_pstates),
            eet=tables[1],
            eec=tables[2],
            columns=_OnDemandColumns(self, tables, task.deadline, t_now),
        )

    def _reserve(self, pad: int, size: int) -> None:
        """Grow the CDF rows to padding ``pad`` and room for ``size`` entries.

        Existing rows keep their values at the same ``k``: the right
        zeros and the left fill (each row's first column) extend.
        """
        cdf = self._cdf
        shift = pad - self._pad
        old_width = cdf.shape[1]
        width = old_width + 2 * shift
        if 2 * pad + 1 + size > width:
            width = max(2 * pad + 1 + size, 2 * width)
        grow = width - old_width - shift  # new columns on the left
        grown = np.empty((cdf.shape[0], width))
        grown[:, :grow] = cdf[:, :1]
        grown[:, grow : grow + old_width] = cdf
        grown[:, grow + old_width :] = 0.0
        self._cdf = grown
        self._pad = pad
        self._windows.clear()

    def _ready_stage(self, t_now: float) -> np.ndarray:
        """Refresh the stale rows; return every core's ready-time mean.

        A busy core's row is stale when its version moved since the row
        was filled, or when the running pmf's first impulse behind it
        fell more than 1e-9 before ``t_now`` (truncation at ``t_now``
        would then remove impulses).  Only those cores compute a ready
        pmf; any other row holds exactly what ``CoreState.ready_pmf``
        would return now.  Idle cores need no row of their own.  The
        CDF part of a refreshed row waits in ``_pending`` for the next
        rho stage, so a policy reading only ``ect`` builds no CDFs.
        """
        busy = self._busy
        stale = np.flatnonzero(
            busy & ((self._stamp != self._version) | (self._trunc < t_now - 1e-9))
        ).tolist()
        if stale:
            cores = self._cores
            starts: list[float] = []
            sizes: list[int] = []
            means: list[float] = []
            truncs: list[float] = []
            pending = self._pending
            for c in stale:
                core = cores[c]
                ready = CoreState.ready_pmf(core, t_now)
                pending[c] = ready
                starts.append(ready.start)
                sizes.append(ready.probs.size)
                means.append(ready.mean())
                truncs.append(core._ready_trunc_start)
            self._start[stale] = starts
            self._size[stale] = sizes
            self._mean[stale] = means
            self._trunc[stale] = truncs
            self._stamp[stale] = self._version[stale]
        # An idle core's ready pmf is PMF.delta(t_now, dt), whose mean
        # t_now + dt * 0.0 is t_now exactly.
        return np.where(busy, self._mean, t_now)

    def _write_rows(self) -> None:
        """Write the CDF rows of the ready pmfs refreshed since the last call."""
        for c, ready in self._pending.items():
            cdf = ready.cdf
            size = cdf.size
            if 2 * self._pad + 1 + size > self._cdf.shape[1]:
                self._reserve(self._pad, size)
            row = self._cdf[c]
            lo = row.size - self._pad - 1 - size  # F(size - 1)
            row[lo : lo + size] = cdf[::-1]
            row[:lo] = cdf[-1]
        self._pending.clear()

    def _rho_stage(self, tables: _TypeTables, deadline: float, t_now: float) -> np.ndarray:
        """On-time probability per candidate from the fresh CDF rows.

        Rows are scored node by node: each busy core of the node, plus
        one idle row when the node has an idle core.  For row ``r`` of
        start ``s`` and P-state ``p`` of first impulse ``t0``, the
        reference index at padded column ``l`` is ``floor(((d - t_l) -
        s)/dt + 1e-9)``, clamped to ``[-1, size - 1]``.  Only column 0
        is evaluated, as ``x0``; column ``l`` takes ``floor(x0) - l``.

        *Why that is exact.*  Column 0 runs the reference's own chain,
        so ``floor(x0)`` is its index there.  Within a P-state's own
        length the table's padded times are ``PMF.times``, ``t_l =
        fl(t0 + fl(dt*l))``.  Let ``u = 2**-53`` and ``A = |d| + |s| +
        M``, where ``|s|`` is the largest over the rows and ``M`` bounds
        every ``|t_l|`` and ``dt*l`` of the type (``span`` in the type
        tables).  Each rounding is off by at most ``u`` times its result:
        ``fl(dt*l)`` and ``+ t0`` put ``t_l`` within ``2.01u*M`` of
        ``t0 + dt*l``; ``d -`` and ``- s`` add ``2.01u*A``; ``/ dt`` adds
        ``1.01u*A/dt`` and ``+ 1e-9`` adds ``1.01u*A/dt + u``.  So with
        ``R = (d - s - t0)/dt + 1e-9`` in exact arithmetic, every column
        obeys ``|x_l - (R - l)| <= E = 8u*A/dt + u``.  The certificate
        is ``min(f, 1 - f) > bound`` for ``f = x0 - floor(x0)`` and
        ``bound = 2**-48 * (A/dt + 1) = 32u*(A/dt + 1) >= 2E + u``; the
        computed distance is exact, or within ``u/2`` when ``-1/2 < x0 <
        0``.  Then ``x0`` lies farther than ``2E`` from every integer,
        ``R`` farther than ``E``, and ``floor(x_l) = floor(R - l) =
        floor(R) - l = floor(x0) - l``.  Columns past a P-state's own
        length carry probability ``0.0``, so their index cannot change a
        term.

        Clamping ``floor(x0)`` to ``[-1, size + W - 2]`` (``W`` the type's
        width) keeps ``clamp(k0 - l)`` for every ``l < W``, and the row
        layout returns ``F(clamp(k))`` for every index the window
        touches, so one windowed gather reads every term.  Pairs within
        the bound take the reference's elementwise expression over all
        columns.  The per-node einsum then runs at the node's native
        width on exactly the reference's operand values.
        """
        _, _, _, times_stack, probs_stack, widths, first_times, span = tables
        width = times_stack.shape[2]
        if width - 1 > self._pad:
            self._reserve(width - 1, 0)
        if self._pending:
            self._write_rows()
        num_cores = self._num_cores
        dt = self._dt
        busy = self._busy.tolist()
        src: list[int] = []  # per row: the core whose CDF row it reads
        slots = [0] * num_cores  # per core: its row
        blocks: list[tuple[int, int, int]] = []  # (node, row lo, row hi)
        counts = [0] * self._num_nodes  # rows per node, in node order
        for node, node_core_ids in self._node_cores:
            lo = len(src)
            idle = -1
            for c in node_core_ids:
                if busy[c]:
                    slots[c] = len(src)
                    src.append(c)
                else:
                    if idle < 0:
                        idle = len(src)
                        src.append(num_cores)
                    slots[c] = idle
            blocks.append((node, lo, len(src)))
            counts[node] = len(src) - lo
        rows = np.array(src)
        self._start[num_cores] = t_now
        starts = self._start[rows]
        # Column 0 of the reference's chain, ((d - t0) - s) / dt + 1e-9.
        x0 = deadline - np.repeat(first_times, counts, axis=0)  # (R, P)
        np.subtract(x0, starts[:, None], out=x0)
        np.divide(x0, dt, out=x0)
        np.add(x0, 1e-9, out=x0)
        k0 = np.floor(x0)
        frac = np.subtract(x0, k0, out=x0)
        dist = np.minimum(frac, 1.0 - frac)
        bound = ((abs(deadline) + float(np.abs(starts).max()) + span) / dt + 1.0) * _ROUNDING
        sizes = self._size[rows]
        np.minimum(k0, (sizes + (width - 2))[:, None], out=k0)
        np.maximum(k0, -1.0, out=k0)
        origin = self._cdf.shape[1] - self._pad - 2  # column of F(0)
        first = origin - k0.astype(np.int64)  # (R, P): the column of F(k0)
        windows = self._windows.get(width)
        if windows is None:
            windows = self._windows[width] = sliding_window_view(self._cdf, width, axis=1)
        fr = windows[rows[:, None], first]  # (R, P, W): F(k0 - l) at column l
        if dist.min() <= bound:
            r, p = np.nonzero(dist <= bound)
            row_node = np.repeat(np.arange(self._num_nodes), counts)[r]
            fr[r, p] = self._exact_windows(
                times_stack[row_node, p], deadline, rows[r], starts[r], sizes[r]
            )
        # One sum of products per node over its contiguous row block:
        # einsum's u axis is an outer loop over independent (p, l)
        # reductions, so each row is bitwise the per-core two-operand
        # reduction, and broadcasting the node's shared probability
        # matrix avoids a gather copy.  Sliced to the node's native pad
        # width: the reduction must run over exactly the reference's
        # terms, because extra zero-probability columns — while
        # value-neutral term by term — change the inner loop's
        # accumulator blocking and therefore rounding.
        out = np.empty((rows.size, self._num_pstates))
        for node, lo, hi in blocks:
            w = widths[node]
            np.einsum(
                "pl,upl->up", probs_stack[node, :, :w], fr[lo:hi, :, :w], out=out[lo:hi]
            )
        return np.take(out, slots, axis=0).ravel()  # (C, P) scatter by row

    def _exact_windows(
        self,
        times: np.ndarray,
        deadline: float,
        rows: np.ndarray,
        starts: np.ndarray,
        sizes: np.ndarray,
    ) -> np.ndarray:
        """``F`` at the reference's own index, for pairs the bound cannot certify.

        One pair per entry: ``times`` (pairs, W) are the pair's padded
        times, ``rows`` its CDF row, ``starts``/``sizes`` that row's
        start and size.  The index is the reference's elementwise chain
        and clamp, column by column.
        """
        ks = np.floor(((deadline - times) - starts[:, None]) / self._dt + 1e-9).astype(np.int64)
        np.minimum(ks, (sizes - 1)[:, None], out=ks)
        np.maximum(ks, -1, out=ks)
        origin = self._cdf.shape[1] - self._pad - 2
        return self._cdf[rows[:, None], origin - ks]


class _OnDemandColumns:
    """The ``ect`` / ``prob_on_time`` source of one built candidate set.

    Both columns share one ready stage, run on the first read of either.
    The builder's rows describe the cores as of its latest build, so a
    column first read after a later build raises.
    """

    __slots__ = ("_builder", "_tables", "_deadline", "_t_now", "_generation", "_means")

    def __init__(
        self, builder: CandidateBuilder, tables: _TypeTables, deadline: float, t_now: float
    ) -> None:
        self._builder = builder
        self._tables = tables
        self._deadline = deadline
        self._t_now = t_now
        self._generation = builder._generation
        self._means: np.ndarray | None = None

    def _ready_stage(self) -> np.ndarray:
        if self._builder._generation != self._generation:
            raise RuntimeError("candidate columns read after the builder built a later set")
        if self._means is None:
            self._means = self._builder._ready_stage(self._t_now)
        return self._means

    def ect(self) -> np.ndarray:
        # Linearity of expectation: the ready-time mean plus EET.
        return (self._ready_stage()[:, None] + self._tables[0]).ravel()

    def prob_on_time(self) -> np.ndarray:
        self._ready_stage()
        return self._builder._rho_stage(self._tables, self._deadline, self._t_now)
