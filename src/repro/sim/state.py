"""Per-core runtime state and the shared arrays a mapper reads it through.

The dominant cost of a mapping event is computing, for every busy core,
the *ready-time* pmf — the completion distribution of everything already
on the core (Section IV-B).  :meth:`CoreState.ready_pmf` computes it from

* the convolution of queued tasks' execution pmfs, cached and extended
  *incrementally* whenever that is exact (appending a pmf at least as
  long as every queued one convolves last in the sorted fold of
  :func:`~repro.stoch.ops.convolve_many`, so one incremental convolution
  reproduces the full recomputation bit for bit) and invalidated
  otherwise.  The extension is deferred to the next ready-pmf read, so a
  trial whose policy never reads a ready pmf convolves nothing, and
* the running task's completion pmf truncated at ``t_now``.  Truncation
  at a later time ``t`` changes nothing as long as the result has no
  impulse before ``t``, so each call records that first-impulse time
  (``_ready_trunc_start``) for the caller that keeps the result.

The ready pmf itself is not cached here: the
:class:`~repro.sim.mapper.CandidateBuilder` keeps one CDF row per core
and refreshes only the stale ones.  To find them without visiting the
cores, each core writes three entries into arrays shared with its
siblings on every mutation — its :attr:`CoreState.assigned_count`
(occupancy), its mutation counter (version) and whether it is running a
task (busy).  :func:`shared_arrays` binds a core list to one set of
these arrays.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.stoch.ops import convolve, convolve_many, shift, truncate_below
from repro.stoch.pmf import PMF
from repro.workload.task import Task

__all__ = [
    "RunningTask",
    "QueuedTask",
    "CoreState",
    "CoreArrays",
    "RollingEnergyBudget",
    "shared_arrays",
]


@dataclass(frozen=True)
class RunningTask:
    """The task currently executing on a core.

    ``completion_time`` is the *actual* (sampled) completion instant; the
    scheduler's predictions never read it — they only see ``exec_pmf``
    and ``start_time``.
    """

    task: Task
    pstate: int
    exec_pmf: PMF
    start_time: float
    completion_time: float


@dataclass(frozen=True)
class QueuedTask:
    """A task waiting on a core, with its committed P-state and pmf."""

    task: Task
    pstate: int
    exec_pmf: PMF


class CoreArrays(NamedTuple):
    """Per-core arrays kept current by :class:`CoreState`'s mutators.

    Entry ``i`` of each belongs to the core bound to slot ``i``.
    """

    occupancy: np.ndarray  # int64: assigned_count
    version: np.ndarray  # int64: the core's mutation counter
    busy: np.ndarray  # bool: running is not None


def _zeroed_arrays(n: int) -> CoreArrays:
    return CoreArrays(
        np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)
    )


class CoreState:
    """Mutable state of one core during a trial."""

    __slots__ = (
        "core_id",
        "node_index",
        "dt",
        "running",
        "queue",
        "epoch",
        "_version",
        "_queue_conv",
        "_queue_tail",
        "_queue_maxlen",
        "_arrays",
        "_slot",
        "_ready_trunc_start",
    )

    def __init__(self, core_id: int, node_index: int, dt: float) -> None:
        self.core_id = core_id
        self.node_index = node_index
        self.dt = dt
        self.running: RunningTask | None = None
        self.queue: deque[QueuedTask] = deque()
        self.epoch = 0
        self._version = 0
        self._queue_conv: PMF | None = None
        # Pmfs appended since ``_queue_conv`` was last folded; each one
        # is no shorter than everything before it, so folding them in
        # order is the incremental extension, just done later.
        self._queue_tail: list[PMF] = []
        self._queue_maxlen = 0
        # Private one-slot arrays until shared_arrays() rebinds them.
        self._arrays = _zeroed_arrays(1)
        self._slot = 0
        # First impulse time of the running completion pmf behind the
        # last ready_pmf result: that result stays exact for any later
        # t_now up to this time (+1e-9) until the next mutation.
        self._ready_trunc_start = 0.0

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------

    @property
    def assigned_count(self) -> int:
        """``|MQ(i, j, k, t_l)|``: tasks queued for or in execution."""
        return len(self.queue) + (1 if self.running is not None else 0)

    @property
    def is_idle(self) -> bool:
        """Whether the core has no work at all."""
        return self.running is None and not self.queue

    def _sync_arrays(self) -> None:
        arrays, slot = self._arrays, self._slot
        arrays.occupancy[slot] = len(self.queue) + (self.running is not None)
        arrays.version[slot] = self._version
        arrays.busy[slot] = self.running is not None

    # ------------------------------------------------------------------
    # Mutations (each bumps the version and syncs the shared arrays)
    # ------------------------------------------------------------------

    def enqueue(self, entry: QueuedTask) -> None:
        """Append a task to the core's FIFO queue.

        The cached queue convolution is extended *incrementally* when
        that is provably exact: ``convolve_many`` folds smallest-first
        with a stable sort, so a new pmf no shorter than every queued
        one would convolve last anyway, and
        ``convolve(cached, new)`` reproduces the full recomputation
        bitwise.  The extension waits in ``_queue_tail`` until a ready
        pmf is read.  Shorter pmfs fall back to invalidation (the kernel
        cache makes the eventual recomputation cheap).
        """
        if self.running is None:
            raise RuntimeError("enqueue on an idle core; start the task instead")
        n = len(entry.exec_pmf)
        if not self.queue:
            # convolve_many([x]) is x itself.
            self._queue_conv = entry.exec_pmf
            self._queue_maxlen = n
        elif self._queue_conv is not None and n >= self._queue_maxlen:
            self._queue_tail.append(entry.exec_pmf)
            self._queue_maxlen = n
        else:
            self._invalidate_queue_conv()
        self.queue.append(entry)
        self._version += 1
        self._sync_arrays()

    def set_running(self, running: RunningTask) -> None:
        """Begin executing a task (the core must not be busy)."""
        if self.running is not None:
            raise RuntimeError("core already running a task")
        self.running = running
        self._version += 1
        self._sync_arrays()

    def clear_running(self) -> None:
        """Mark the running task finished."""
        if self.running is None:
            raise RuntimeError("no running task to clear")
        self.running = None
        self._version += 1
        self._sync_arrays()

    def interrupt(self) -> RunningTask:
        """Forcibly remove the running task (fault injection only).

        Bumps :attr:`epoch`, invalidating the completion event the
        engine scheduled for the interrupted task; the model's normal
        run-to-completion guarantee (Section III-B) is suspended only
        at fault transitions.  Returns the removed task.
        """
        running = self.running
        if running is None:
            raise RuntimeError("no running task to interrupt")
        self.running = None
        self.epoch += 1
        self._version += 1
        self._sync_arrays()
        return running

    def drain_queue(self) -> list[QueuedTask]:
        """Remove and return every queued task (fault orphaning), FIFO order."""
        if not self.queue:
            return []
        entries = list(self.queue)
        self.queue.clear()
        self._version += 1
        self._invalidate_queue_conv()
        self._sync_arrays()
        return entries

    def pop_next(self) -> QueuedTask | None:
        """Remove and return the next queued task (FIFO), if any."""
        if not self.queue:
            return None
        entry = self.queue.popleft()
        self._version += 1
        self._invalidate_queue_conv()
        self._sync_arrays()
        return entry

    def remove_queued(self, task_id: int) -> QueuedTask | None:
        """Remove a specific queued task (cancellation extension)."""
        for entry in self.queue:
            if entry.task.task_id == task_id:
                self.queue.remove(entry)
                self._version += 1
                self._invalidate_queue_conv()
                self._sync_arrays()
                return entry
        return None

    # ------------------------------------------------------------------
    # Ready-time distribution
    # ------------------------------------------------------------------

    def _invalidate_queue_conv(self) -> None:
        self._queue_conv = None
        self._queue_tail.clear()

    def _queue_convolution(self) -> PMF | None:
        """Cached convolution of queued tasks' execution pmfs."""
        if not self.queue:
            return None
        if self._queue_conv is None:
            self._queue_conv = convolve_many([e.exec_pmf for e in self.queue])
            self._queue_maxlen = max(len(e.exec_pmf) for e in self.queue)
        elif self._queue_tail:
            conv = self._queue_conv
            for pmf in self._queue_tail:
                conv = convolve(conv, pmf)
            self._queue_conv = conv
            self._queue_tail.clear()
        return self._queue_conv

    def ready_pmf(self, t_now: float) -> PMF:
        """Distribution of when this core can start a newly-mapped task.

        Computed afresh on every call (the queue convolution is the only
        part cached here); records the truncated running pmf's start in
        ``_ready_trunc_start``.
        """
        if self.running is None:
            return PMF.delta(t_now, self.dt)
        running_c = truncate_below(
            shift(self.running.exec_pmf, self.running.start_time), t_now
        )
        qconv = self._queue_convolution()
        self._ready_trunc_start = running_c.start
        return running_c if qconv is None else convolve(running_c, qconv)


def shared_arrays(cores: Sequence[CoreState]) -> CoreArrays:
    """The arrays holding every core's occupancy, version and busy flag.

    Entry ``i`` belongs to ``cores[i]`` and follows its mutations.  Cores
    already bound to one set of arrays in list order keep it (so several
    mappers over one core list share it); otherwise they are rebound to
    fresh arrays seeded with their current state.
    """
    arrays = cores[0]._arrays if cores else None
    if arrays is None or arrays.occupancy.size != len(cores) or any(
        core._arrays is not arrays or core._slot != slot for slot, core in enumerate(cores)
    ):
        arrays = _zeroed_arrays(len(cores))
        for slot, core in enumerate(cores):
            core._arrays = arrays
            core._slot = slot
            core._sync_arrays()
    return arrays


class RollingEnergyBudget:
    """Token-bucket energy allowance for continuous service.

    The batch model grants the whole trial its budget up front
    (``zeta_max = budget_mult * t_avg * p_avg * num_tasks``); an
    always-on service has no trial to amortize over, so the allowance
    *accrues*: joules arrive at a constant ``rate`` and pool up to
    ``cap``, and every mapping draws its estimated energy cost from the
    pool.  The heuristic's energy estimate ``zeta`` becomes the pool's
    current level.

    Draws clamp at zero — the energy filter then sees an empty allowance
    (and prunes everything but the cheapest assignments) rather than a
    meaningless negative estimate; the clamped shortfall accumulates in
    :attr:`deficit` for diagnostics.  Invariant: ``0 <= remaining <=
    cap`` at all times.
    """

    __slots__ = ("rate", "cap", "_tokens", "_t", "_deficit", "_drawn")

    def __init__(self, rate: float, cap: float, *, initial: float | None = None) -> None:
        if rate < 0.0:
            raise ValueError(f"accrual rate must be non-negative, got {rate}")
        if not (cap > 0.0):
            raise ValueError(f"cap must be positive, got {cap}")
        tokens = cap if initial is None else float(initial)
        if not (0.0 <= tokens <= cap):
            raise ValueError(f"initial level {tokens} outside [0, {cap}]")
        self.rate = float(rate)
        self.cap = float(cap)
        self._tokens = tokens
        self._t = 0.0
        self._deficit = 0.0
        self._drawn = 0.0

    @property
    def remaining(self) -> float:
        """Allowance pooled as of the last :meth:`advance`, in joules."""
        return self._tokens

    @property
    def deficit(self) -> float:
        """Total joules requested beyond the pooled allowance."""
        return self._deficit

    @property
    def drawn(self) -> float:
        """Total joules requested by mappings."""
        return self._drawn

    @property
    def time(self) -> float:
        """Simulation time of the last :meth:`advance`."""
        return self._t

    def advance(self, t: float) -> float:
        """Accrue allowance up to time ``t``; return the new level."""
        if t < self._t:
            raise ValueError(f"time moved backwards: {t} < {self._t}")
        self._tokens = min(self.cap, self._tokens + self.rate * (t - self._t))
        self._t = t
        return self._tokens

    def peek(self, t: float | None = None) -> float:
        """The level an :meth:`advance` to ``t`` would return, read-only.

        ``t=None`` (or a time at/before the last advance) reads the
        current level.
        """
        if t is None or t <= self._t:
            return self._tokens
        return min(self.cap, self._tokens + self.rate * (t - self._t))

    def draw(self, joules: float) -> float:
        """Consume ``joules`` (clamped at empty); return the new level."""
        if joules < 0.0:
            raise ValueError(f"draw must be non-negative, got {joules}")
        self._drawn += joules
        short = joules - self._tokens
        if short > 0.0:
            self._deficit += short
            self._tokens = 0.0
        else:
            self._tokens -= joules
        return self._tokens
