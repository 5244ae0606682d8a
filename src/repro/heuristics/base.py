"""Shared heuristic machinery: candidate sets, contexts, selection helpers.

An *assignment* maps a single task to a node, multicore processor, core
and P-state (Section V-A); the simulator flattens (node, processor, core)
into a flat core id, so a candidate is a (core_id, pstate) pair.  For each
arriving task the mapper builds one :class:`CandidateSet` with dense,
aligned arrays over all ``num_cores * num_pstates`` candidates; filters
clear entries of its boolean feasibility mask; the heuristic then picks
one index (or none, in which case the task is discarded).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import NamedTuple, Protocol

import numpy as np

from repro.workload.task import Task

__all__ = [
    "Assignment",
    "CandidateColumns",
    "CandidateSet",
    "MappingContext",
    "Heuristic",
    "argmin_lexicographic",
]


class Assignment(NamedTuple):
    """The heuristic's decision: run the task on ``core_id`` at ``pstate``."""

    core_id: int
    pstate: int


class CandidateColumns(Protocol):
    """Computes a candidate set's two state-dependent columns on demand."""

    def ect(self) -> np.ndarray:
        """Expected completion time per candidate."""

    def prob_on_time(self) -> np.ndarray:
        """On-time probability per candidate."""


class CandidateSet:
    """Vectorized view of every potential assignment for one task.

    All arrays share length ``num_cores * num_pstates`` and candidate
    order (core-major, then P-state), so ``argmin`` indices translate
    directly to assignments.

    Attributes
    ----------
    core_ids, pstates:
        Candidate coordinates.
    queue_len:
        ``|MQ(i, j, k, t_l)|`` — tasks queued or executing on the
        candidate's core.
    eet:
        Expected execution time of the task under the candidate.
    eec:
        Expected energy consumption (Section V-A: ``EET * mu / epsilon``).
    ect:
        Expected completion time (core ready-time mean + EET).
    prob_on_time:
        ``rho(i, j, k, pi, t_l, z)`` — probability of meeting the deadline.
    mask:
        Feasibility mask; filters clear entries, heuristics respect it.

    The policies read different columns: SQ reads ``queue_len`` and
    ``eet``, Random only ``mask``, MECT ``ect``, LL ``eec`` and
    ``prob_on_time``; the energy filter reads ``eec``, the robustness
    filter ``prob_on_time``.  ``ect`` and ``prob_on_time`` are the costly
    ones (they need every busy core's ready-time pmf), so a set built
    with a ``columns`` source computes each the first time it is read
    and keeps it.  They describe the cores *as they are when read*:
    filters, heuristics and hooks must read them before the engine
    commits the mapping.  The engine then seals the set (:meth:`seal`), and
    any later read of either column raises :class:`RuntimeError`.
    """

    __slots__ = (
        "core_ids",
        "pstates",
        "queue_len",
        "eet",
        "eec",
        "mask",
        "_ect",
        "_prob_on_time",
        "_columns",
        "_sealed",
    )

    def __init__(
        self,
        core_ids: np.ndarray,
        pstates: np.ndarray,
        queue_len: np.ndarray,
        eet: np.ndarray,
        eec: np.ndarray,
        ect: np.ndarray | None = None,
        prob_on_time: np.ndarray | None = None,
        mask: np.ndarray | None = None,
        *,
        columns: CandidateColumns | None = None,
    ) -> None:
        if columns is None and (ect is None or prob_on_time is None):
            raise TypeError("CandidateSet needs ect and prob_on_time arrays or a columns source")
        n = core_ids.size
        for name, arr in (
            ("pstates", pstates),
            ("queue_len", queue_len),
            ("eet", eet),
            ("eec", eec),
            ("ect", ect),
            ("prob_on_time", prob_on_time),
        ):
            if arr is not None and arr.size != n:
                raise ValueError(f"candidate array {name!r} misaligned")
        if mask is None:
            mask = np.ones(n, dtype=bool)
        elif mask.size != n:
            raise ValueError("mask misaligned")
        self.core_ids = core_ids
        self.pstates = pstates
        self.queue_len = queue_len
        self.eet = eet
        self.eec = eec
        self.mask = mask
        self._ect = ect
        self._prob_on_time = prob_on_time
        self._columns = columns
        self._sealed = False

    def __len__(self) -> int:
        return int(self.core_ids.size)

    def __repr__(self) -> str:
        return f"CandidateSet({len(self)} candidates, {self.num_feasible} feasible)"

    def _check_open(self, name: str) -> None:
        if self._sealed:
            raise RuntimeError(
                f"CandidateSet.{name} read after the mapping was committed; "
                "read candidate columns before the engine changes core state"
            )

    @property
    def ect(self) -> np.ndarray:
        """Expected completion time per candidate (computed on first read)."""
        self._check_open("ect")
        if self._ect is None:
            self._ect = self._columns.ect()
        return self._ect

    @property
    def prob_on_time(self) -> np.ndarray:
        """On-time probability per candidate (computed on first read)."""
        self._check_open("prob_on_time")
        if self._prob_on_time is None:
            self._prob_on_time = self._columns.prob_on_time()
        return self._prob_on_time

    def seal(self) -> None:
        """Forbid further reads of ``ect`` and ``prob_on_time``.

        Called by the engine once it starts changing core state for the
        chosen assignment, after which those columns could no longer be
        computed as of decision time.
        """
        self._sealed = True

    @property
    def num_feasible(self) -> int:
        """How many candidates remain feasible."""
        return int(np.count_nonzero(self.mask))

    def assignment(self, index: int) -> Assignment:
        """Translate a candidate index into an :class:`Assignment`."""
        return Assignment(int(self.core_ids[index]), int(self.pstates[index]))


@dataclass(frozen=True)
class MappingContext:
    """Everything filters/heuristics may consult besides the candidates.

    Attributes
    ----------
    t_now:
        The mapping time-step ``t_l`` (the task's arrival time).
    task:
        The task being mapped.
    energy_estimate:
        The heuristic's running estimate of remaining energy
        ``zeta(t_l)`` (budget minus EEC of all previous assignments).
    tasks_left:
        ``T_left(t_l)``: tasks that have *not yet arrived* (excludes the
        one being mapped).
    avg_queue_depth:
        Tasks queued or executing per core, cluster-wide, at ``t_l``.
    """

    t_now: float
    task: Task
    energy_estimate: float
    tasks_left: int
    avg_queue_depth: float


class Heuristic(abc.ABC):
    """Interface of an immediate-mode mapping heuristic."""

    #: Short display name ("SQ", "MECT", ...).
    name: str = "?"

    @abc.abstractmethod
    def select(self, cands: CandidateSet, ctx: MappingContext) -> int | None:
        """Pick a candidate index among ``cands.mask``, or ``None`` to discard."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def argmin_lexicographic(
    mask: np.ndarray, primary: np.ndarray, secondary: np.ndarray | None = None
) -> int | None:
    """Index of the masked minimum of ``primary``; ties broken by ``secondary``.

    Remaining ties resolve to the lowest candidate index, which makes all
    heuristics fully deterministic.  Returns ``None`` when nothing is
    feasible.
    """
    feasible = np.flatnonzero(mask)
    if feasible.size == 0:
        return None
    p = primary[feasible]
    best = p.min()
    contenders = feasible[p <= best]
    if secondary is None or contenders.size == 1:
        return int(contenders[0])
    s = secondary[contenders]
    return int(contenders[int(np.argmin(s))])
