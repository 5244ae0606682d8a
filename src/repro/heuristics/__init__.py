"""Immediate-mode resource-allocation heuristics (paper Section V).

Each heuristic maps one arriving task to a (core, P-state) *assignment*
chosen from the set of feasible assignments left after filtering.  All
four of the paper's heuristics are provided:

* :class:`~repro.heuristics.shortest_queue.ShortestQueue` (SQ) [SmC09]
* :class:`~repro.heuristics.mect.MinimumExpectedCompletionTime` (MECT) [MaA99]
* :class:`~repro.heuristics.lightest_load.LightestLoad` (LL) — the paper's
  new heuristic
* :class:`~repro.heuristics.random_heuristic.RandomAssignment` (Random)

Heuristics operate on a vectorized :class:`~repro.heuristics.base.CandidateSet`
whose arrays hold, per candidate assignment, the expectation quantities of
Section V-A (EET, ECT, EEC) and the on-time probability rho.
"""

from repro.heuristics.base import Assignment, CandidateSet, Heuristic, MappingContext
from repro.heuristics.shortest_queue import ShortestQueue
from repro.heuristics.mect import MinimumExpectedCompletionTime
from repro.heuristics.lightest_load import LightestLoad
from repro.heuristics.random_heuristic import RandomAssignment
from repro.heuristics.registry import HEURISTICS, build_heuristic

__all__ = [
    "Assignment",
    "CandidateSet",
    "Heuristic",
    "MappingContext",
    "ShortestQueue",
    "MinimumExpectedCompletionTime",
    "LightestLoad",
    "RandomAssignment",
    "HEURISTICS",
    "build_heuristic",
]
