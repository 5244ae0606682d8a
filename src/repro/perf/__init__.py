"""repro.perf — the hot-path performance layer.

One path, always on, strictly results-neutral (bitwise-identical trial
results and manifest digests to the reference computations the tests
keep under ``tests/perf``):

* a **content-addressed kernel cache** (:class:`KernelCache`) interning
  the results of pmf truncations, installed into :mod:`repro.stoch.ops`
  for the duration of one engine run;
* the **vectorized candidate builder**
  (:class:`~repro.sim.mapper.CandidateBuilder`), which assembles the
  whole per-arrival :class:`~repro.heuristics.base.CandidateSet` with
  batched array ops over per-core ready-time CDF rows that it
  refreshes only when stale;
* a **trial-scoped warm cache** (:class:`TrialCache`) sharing the
  kernel cache and the builder's type tables across every spec of a
  trial (all specs run the same :class:`~repro.sim.system.TrialSystem`).

All of it runs on numpy, the only kernel backend, so every
probability has one reduction order and mapping decisions do not
depend on how a run was launched.  :class:`PerfConfig` accepts only
``backend="numpy"``.

Measurements live in the repository benchmark (``BENCHMARK.json``,
``perfbench/``).
"""

from repro.perf.kernel_cache import CacheStats, InternedKernel, KernelCache, PerfConfig
from repro.perf.trial_cache import TrialCache

__all__ = [
    "CacheStats",
    "InternedKernel",
    "KernelCache",
    "PerfConfig",
    "TrialCache",
]
