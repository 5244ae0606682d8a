"""Benchmark the compiled kernel backends; write ``BENCH_kernels.json``.

Measures, for every backend available in this environment (always
``numpy``; ``cext`` when a C compiler works):

* per-kernel microbenchmarks through the public ops — convolution,
  uncached tail truncation, ``prob_sum_at_most``,
  ``expectation_of_sum`` and the :class:`~repro.sim.mapper.
  CandidateBuilder` batched prob-on-time pass — so the numbers include
  dispatch overhead, not just raw loop speed;
* one-time warm-up cost (the C build) from
  :func:`repro.perf.kernels.describe_backends`, amortization noted as
  warm-up seconds per end-to-end second saved;
* end-to-end trials on the Fig. 2 workload, one per heuristic, on the
  numpy backend and on each compiled backend, reporting the speedup.

The gate (CI smoke): when a compiled backend is available, its
end-to-end time must not be slower than the numpy backend
(``--min-ratio``, default 1.0).  Trial results are compared against the
numpy path and reported; discrete divergence is allowed only as exact-
tie reordering (see tests/perf/conftest.py) and flagged in the report.

Usage::

    PYTHONPATH=src python scripts/bench_kernels.py --tasks 1000 \
        --seed 123 --reps 4 --out BENCH_kernels.json
    PYTHONPATH=src python scripts/bench_kernels.py --smoke
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import platform
import sys
import time

import numpy as np

from repro._version import __version__
from repro.api import Scenario
from repro.experiments.runner import TrialPlan, VariantSpec
from repro.perf.kernel_cache import PerfConfig
from repro.perf.kernels import available_backends, describe_backends, resolve_backend
from repro.sim.mapper import CandidateBuilder
from repro.sim.state import CoreState
from repro.stoch.distributions import discretized_gamma
from repro.stoch.ops import (
    convolve,
    expectation_of_sum,
    prob_sum_at_most,
    set_kernel_backend,
    shift,
    truncate_below,
)


def _best_of(fn, reps: int) -> float:
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _us_per_call(fn, calls: int, reps: int = 3) -> float:
    def loop():
        for _ in range(calls):
            fn()

    return _best_of(loop, reps) / calls * 1e6


def bench_kernel_micro(system, backend_name: str, reps: int, calls: int) -> dict:
    """Per-op µs with the named backend installed via the ops seam."""
    exec_pmf = discretized_gamma(mean=750.0, cv=0.2, dt=15.0)
    long_pmf = discretized_gamma(mean=1800.0, cv=0.2, dt=15.0)
    shifted = shift(exec_pmf, 100.0)
    cut = shifted.start + 0.4 * (shifted.stop - shifted.start)
    deadline = shifted.start + 0.7 * (shifted.stop - shifted.start) + long_pmf.stop
    operands = [exec_pmf, long_pmf, shifted]

    cluster = system.cluster
    dt = system.config.grid.dt
    cores = [
        CoreState(cid, int(cluster.core_node_index[cid]), dt)
        for cid in range(cluster.num_cores)
    ]
    task = system.workload.tasks[0]
    builder = CandidateBuilder(
        cores, system.table, backend=resolve_backend(backend_name)
    )

    def build_and_score():
        # ect and prob_on_time are computed when first read; read both
        # so the timing covers the full candidate scoring.
        cands = builder.build(task, task.arrival)
        cands.ect
        cands.prob_on_time

    previous = set_kernel_backend(resolve_backend(backend_name))
    try:
        out = {
            "convolve_us": round(
                _us_per_call(lambda: convolve(exec_pmf, long_pmf), calls, reps), 3
            ),
            "truncate_uncached_us": round(
                _us_per_call(lambda: truncate_below(shifted, cut), calls, reps), 3
            ),
            "prob_sum_at_most_us": round(
                _us_per_call(
                    lambda: prob_sum_at_most(shifted, long_pmf, deadline), calls, reps
                ),
                3,
            ),
            "expectation_of_sum_us": round(
                _us_per_call(lambda: expectation_of_sum(operands), calls, reps), 3
            ),
            "candidate_builder_us": round(
                _us_per_call(build_and_score, max(calls // 10, 20), reps),
                3,
            ),
        }
    finally:
        set_kernel_backend(previous)
    return out


def bench_trial(system, spec: VariantSpec, perf, reps: int):
    """Best-of-``reps`` wall time and the result of one full trial."""
    best = math.inf
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = TrialPlan(system=system, spec=spec, keep_outcomes=True, perf=perf).run()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _same_decisions(a, b) -> bool:
    return len(a.outcomes) == len(b.outcomes) and all(
        (x.core_id, x.pstate, x.discarded) == (y.core_id, y.pstate, y.discarded)
        for x, y in zip(a.outcomes, b.outcomes)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tasks", type=int, default=1000, help="tasks per trial")
    parser.add_argument("--seed", type=int, default=123, help="master seed")
    parser.add_argument("--reps", type=int, default=4, help="repetitions (best-of)")
    parser.add_argument(
        "--heuristics",
        nargs="+",
        default=["SQ", "MECT", "LL", "Random"],
        help="heuristics for the end-to-end trials",
    )
    parser.add_argument("--filters", default="en+rob", help="filter variant")
    parser.add_argument("--out", default="BENCH_kernels.json", help="report path")
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=1.0,
        help="fail when the compiled/numpy end-to-end speedup falls below this",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fast run for CI (200 tasks, 2 reps, fewer micro calls)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.tasks = min(args.tasks, 200)
        args.reps = min(args.reps, 2)
        args.heuristics = args.heuristics[:2]
    calls = 200 if args.smoke else 1000

    backends = available_backends()
    catalog = describe_backends()
    print(f"# backends available: {', '.join(backends)}")

    system = Scenario(
        args.heuristics[0], args.filters, seed=args.seed, num_tasks=args.tasks
    ).build_system()

    print(f"# end-to-end ({args.tasks} tasks, best of {args.reps})")
    report_backends = {}
    gate_failures = []
    trials = {}
    baselines = {}
    for heuristic in args.heuristics:
        spec = VariantSpec(heuristic, args.filters)
        numpy_s, ref_result = bench_trial(
            system, spec, PerfConfig(backend="numpy"), args.reps
        )
        baselines[spec.label] = (numpy_s, ref_result)
        trials[spec.label] = {
            "numpy_s": round(numpy_s, 4),
            "missed": ref_result.missed,
            "backends": {},
        }
        print(f"  {spec.label:>14}: numpy {numpy_s:.3f}s")

    for name in ("numpy", "cext"):
        entry = dict(catalog[name])
        if name not in backends:
            report_backends[name] = entry
            continue
        micro = bench_kernel_micro(system, name, args.reps, calls)
        entry["kernels"] = micro
        report_backends[name] = entry
        print(f"  {name} kernels: {json.dumps(micro)}")
        if name == "numpy":
            continue
        for heuristic in args.heuristics:
            spec = VariantSpec(heuristic, args.filters)
            numpy_s, ref_result = baselines[spec.label]
            trial_s, result = bench_trial(
                system, spec, PerfConfig(backend=name), args.reps
            )
            same = _same_decisions(result, ref_result)
            trials[spec.label]["backends"][name] = {
                "compiled_s": round(trial_s, 4),
                "speedup_vs_numpy": round(numpy_s / trial_s, 3),
                "missed": result.missed,
                "decisions_identical": same,
                "warmup_per_saved_s": round(
                    entry["warmup_s"] / max(numpy_s - trial_s, 1e-9), 2
                )
                if entry["warmup_s"]
                else 0.0,
            }
            print(
                f"  {spec.label:>14} +{name}: {trial_s:.3f}s  "
                f"({numpy_s / trial_s:.2f}x vs numpy)  "
                f"missed {result.missed}/{ref_result.missed}  "
                f"decisions_identical={same}"
            )
            if numpy_s / trial_s < args.min_ratio:
                gate_failures.append(
                    f"{name} {spec.label}: {numpy_s / trial_s:.3f}x vs numpy "
                    f"< {args.min_ratio}x"
                )

    report = {
        "format": "repro.bench_kernels/1",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "config": {
            "tasks": args.tasks,
            "seed": args.seed,
            "reps": args.reps,
            "heuristics": args.heuristics,
            "filters": args.filters,
            "smoke": args.smoke,
        },
        "trials": trials,
        "backends": report_backends,
    }
    path = pathlib.Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")

    if gate_failures:
        for failure in gate_failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    compiled = [n for n in backends if n != "numpy"]
    if compiled:
        print(f"OK: compiled backends {', '.join(compiled)} beat the numpy backend")
    else:
        print("OK: no compiled backend available here; numpy reference path measured")
    return 0


if __name__ == "__main__":
    sys.exit(main())
