"""The reproduction's benchmark: one workload per call, every metric checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes an untraced pass and then a traced replay of the
same calls and reports the per-layer metrics.  ``--smoke`` shrinks
every workload to a few seconds for tests.  Before the last line the
run prints a JSON header (git sha, machine, versions, scenario digests)
and one ``workload metric value unit`` line per metric; the last line
is the JSON result.  See ``perfbench/README.md`` for the workloads and
the metric table.

Calls into the program run back to back in a closed loop on the host;
inside each call the simulated arrival process is open loop.  An
operation is one trial or one service run (an ensemble call stands for
several).  Every call is checked (task conservation, one repeated seed
for determinism), and a failed check counts its operations as failed
instead of ending the run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "sim_tasks_per_s": "tasks/s",
    "missed_frac": "ratio",
    "peak_rss_mb": "MB",
    "wall_p50_s": "s",
}
PER_LAYER = {
    "engine.arrival.count": "count",
    "engine.arrival.self_s": "s",
    "engine.arrival.us_p50": "us",
    "engine.arrival.us_p99": "us",
    "engine.completion.count": "count",
    "engine.completion.self_s": "s",
    "engine.score.self_s": "s",
    "engine.loop.self_s": "s",
    "mapper.build.count": "count",
    "mapper.build.self_s": "s",
    "state.ready_pmf.count": "count",
    "state.ready_pmf.s": "s",
    "state.ready_pmf.per_arrival": "count",
    "filters.apply.self_s": "s",
    "filters.kept_ratio": "ratio",
    "filters.empty": "count",
    "heuristics.select.count": "count",
    "heuristics.select.self_s": "s",
    "perf.cache.hits": "count",
    "perf.cache.misses": "count",
    "perf.cache.hit_rate": "ratio",
    "system.build.count": "count",
    "system.build.s": "s",
    "workload.pmf_table.s": "s",
    "executor.busy_frac": "ratio",
    "executor.overhead_s": "s",
    "executor.trials_dispatched": "count",
    "executor.trials_retried": "count",
    "executor.trials_quarantined": "count",
    "service.windows.count": "count",
    "service.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}

#: The traced pass must explain at least this share of its wall time by
#: the self time of the layer spans; the rest is glue between layers.
COVERAGE_SLACK = 0.10
#: Setup samples per run: this process plus fresh child processes.
SETUP_SAMPLES = 3
#: A call slower than this counts as timed out (failed).
CALL_TIMEOUT_S = 150.0
#: The kernel backend every run pins, whatever REPRO_PERF_BACKEND says.
BACKEND = "numpy"
HEURISTICS = ("SQ", "MECT", "LL", "Random")
VARIANTS = ("none", "en", "rob", "en+rob")


def import_program() -> float:
    """Import the checkout's ``repro`` and its numpy; return the seconds taken."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401

    import repro.api

    if not Path(repro.api.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"repro imported from {repro.api.__file__}, not {SRC}")
    return time.perf_counter() - start


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _span(tracer: Any, name: str) -> Any:
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


@dataclass
class Call:
    """What one call into the program did and whether its output held."""

    seconds: float
    attempted: int
    failed: int = 0
    tasks: int = 0
    offered: int = 0
    missed: int = 0
    output: Any = None
    errors: list[str] = field(default_factory=list)


def trial_errors(result: Any) -> list[str]:
    """Task-conservation violations of one scored trial."""
    errors = []
    if result.missed != result.discarded + result.late + result.energy_cutoff:
        errors.append(f"{result.heuristic}/{result.variant}: missed != discarded+late+cutoff")
    if result.missed + result.completed_within != result.num_tasks:
        errors.append(f"{result.heuristic}/{result.variant}: missed+within != num_tasks")
    return errors


class Workload:
    """One benchmark workload: how to set it up, call the program, check it."""

    name = ""
    #: Calls every pass makes however short ``--seconds`` is; the missed
    #: fraction is taken over exactly these, so it repeats for a fixed
    #: seed however many more calls fit in the time.
    min_calls = 1
    n_jobs = 1
    #: Operations one call into the program stands for.
    trials = 1

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke

    @property
    def tasks_per_call(self) -> int:
        """Tasks one call offers; a failed call misses all of them."""
        raise NotImplementedError

    def op_seed(self, index: int) -> int:
        from repro.rng import spawn_trial_seed

        return spawn_trial_seed(self.seed, index)

    def setup_scenario(self) -> Any:
        raise NotImplementedError

    def digests(self) -> dict[str, str]:
        raise NotImplementedError

    def run(self, index: int, *, n_jobs: int, tracer: Any = None, metrics: Any = None) -> Call:
        raise NotImplementedError

    def repeat_errors(self, first: Call) -> list[str]:
        """Re-run the first call's seed; differences are errors."""
        raise NotImplementedError


class _Ensemble(Workload):
    """Paired trials through ``api.run_ensemble``, ``trials`` per call."""

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.scenarios = self.make_scenarios()

    def make_scenarios(self) -> list[Any]:
        raise NotImplementedError

    @property
    def tasks_per_call(self) -> int:
        return self.trials * sum(s.resolved_config().workload.num_tasks for s in self.scenarios)

    def setup_scenario(self) -> Any:
        return replace(self.scenarios[0], seed=self.op_seed(0))

    def digests(self) -> dict[str, str]:
        return {s.label: s.digest() for s in self.scenarios}

    def run(self, index: int, *, n_jobs: int, tracer: Any = None, metrics: Any = None) -> Call:
        from repro import api

        start = time.perf_counter()
        ens = api.run_ensemble(
            self.scenarios,
            self.trials,
            base_seed=self.op_seed(index),
            n_jobs=n_jobs,
            metrics=metrics,
            perf=api.PerfConfig(backend=BACKEND),
        )
        call = Call(seconds=time.perf_counter() - start, attempted=self.trials)
        per_trial = list(zip(*(ens.results[s.spec] for s in self.scenarios)))
        call.failed = self.trials - len(per_trial)
        if call.failed:
            call.errors.append(f"{call.failed} trial(s) lost or quarantined")
            call.offered = call.missed = call.failed * self.tasks_per_call // self.trials
        for results in per_trial:
            errors = [e for r in results for e in trial_errors(r)]
            call.errors += errors
            call.failed += bool(errors)
            for r in results:
                call.tasks += r.num_tasks
                call.offered += r.num_tasks
                call.missed += r.missed
        call.output = per_trial
        return call

    def repeat_errors(self, first: Call) -> list[str]:
        from repro import api
        from repro.rng import spawn_trial_seed

        k = self.seed % len(self.scenarios)
        scenario = replace(
            self.scenarios[k], seed=spawn_trial_seed(self.op_seed(0), 0)
        )
        again = api.run_trial(scenario, perf=api.PerfConfig(backend=BACKEND))
        if not first.output or first.output[0][k] != again:
            return [f"{scenario.label}: repeated seed gave a different TrialResult"]
        return []


class Grid(_Ensemble):
    """The paper's 16 variants on one paired 1,000-task trial per call."""

    name = "grid"
    min_calls = 2

    def make_scenarios(self) -> list[Any]:
        from repro import api

        tasks = 60 if self.smoke else 1000
        return [api.Scenario(h, v, num_tasks=tasks) for h in HEURISTICS for v in VARIANTS]


class ManySmall(_Ensemble):
    """MECT en+rob over batches of small paired trials on every core."""

    name = "many-small"
    min_calls = 2

    def __init__(self, seed: int, smoke: bool) -> None:
        self.trials = 4 if smoke else 16
        self.n_jobs = nproc()
        super().__init__(seed, smoke)

    def make_scenarios(self) -> list[Any]:
        from repro import api

        return [api.Scenario("MECT", "en+rob", num_tasks=30 if self.smoke else 100)]


class ServiceOverload(Workload):
    """Poisson traffic at three times the equilibrium rate, rolling budget."""

    name = "service-overload"
    min_calls = 4

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        from repro import api

        self.config = api.ServiceConfig(
            traffic="poisson", rate_mult=3.0, task_limit=150 if smoke else 2000
        )
        self.scenario = api.Scenario(
            "MECT", "en+rob", name=self.name, mode="service", service=self.config
        )

    @property
    def tasks_per_call(self) -> int:
        return self.config.task_limit

    def setup_scenario(self) -> Any:
        return replace(self.scenario, seed=self.op_seed(0))

    def digests(self) -> dict[str, str]:
        return {self.scenario.label: self.scenario.digest()}

    def run(self, index: int, *, n_jobs: int, tracer: Any = None, metrics: Any = None) -> Call:
        from repro import api

        scenario = replace(self.scenario, seed=self.op_seed(index))
        with _span(tracer, "system.build"):
            system = scenario.build_system()
        start = time.perf_counter()
        with _span(tracer, "service.run"):
            result = api.run_service(
                scenario, self.config, system=system, perf=api.PerfConfig(backend=BACKEND)
            )
        call = Call(seconds=time.perf_counter() - start, attempted=1)
        totals = result.totals
        offered = self.config.task_limit
        if totals.mapped + totals.discarded + totals.shed != offered:
            call.errors.append("arrivals != mapped + discarded + shed")
        if totals.completed != totals.on_time + totals.late:
            call.errors.append("completed != on_time + late")
        if totals.completed != totals.mapped:
            call.errors.append("mapped tasks did not all complete")
        if result.truncated or result.windows[-1].in_system_end != 0:
            call.errors.append("tasks left in the system at the end")
        call.failed = int(bool(call.errors))
        call.tasks = totals.mapped + totals.discarded
        call.offered = offered
        call.missed = offered - totals.on_time
        call.output = [json.dumps(w.to_dict(), sort_keys=True) for w in result.windows]
        return call

    def repeat_errors(self, first: Call) -> list[str]:
        again = self.run(0, n_jobs=1)
        if again.output != first.output:
            return ["repeated seed gave different window totals"]
        return []


WORKLOADS: dict[str, Callable[[int, bool], Workload]] = {
    w.name: w for w in (Grid, ManySmall, ServiceOverload)
}


@dataclass
class Pass:
    calls: list[Call]
    wall: float

    @property
    def attempted(self) -> int:
        return sum(call.attempted for call in self.calls)

    @property
    def failed(self) -> int:
        return sum(call.failed for call in self.calls)


def run_call(workload: Workload, index: int, **kwargs: Any) -> Call:
    """One call; an exception or a timeout fails it instead of the run."""
    start = time.perf_counter()
    try:
        call = workload.run(index, **kwargs)
    except Exception:
        traceback.print_exc()
        return Call(
            seconds=time.perf_counter() - start,
            attempted=workload.trials,
            failed=workload.trials,
            offered=workload.tasks_per_call,
            missed=workload.tasks_per_call,
            errors=["raised"],
        )
    if call.seconds > CALL_TIMEOUT_S:
        call.errors.append(f"timed out ({call.seconds:.1f} s)")
        call.failed = call.attempted
    return call


def timed_pass(workload: Workload, seconds: float, *, n_jobs: int, min_calls: int) -> Pass:
    """Call the program back to back for about ``seconds``.

    After ``min_calls`` calls, another one starts only while it is
    expected to end within half a call of the deadline, so the measured
    time is centred on ``seconds`` rather than always over it.
    """
    calls: list[Call] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(calls) >= min_calls:
            typical = statistics.median(call.seconds for call in calls)
            if elapsed + typical / 2 > seconds:
                break
        calls.append(run_call(workload, len(calls), n_jobs=n_jobs))
    return Pass(calls, time.perf_counter() - start)


def replay(workload: Workload, count: int, **kwargs: Any) -> Pass:
    """Make calls ``0..count-1`` again (same inputs as a timed pass)."""
    start = time.perf_counter()
    calls = [run_call(workload, i, **kwargs) for i in range(count)]
    return Pass(calls, time.perf_counter() - start)


def setup(workload_name: str, seed: int, smoke: bool) -> tuple[float, Workload]:
    """Imports, the first trial system and backend resolution, timed together."""
    import_s = import_program()
    start = time.perf_counter()
    from repro.perf.kernels import resolve_backend

    workload = WORKLOADS[workload_name](seed, smoke)
    workload.setup_scenario().build_system()
    resolve_backend(BACKEND)
    return import_s + time.perf_counter() - start, workload


def setup_in_child(args: argparse.Namespace) -> float:
    """Time :func:`setup` in a fresh interpreter (nothing imported yet)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def peak_rss_mb() -> float:
    """Peak RSS of this process and of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(workload: Workload, timed: Pass) -> dict[str, float]:
    calls = timed.calls
    prefix = calls[: workload.min_calls]
    return {
        "sim_tasks_per_s": sum(call.tasks for call in calls) / sum(call.seconds for call in calls),
        "missed_frac": sum(call.missed for call in prefix) / sum(call.offered for call in prefix),
        "peak_rss_mb": peak_rss_mb(),
        # Per trial: an ensemble call of n trials on n_jobs workers
        # stands for n trials of n_jobs * wall / n host seconds each.
        "wall_p50_s": statistics.median(
            call.seconds * workload.n_jobs / call.attempted for call in calls
        ),
    }


def per_layer(
    workload: Workload, seconds: float
) -> tuple[dict[str, float], list[Pass], list[str]]:
    """Untraced pass, traced replay of the same calls, layer metrics."""
    from layers import Tracer, busy_frac, instrument, percentile
    from repro.api import MetricsRegistry

    untraced = timed_pass(workload, seconds / 3, n_jobs=workload.n_jobs, min_calls=1)
    count = len(untraced.calls)
    passes = [untraced]
    metrics = {name: 0.0 for name in PER_LAYER}
    serial = untraced
    if workload.n_jobs > 1:
        serial = replay(workload, count, n_jobs=1)
        registry = MetricsRegistry()
        counted = replay(workload, count, n_jobs=workload.n_jobs, metrics=registry)
        passes += [serial, counted]
        for name in ("dispatched", "retried", "quarantined"):
            metrics[f"executor.trials_{name}"] = registry.counter(f"executor.trials_{name}")
    tracer = Tracer()
    with instrument(tracer):
        traced = replay(workload, count, n_jobs=1, tracer=tracer)
    passes.append(traced)
    # Every replay (serial, counted, traced) must reproduce the outputs.
    errors = [
        f"call {i}: a replay's output differs from the untraced pass"
        for p in passes[1:]
        for i, (a, b) in enumerate(zip(untraced.calls, p.calls))
        if a.output != b.output
    ]

    layers = tracer.layers()

    def get(name: str, key: str) -> float:
        return layers[name][key] if name in layers else 0.0

    arrivals = get("engine.arrival", "count")
    ready_pmfs = get("state.ready_pmf", "count")
    kept = tracer.counters.get("filters.kept", 0)
    arrival_s = layers["engine.arrival"]["durations_s"] if arrivals else ()
    hits = tracer.counters.get("perf.cache.hits", 0)
    misses = tracer.counters.get("perf.cache.misses", 0)
    feasible = tracer.counters.get("filters.feasible", 0)
    metrics.update({
        "engine.arrival.count": arrivals,
        "engine.arrival.self_s": get("engine.arrival", "self_s"),
        "engine.arrival.us_p50": percentile(arrival_s, 50) * 1e6 if arrivals else 0.0,
        "engine.arrival.us_p99": percentile(arrival_s, 99) * 1e6 if arrivals else 0.0,
        "engine.completion.count": get("engine.completion", "count"),
        "engine.completion.self_s": get("engine.completion", "self_s"),
        "engine.score.self_s": get("engine.score", "self_s"),
        "engine.loop.self_s": get("engine.loop", "self_s"),
        "mapper.build.count": get("mapper.build", "count"),
        "mapper.build.self_s": get("mapper.build", "self_s"),
        "state.ready_pmf.count": ready_pmfs,
        "state.ready_pmf.s": get("state.ready_pmf", "total_s"),
        "state.ready_pmf.per_arrival": ready_pmfs / arrivals if arrivals else 0.0,
        "filters.apply.self_s": get("filters.apply", "self_s"),
        "filters.kept_ratio": kept / feasible if feasible else 0.0,
        "filters.empty": tracer.counters.get("filters.empty", 0),
        "heuristics.select.count": get("heuristics.select", "count"),
        "heuristics.select.self_s": get("heuristics.select", "self_s"),
        "perf.cache.hits": hits,
        "perf.cache.misses": misses,
        "perf.cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "system.build.count": get("system.build", "count"),
        "system.build.s": get("system.build", "total_s"),
        "workload.pmf_table.s": get("workload.pmf_table", "total_s"),
        "service.self_s": get("service.run", "self_s"),
        "trace.overhead_frac": traced.wall / serial.wall - 1.0,
        "trace.coverage": sum(v["self_s"] for v in layers.values()) / traced.wall,
    })
    if isinstance(workload, _Ensemble):
        # Serial trials keep one worker busy for their summed host time.
        busy = sum(call.seconds for call in serial.calls)
        metrics["executor.busy_frac"] = busy_frac(busy, workload.n_jobs, untraced.wall)
        metrics["executor.overhead_s"] = untraced.wall - busy / workload.n_jobs
    else:
        metrics["service.windows.count"] = sum(len(call.output or ()) for call in traced.calls)
    if metrics["trace.coverage"] < 1.0 - COVERAGE_SLACK:
        errors.append(
            f"layer spans cover {metrics['trace.coverage']:.3f} of the traced wall, "
            f"below 1 - {COVERAGE_SLACK}"
        )
    return metrics, passes, errors


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def header(workload: Workload, args: argparse.Namespace) -> dict[str, Any]:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": nproc(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": BACKEND,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "n_jobs": workload.n_jobs,
        "scenario_digests": workload.digests(),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny workload sizes, for tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    setup_s, workload = setup(args.workload, args.seed, args.smoke)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    print(json.dumps({"header": header(workload, args)}), flush=True)

    errors: list[str] = []
    if args.trace:
        metrics, passes, errors = per_layer(workload, args.seconds)
        units = PER_LAYER
    else:
        timed = timed_pass(
            workload, args.seconds, n_jobs=workload.n_jobs, min_calls=workload.min_calls
        )
        passes = [timed]
        first = timed.calls[0]
        if not first.failed:
            try:
                repeat = workload.repeat_errors(first)
            except Exception:
                traceback.print_exc()
                repeat = ["the repeated seed raised"]
            if repeat:
                first.errors += repeat
                first.failed = first.attempted
        metrics = end_to_end(workload, timed)
        setups = [setup_s] + [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END

    for p in passes:
        for call in p.calls:
            errors += call.errors
    errors += [f"{n} is not a finite number" for n in units if not math.isfinite(metrics[n])]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{workload.name} {name} {metrics[name]:.6g} {unit}")
    print(f"{workload.name} failed_frac {failed / attempted:.6g} ratio")
    if isinstance(workload, Grid) and not args.trace:
        estimate = 16 * 50 * 1000 / metrics["sim_tasks_per_s"]
        print(f"{workload.name} full_grid_estimate {estimate:.6g} s")
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
