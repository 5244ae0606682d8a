"""Tests of the benchmark's own arithmetic, tracing and smoke sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from layers import Tracer, busy_frac, instrument, percentile, self_times  # noqa: E402


def test_self_time_is_span_minus_covered_children():
    # root [0, 10] holds b [1, 4] (which holds d [2, 3]) and c [5, 7].
    starts = np.array([0.0, 1.0, 2.0, 5.0])
    ends = np.array([10.0, 4.0, 3.0, 7.0])
    parent = np.array([-1, 0, 1, 0])
    own = self_times(ends - starts, parent)
    assert own.tolist() == [5.0, 2.0, 1.0, 2.0]
    assert own.sum() == 10.0


def test_tracer_nests_spans_and_wrapped_calls():
    tracer = Tracer()

    def leaf():
        with tracer.span("c"):
            pass

    wrapped = tracer.wrap("b", leaf)
    with tracer.span("a"):
        wrapped()
        wrapped()
    assert list(tracer.parent) == [-1, 0, 1, 0, 3]
    layers = tracer.layers()
    assert {name: v["count"] for name, v in layers.items()} == {"a": 1, "b": 2, "c": 2}
    total = sum(v["self_s"] for v in layers.values())
    assert math.isclose(total, layers["a"]["total_s"], rel_tol=1e-9)
    assert all(v["self_s"] >= 0 for v in layers.values())


def test_percentile_interpolates_like_numpy():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([4, 1, 3, 2], 0) == 1
    assert percentile([4, 1, 3, 2], 100) == 4
    assert percentile([7], 99) == 7
    assert math.isnan(percentile([], 50))
    values = np.random.default_rng(3).exponential(size=1001)
    for q in (1, 50, 90, 99, 99.9):
        assert math.isclose(percentile(values, q), float(np.percentile(values, q)))
    with pytest.raises(ValueError):
        percentile(values, 101)


def test_busy_frac_is_serial_work_over_pool_time():
    assert busy_frac(6.0, 2, 4.0) == 0.75
    assert busy_frac(3.0, 1, 3.0) == 1.0
    with pytest.raises(ValueError):
        busy_frac(1.0, 0, 1.0)
    with pytest.raises(ValueError):
        busy_frac(1.0, 2, 0.0)


def test_instrument_restores_every_patched_entry_point():
    run.import_program()
    from repro import service
    from repro.experiments import runner
    from repro.heuristics.mect import MinimumExpectedCompletionTime
    from repro.sim.mapper import CandidateBuilder
    from repro.sim.state import CoreState

    before = (
        CandidateBuilder.build, CoreState.ready_pmf, runner.run_trial,
        runner.build_trial_system, service.Engine,
        vars(MinimumExpectedCompletionTime)["select"],
    )
    with instrument(Tracer()):
        assert CandidateBuilder.build is not before[0]
        assert service.Engine is not before[4]
    after = (
        CandidateBuilder.build, CoreState.ready_pmf, runner.run_trial,
        runner.build_trial_system, service.Engine,
        vars(MinimumExpectedCompletionTime)["select"],
    )
    assert after == before


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_checks_and_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--smoke", "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    header = json.loads(lines[0])["header"]
    assert header["seed"] == 7 and header["kernel_backend"] == "numpy"
    assert header["scenario_digests"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        coverage = result["metrics"]["trace.coverage"]["value"]
        assert 1 - run.COVERAGE_SLACK <= coverage <= 1
