"""Import-graph and dependency guards.

``scipy.stats`` imports most of scipy and dominates a cold start; only
``repro compare`` needs it (``compare_variants`` imports it on call).
The guard below runs every other entry point in a fresh interpreter and
checks it never loads.  The dependency tests keep ``pyproject.toml``
honest about what ``src/repro`` imports, including the stdlib
``tomllib`` that sets the Python floor.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import textwrap
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

GUARD = textwrap.dedent(
    """
    import sys

    import repro.api as api
    import repro.cli  # noqa: F401
    from repro.analysis import steady_state
    from repro.obs.telemetry import Telemetry
    from repro.service import ServiceConfig

    quantile_calls = []
    t_quantile = steady_state._t_quantile

    def counted(p, dof):
        quantile_calls.append(dof)
        return t_quantile(p, dof)

    steady_state._t_quantile = counted

    scenario = api.Scenario(
        "MECT",
        "en+rob",
        config=api.SimulationConfig(seed=5).with_updates(
            workload={
                "num_tasks": 40, "num_task_types": 5,
                "burst_head": 10, "burst_tail": 10,
            },
            cluster={"num_nodes": 2},
        ),
    )
    api.run_trial(scenario)
    api.run_ensemble(scenario, 2, n_jobs=2)
    api.run_service(
        scenario,
        ServiceConfig(traffic="poisson", task_limit=400, horizon=2e5),
        telemetry=Telemetry(),
    )
    assert quantile_calls, "the steady-state refresh never asked for a t quantile"
    print("scipy.stats" in sys.modules)
    """
)


def test_entry_points_never_import_scipy_stats():
    proc = subprocess.run(
        [sys.executable, "-c", GUARD],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"


def _imported_top_levels() -> set[str]:
    names: set[str] = set()
    for path in (SRC / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_a_declared_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {
        re.split(r"[<>=!~;\[ ]", req, maxsplit=1)[0].strip().lower()
        for req in project["project"]["dependencies"]
    }
    third_party = _imported_top_levels() - set(sys.stdlib_module_names) - {"repro"}
    assert third_party, "the scan found no third-party imports at all"
    assert sorted(third_party - declared) == []


def test_python_floor_has_tomllib():
    """``tomllib`` (read by ``Scenario.from_file``) is stdlib from 3.11."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    floor = re.fullmatch(r">=\s*(\d+)\.(\d+)", project["project"]["requires-python"].strip())
    assert floor is not None, project["project"]["requires-python"]
    assert (int(floor[1]), int(floor[2])) >= (3, 11)
