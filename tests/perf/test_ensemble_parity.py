"""Ensemble-level results-neutrality of the full optimization stack.

One contract, bitwise equality.  With every ensemble optimization
engaged at once — batched table construction, the warm cross-spec
:class:`TrialCache`, the vectorized mapper, the kernel cache, chunked
dispatch and the single-copy result frames — every ``TrialResult`` and
the run's manifest digests are bitwise identical to running each spec
of each trial as its own :class:`TrialPlan` with a private cache, at
any ``n_jobs`` and chunk size.  ``tests/perf/test_parity.py`` pins that
single-trial run bitwise to the reference computations in
``tests/perf/reference.py``; there is no tolerance tier.
"""

from __future__ import annotations

import pytest

from repro import api, build_trial_system
from repro import rng as rng_mod
from repro.experiments.runner import EnsembleResult, TrialPlan, VariantSpec
from repro.obs.manifest import build_manifest
from tests.conftest import micro_config

SPECS = (VariantSpec("LL", "en+rob"), VariantSpec("MECT", "none"), VariantSpec("SQ", "en+rob"))
TRIALS = 4
BASE_SEED = 17


def run(perf, *, n_jobs=1, chunk_size=None):
    """The ensemble of ``SPECS`` through the public API."""
    config = micro_config(seed=31)
    return api.run_ensemble(
        [api.Scenario(s.heuristic, s.variant, config=config) for s in SPECS],
        TRIALS,
        base_seed=BASE_SEED,
        n_jobs=n_jobs,
        keep_outcomes=True,
        perf=perf,
        chunk_size=chunk_size,
    )


@pytest.fixture(scope="module")
def reference():
    """Per-spec ``TrialPlan`` runs, each engine with its own cache."""
    config = micro_config(seed=31)
    systems = [
        build_trial_system(config.with_seed(rng_mod.spawn_trial_seed(BASE_SEED, i)))
        for i in range(TRIALS)
    ]
    results = {
        spec: tuple(
            TrialPlan(system=system, spec=spec, keep_outcomes=True).run()
            for system in systems
        )
        for spec in SPECS
    }
    return EnsembleResult(
        specs=SPECS, num_trials=TRIALS, base_seed=BASE_SEED, results=results
    )


@pytest.mark.parametrize(
    "n_jobs,chunk_size",
    [(1, None), (2, None), (2, 1), (2, 3)],
    ids=["serial", "parallel-auto", "parallel-chunk1", "parallel-chunk3"],
)
def test_all_optimizations_bitwise_match_reference(reference, n_jobs, chunk_size):
    optimized = run(None, n_jobs=n_jobs, chunk_size=chunk_size)
    for spec in SPECS:
        assert optimized.results[spec] == reference.results[spec]
    config = micro_config(seed=31)
    assert (
        build_manifest(optimized, config).to_dict()
        == build_manifest(reference, config).to_dict()
    )
