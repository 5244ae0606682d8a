"""Ensemble-level results-neutrality of the full optimization stack.

With every ensemble optimization engaged at once — batched table
construction, the warm cross-spec :class:`TrialCache`, the vectorized
mapper, the kernel cache, chunked dispatch and the single-copy result
frames — every ``TrialResult`` and the run's manifest digests are
bitwise identical to running each spec of each trial as its own
:class:`TrialPlan` with a private cache, at any ``n_jobs`` and chunk
size.
"""

from __future__ import annotations

import pytest

from repro import build_trial_system
from repro import rng as rng_mod
from repro.experiments.runner import EnsembleResult, TrialPlan, VariantSpec, run_ensemble
from repro.obs.manifest import build_manifest
from repro.perf.kernel_cache import PerfConfig
from repro.perf.kernels import available_backends
from tests.conftest import micro_config

SPECS = (VariantSpec("LL", "en+rob"), VariantSpec("MECT", "none"), VariantSpec("SQ", "en+rob"))
TRIALS = 4
BASE_SEED = 17
COMPILED_BACKENDS = tuple(n for n in available_backends() if n != "numpy")


def run(perf, *, n_jobs=1, chunk_size=None):
    return run_ensemble(
        SPECS,
        micro_config(seed=31),
        num_trials=TRIALS,
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


@pytest.mark.skipif(not COMPILED_BACKENDS, reason="no compiled backend available")
@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
@pytest.mark.parametrize("n_jobs", [1, 2], ids=["serial", "parallel"])
def test_compiled_backend_ensemble_parity(reference, backend, n_jobs, assert_trial_close):
    """Every trial of every spec stays within the kernel contract of the
    numpy default, including across worker processes (each resolves its
    own backend)."""
    compiled = run(PerfConfig(backend=backend), n_jobs=n_jobs)
    for spec in SPECS:
        got_trials = compiled.results[spec]
        ref_trials = reference.results[spec]
        assert len(got_trials) == len(ref_trials)
        for got, ref in zip(got_trials, ref_trials):
            assert_trial_close(got, ref)
