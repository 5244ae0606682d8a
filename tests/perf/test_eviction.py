"""Eviction pressure keeps the kernel cache results-neutral.

A tiny shared cache forces the LRU to churn constantly during a real
trial — the nastiest regime for an interning cache, because almost every
lookup re-materializes a kernel that was just thrown away.  The contract
under test: results stay bitwise identical to the uncached reference,
and every eviction the cache's own counters record is also visible to
the op observer as a ``cache_evict`` operation (the two instrumentation
paths must not drift apart).
"""

from __future__ import annotations

import pytest

from repro import build_trial_system
from repro.experiments.runner import TrialPlan, VariantSpec
from repro.obs.manifest import trial_digest
from repro.obs.sinks import MetricsRegistry
from repro.perf.kernel_cache import KernelCache
from repro.perf.trial_cache import TrialCache
from tests.conftest import micro_config
from tests.perf.reference import reference_engine

SPEC = VariantSpec("LL", "en+rob")


@pytest.fixture(scope="module")
def system():
    return build_trial_system(micro_config(seed=23))


@pytest.fixture(scope="module")
def reference(system):
    with reference_engine(loop=False):
        return TrialPlan(system=system, spec=SPEC, keep_outcomes=True).run()


def tiny(max_entries):
    return TrialCache(KernelCache(max_entries))


@pytest.mark.parametrize("max_entries", (1, 4, 32))
def test_tiny_cache_is_results_neutral(system, reference, max_entries):
    result = TrialPlan(
        system=system, spec=SPEC, keep_outcomes=True, shared=tiny(max_entries)
    ).run()
    assert result == reference
    assert trial_digest(result) == trial_digest(reference)


def test_evictions_happen_and_observer_counts_match(system):
    metrics = MetricsRegistry()
    TrialPlan(
        system=system, spec=SPEC, keep_outcomes=True, metrics=metrics, shared=tiny(4)
    ).run()
    evictions = metrics.counter("perf.cache.evictions")
    assert evictions > 0  # capacity 4 must churn on a real trial
    # The op observer saw one cache_evict per eviction the cache counted.
    assert metrics.counter("stoch.ops.cache_evict") == evictions
    # Steady state: a full cache holds exactly its capacity.
    assert metrics.counter("perf.cache.entries") == 4


def test_shared_tiny_cache_attributes_evictions_per_spec(system):
    """Per-spec eviction deltas of a shared churning cache sum to the total."""
    shared = tiny(4)
    metrics = MetricsRegistry()
    specs = (SPEC, VariantSpec("MECT", "none"))
    for spec in specs:
        TrialPlan(
            system=system, spec=spec, keep_outcomes=True, metrics=metrics, shared=shared
        ).run()
    total = metrics.counter("perf.cache.evictions")
    per_spec = sum(
        metrics.counter(f"perf.cache.evictions.{spec.label}") for spec in specs
    )
    assert total > 0
    assert per_spec == total
    assert shared.stats().evictions == total
