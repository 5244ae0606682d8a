"""Per-law reference discretizers the finalizer-based fast path is pinned against.

:mod:`repro.stoch.distributions` evaluates CDFs with
:mod:`scipy.special` and builds every pmf through the validation-free
finalizer :func:`repro.stoch.ops._finalize`.  This module keeps the
straightforward formulation it replaced, as a test oracle only: one
``scipy.stats`` CDF call per law, then ``PMF(...).compact()`` with the
constructor's full validation.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

from repro.stoch.pmf import PMF


def _edges(lo: float, hi: float, dt: float) -> np.ndarray:
    first = math.floor(lo / dt)
    last = math.ceil(hi / dt)
    if last <= first:
        last = first + 1
    return dt * np.arange(first, last + 1)


def from_cdf(cdf_vals: np.ndarray, edges: np.ndarray, dt: float) -> PMF:
    """Clipped bin masses at bin centers; all mass mid-range when none survives."""
    masses = np.clip(np.diff(cdf_vals), 0.0, None)
    if masses.sum() <= 0.0:
        masses = np.zeros(masses.size)
        masses[masses.size // 2] = 1.0
    return PMF(float(edges[0]) + 0.5 * dt, dt, masses).compact()


def gamma(mean: float, cv: float, dt: float, *, tail_sigmas: float = 4.0) -> PMF:
    """Gamma law of the given mean and cv, truncated at ``tail_sigmas``."""
    std = cv * mean
    edges = _edges(max(0.0, mean - tail_sigmas * std), mean + tail_sigmas * std, dt)
    cdf_vals = stats.gamma.cdf(edges, a=1.0 / (cv * cv), scale=mean * cv * cv)
    return from_cdf(cdf_vals, edges, dt)


def normal(mean: float, std: float, dt: float, *, tail_sigmas: float = 4.0) -> PMF:
    """Normal law truncated at ``mean ± tail_sigmas * std`` and at zero."""
    edges = _edges(max(0.0, mean - tail_sigmas * std), mean + tail_sigmas * std, dt)
    return from_cdf(stats.norm.cdf(edges, loc=mean, scale=std), edges, dt)


def convolve(a: PMF, b: PMF) -> PMF:
    """The materialized convolution, validated and compacted."""
    return PMF(a.start + b.start, a.dt, np.convolve(a.probs, b.probs)).compact()
