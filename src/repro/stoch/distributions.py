"""Discretizers: continuous laws -> grid pmfs.

Execution-time distributions in the paper are "provided" pmfs; following
the companion papers of the same group we realize them as discretized
gamma laws (strictly positive support, right-skewed — the natural model
for execution times).  Each discretizer integrates the continuous density
over grid-aligned bins so the pmf mass matches the law's probability of
falling in each bin, then renormalizes the truncated tails away.

CDFs come from :mod:`scipy.special` (``gammainc``, ``ndtr``): the same
kernels ``scipy.stats`` evaluates, bitwise, without importing its
distribution machinery.  Arguments are validated once at the entry of
each discretizer and the bin masses with one vectorized finiteness scan;
the pmfs themselves are then built by the validation-free finalizer
:func:`repro.stoch.ops._finalize` that convolution shares.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc, ndtr

from repro.stoch.ops import _finalize
from repro.stoch.pmf import PMF

__all__ = [
    "discretized_gamma",
    "discretized_gamma_batch",
    "discretized_normal",
    "discretized_uniform",
    "discretized_exponential",
]


def _require_positive(**values: float) -> None:
    """Reject any argument that is not a positive finite float."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value}")


def _require_finite(**values: float) -> None:
    """Reject any argument that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _bin_edges(lo: float, hi: float, dt: float) -> np.ndarray:
    """Grid-aligned bin edges covering ``[lo, hi]`` (edges at multiples of dt)."""
    first = math.floor(lo / dt)
    last = math.ceil(hi / dt)
    if last <= first:
        last = first + 1
    return dt * np.arange(first, last + 1)


def _bin_masses(cdf_vals: np.ndarray) -> np.ndarray:
    """Clipped CDF differences, checked finite (clipping keeps them non-negative)."""
    masses = np.clip(cdf_vals[1:] - cdf_vals[:-1], 0.0, None)
    if not np.isfinite(masses).all():
        raise ValueError("probs must be finite and non-negative")
    return masses


def _from_masses(masses: np.ndarray, first_edge: float, dt: float) -> PMF:
    """Build a pmf from checked bin masses; mass of bin i sits at its center."""
    return _finalize(first_edge + 0.5 * dt, dt, masses)


def _from_cdf(cdf_vals: np.ndarray, edges: np.ndarray, dt: float) -> PMF:
    """Build a pmf from CDF values at bin edges; mass of bin i sits at its center."""
    return _from_masses(_bin_masses(cdf_vals), float(edges[0]), dt)


def discretized_gamma(mean: float, cv: float, dt: float, *, tail_sigmas: float = 4.0) -> PMF:
    """Gamma law with the given mean and coefficient of variation.

    Shape ``k = 1/cv**2`` and scale ``theta = mean * cv**2`` give
    ``E = mean`` and ``std = cv * mean``.  The support is truncated to
    ``[max(0, mean - tail_sigmas*std), mean + tail_sigmas*std]`` before
    discretization onto the grid of step ``dt``.  The one-law case of
    :func:`discretized_gamma_batch`.
    """
    return discretized_gamma_batch(np.array([mean]), cv, dt, tail_sigmas=tail_sigmas)[0]


def discretized_gamma_batch(
    means: np.ndarray, cv: float, dt: float, *, tail_sigmas: float = 4.0
) -> list[PMF]:
    """One gamma pmf (see :func:`discretized_gamma`) per entry of ``means``.

    All laws share ``cv`` (hence the gamma shape) and the grid, which is
    exactly the situation of the execution-time table — so the gamma CDF
    is evaluated over the concatenation of every law's bin edges in a
    *single* vectorized call, and the bin masses are checked in a single
    scan.  Each returned pmf is bitwise identical to the per-law
    ``scipy.stats.gamma.cdf`` + ``PMF(...).compact()`` formulation that
    the tests keep as the oracle.
    """
    means = np.asarray(means, dtype=np.float64).ravel()
    _require_positive(cv=cv, dt=dt, tail_sigmas=tail_sigmas)
    if not (np.isfinite(means) & (means > 0.0)).all():
        raise ValueError("means must be positive and finite")
    if means.size == 0:
        return []
    shape = 1.0 / (cv * cv)
    scales = means * cv * cv
    stds = cv * means
    los = np.maximum(0.0, means - tail_sigmas * stds)
    his = means + tail_sigmas * stds
    firsts = np.floor(los / dt).astype(np.int64)
    lasts = np.ceil(his / dt).astype(np.int64)
    np.maximum(lasts, firsts + 1, out=lasts)
    counts = lasts - firsts + 1  # bin edges per law
    offsets = np.zeros(means.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # Concatenated per-law edge indices: law i occupies
    # ``[offsets[i], offsets[i+1])`` and edge j of law i is
    # ``dt * (firsts[i] + j)``.
    idx = np.arange(int(offsets[-1]), dtype=np.int64)
    idx -= np.repeat(offsets[:-1] - firsts, counts)
    edges = dt * idx
    cdf_vals = gammainc(shape, edges / np.repeat(scales, counts))
    # Bin masses batched: within law i the first ``counts[i] - 1``
    # entries after its offset are exactly the differences of its CDF
    # slice (the entry straddling two laws is never read).
    masses = _bin_masses(cdf_vals)
    out: list[PMF] = []
    for i in range(means.size):
        o = int(offsets[i])
        n = int(counts[i])
        out.append(_from_masses(masses[o : o + n - 1], float(edges[o]), dt))
    return out


def discretized_normal(mean: float, std: float, dt: float, *, tail_sigmas: float = 4.0) -> PMF:
    """Normal law truncated at ``mean ± tail_sigmas * std`` (and at zero)."""
    _require_finite(mean=mean)
    _require_positive(std=std, dt=dt, tail_sigmas=tail_sigmas)
    lo = max(0.0, mean - tail_sigmas * std)
    hi = mean + tail_sigmas * std
    edges = _bin_edges(lo, hi, dt)
    return _from_cdf(ndtr((edges - mean) / std), edges, dt)


def discretized_uniform(lo: float, hi: float, dt: float) -> PMF:
    """Uniform law on ``[lo, hi]``."""
    _require_finite(lo=lo, hi=hi)
    _require_positive(dt=dt)
    if hi <= lo:
        raise ValueError("need lo < hi")
    edges = _bin_edges(lo, hi, dt)
    cdf_vals = np.clip((edges - lo) / (hi - lo), 0.0, 1.0)
    return _from_cdf(cdf_vals, edges, dt)


def discretized_exponential(mean: float, dt: float, *, tail_mass: float = 1e-4) -> PMF:
    """Exponential law with the given mean, truncated at the ``1 - tail_mass`` quantile."""
    _require_positive(mean=mean, dt=dt)
    hi = -mean * math.log(tail_mass)
    edges = _bin_edges(0.0, hi, dt)
    cdf_vals = 1.0 - np.exp(-edges / mean)
    return _from_cdf(cdf_vals, edges, dt)
