"""Warm-up truncation and batch-means confidence intervals over windows.

A continuous-service run starts from an empty system, so its early
windows are transient: queue depth, on-time probability and energy all
drift while the system fills.  Averaging over the whole run biases any
steady-state claim.  This module provides the two standard tools for an
honest answer:

* **MSER-5 warm-up detection** (White 1997): batch the per-window series
  into means of 5, then truncate at the point minimizing the marginal
  standard error of the remaining mean.  The minimizing truncation is
  where deleting more data stops reducing estimator variance — the
  classic data-driven warm-up rule.
* **Batch-means confidence intervals**: per-window values of a service
  run are autocorrelated, so the iid t-interval is too narrow.  Grouping
  post-warm-up windows into a small number of long batches makes the
  batch means approximately independent; the t-interval over *them* is
  asymptotically valid (Law & Kelton, ch. 9).

The estimators are pure NumPy over plain sequences (plus
``scipy.special.stdtrit`` for the t quantile; package imports are
deferred inside the window-row conveniences), so both the offline report
path and the live telemetry layer (:mod:`repro.obs.telemetry`) can call
them without import cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np
from scipy.special import stdtrit

__all__ = [
    "SteadyStateSummary",
    "mser_truncation",
    "batch_means_ci",
    "analyze_series",
    "analyze_windows",
    "steady_state_table",
]

#: MSER-5: the series is pre-averaged into batches of this many windows.
MSER_BATCH = 5

#: Fewest post-warm-up samples worth a confidence interval.
_MIN_CI_SAMPLES = 4


def _t_quantile(p: float, dof: int) -> float:
    """Student-t quantile: the ``x`` with ``P[T_dof <= x] = p``."""
    return float(stdtrit(dof, p))


def mser_truncation(values: Sequence[float], *, batch: int = MSER_BATCH) -> int:
    """MSER warm-up point of a series: samples to drop from the front.

    The series is pre-averaged into non-overlapping batches of ``batch``
    (MSER-5 for the default), and the truncation ``d`` minimizes

    ``MSER(d) = sum_{i>=d} (x_i - mean_d)^2 / (n - d)^2``

    over ``d <= n/2`` (truncating more than half the data means the run
    is too short to call converged).  Returns the number of *raw*
    samples to drop (a multiple of ``batch``); 0 when the series is too
    short to batch twice.
    """
    if batch < 1:
        raise ValueError(f"batch must be positive, got {batch}")
    x = np.asarray(list(values), dtype=float)
    n_batches = len(x) // batch
    if n_batches < 2:
        return 0
    means = x[: n_batches * batch].reshape(n_batches, batch).mean(axis=1)
    # Suffix sums: mser(d) for every candidate in one vectorized pass.
    d_max = n_batches // 2
    suffix = np.cumsum(means[::-1])[::-1]
    suffix_sq = np.cumsum((means**2)[::-1])[::-1]
    m = n_batches - np.arange(d_max + 1)
    s1 = suffix[: d_max + 1]
    s2 = suffix_sq[: d_max + 1]
    mser = (s2 - s1**2 / m) / m**2
    return int(np.argmin(mser)) * batch


def batch_means_ci(
    values: Sequence[float], *, num_batches: int = 20, level: float = 0.95
) -> tuple[float, float, int, int]:
    """Batch-means mean and CI half-width of a (post-warm-up) series.

    Returns ``(mean, half_width, batches_used, batch_len)``.  The series
    is split into ``num_batches`` equal batches (capped so each holds at
    least two samples; leftovers are dropped from the *front*, keeping
    the most recent data); the half-width is the Student-t interval over
    the batch means.  ``half_width`` is ``nan`` when fewer than
    :data:`_MIN_CI_SAMPLES` samples or two batches are available — the
    mean is still reported.
    """
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must be in (0, 1), got {level}")
    if num_batches < 2:
        raise ValueError(f"num_batches must be >= 2, got {num_batches}")
    x = np.asarray(list(values), dtype=float)
    m = len(x)
    if m == 0:
        return math.nan, math.nan, 0, 0
    mean = float(x.mean())
    k = min(num_batches, m // 2)
    if m < _MIN_CI_SAMPLES or k < 2:
        return mean, math.nan, 0, 0
    b = m // k
    batches = x[m - k * b :].reshape(k, b).mean(axis=1)
    spread = float(batches.std(ddof=1))
    half = _t_quantile(0.5 + level / 2.0, k - 1) * spread / math.sqrt(k)
    return mean, half, k, b


@dataclass(frozen=True)
class SteadyStateSummary:
    """Steady-state estimate of one per-window metric.

    ``warmup_windows`` raw windows are truncated (MSER decision over the
    finite values; ``nan`` windows — e.g. on-time probability with no
    completions — are excluded from the series but keep their indices).
    ``mean``/``ci_half_width`` describe the post-warm-up batch-means
    estimate at ``ci_level``.  ``converged`` is false when the MSER
    minimum sits at its half-series bound or too little post-warm-up
    data remains — the run is then too short to claim a steady state.
    """

    metric: str
    num_windows: int
    used_windows: int
    warmup_windows: int
    mean: float
    ci_half_width: float
    ci_level: float
    num_batches: int
    batch_len: int
    converged: bool

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping (``nan`` encodes as ``None``)."""
        return {
            "metric": self.metric,
            "num_windows": self.num_windows,
            "used_windows": self.used_windows,
            "warmup_windows": self.warmup_windows,
            "mean": None if math.isnan(self.mean) else self.mean,
            "ci_half_width": (
                None if math.isnan(self.ci_half_width) else self.ci_half_width
            ),
            "ci_level": self.ci_level,
            "num_batches": self.num_batches,
            "batch_len": self.batch_len,
            "converged": self.converged,
        }


def analyze_series(
    values: Sequence[float],
    *,
    metric: str = "value",
    batch: int = MSER_BATCH,
    num_batches: int = 20,
    level: float = 0.95,
) -> SteadyStateSummary:
    """Full steady-state analysis of one per-window series."""
    x = np.asarray(list(values), dtype=float)
    finite = np.isfinite(x)
    kept = x[finite]
    kept_idx = np.flatnonzero(finite)
    warmup_kept = mser_truncation(kept, batch=batch)
    # Report the warm-up as a raw window index: the first retained one.
    if warmup_kept == 0:
        warmup_raw = 0
    elif warmup_kept < len(kept):
        warmup_raw = int(kept_idx[warmup_kept])
    else:
        warmup_raw = int(len(x))
    post = kept[warmup_kept:]
    mean, half, k, b = batch_means_ci(post, num_batches=num_batches, level=level)
    n_batches = len(kept) // batch
    at_bound = n_batches >= 2 and warmup_kept >= (n_batches // 2) * batch
    converged = (
        len(post) >= _MIN_CI_SAMPLES and not at_bound and not math.isnan(half)
    )
    return SteadyStateSummary(
        metric=metric,
        num_windows=int(len(x)),
        used_windows=int(len(kept)),
        warmup_windows=warmup_raw,
        mean=mean,
        ci_half_width=half,
        ci_level=level,
        num_batches=k,
        batch_len=b,
        converged=converged,
    )


#: Metrics ``analyze_windows`` / the CLI report cover by default.
DEFAULT_METRICS = ("on_time_prob", "throughput", "queue_depth", "power")


def analyze_windows(
    rows: Sequence[Mapping[str, Any]],
    metrics: Sequence[str] = DEFAULT_METRICS,
    *,
    budget_rate: float | None = None,
    batch: int = MSER_BATCH,
    num_batches: int = 20,
    level: float = 0.95,
) -> dict[str, SteadyStateSummary]:
    """Steady-state summaries of several metrics over window rows.

    ``rows`` are :meth:`~repro.sim.metrics.WindowStats.to_dict` mappings
    (or parsed window JSONL rows).  Trailing partial windows are *not*
    dropped here; pass a sliced sequence if the last window should be
    excluded.
    """
    from repro.sim.metrics import derived_window_metrics

    derived = [derived_window_metrics(row, budget_rate=budget_rate) for row in rows]
    return {
        metric: analyze_series(
            [d.get(metric, math.nan) for d in derived],
            metric=metric,
            batch=batch,
            num_batches=num_batches,
            level=level,
        )
        for metric in metrics
    }


def steady_state_table(summaries: Mapping[str, SteadyStateSummary]) -> str:
    """Markdown table over per-metric steady-state summaries."""
    from repro.analysis.tables import markdown_table

    rows = []
    for name, s in summaries.items():
        ci = "-" if math.isnan(s.ci_half_width) else f"±{s.ci_half_width:.4g}"
        mean = "-" if math.isnan(s.mean) else f"{s.mean:.4g}"
        rows.append(
            (
                name,
                s.num_windows,
                s.warmup_windows,
                mean,
                ci,
                f"{s.num_batches}x{s.batch_len}" if s.num_batches else "-",
                "yes" if s.converged else "no",
            )
        )
    return markdown_table(
        ["metric", "windows", "warm-up", "mean", "CI", "batches", "converged"],
        rows,
    )
