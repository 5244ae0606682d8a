"""Compiled hot-path kernel backends (the ``PerfConfig.backend`` knob).

The stochastic hot kernels — convolution, tail truncation, the
``prob_sum_at_most`` dot and the mapper's batched prob-on-time rows —
are executed millions of times per trial.  This module lets them run as
*compiled* code while keeping the pure-numpy reference path the default
and always available:

``"numpy"``
    The reference path: :mod:`repro.stoch.ops` and
    :class:`~repro.sim.mapper.CandidateBuilder` run their own vectorized
    numpy code, bitwise-reproducible across machines.  Resolves to
    ``None`` — no dispatch object is installed at all, so the default
    configuration costs nothing.
``"cext"``
    A small C kernel library compiled on demand with the system C
    compiler and bound through :mod:`ctypes`
    (:mod:`repro.perf._cext_backend`); the build is cached by source
    digest.
``"auto"``
    cext when a working C compiler is found, silently falling back to
    numpy otherwise.

Correctness contract — *documented tolerance, not bitwise*.  Compiled
kernels mirror the numpy expressions operation for operation, including
the index arithmetic (``floor((deadline - t - start) / dt + 1e-9)`` is
evaluated with the exact same IEEE operation sequence, so gather
indices are bitwise identical).  Only the final *reductions* (sums and
dots) can differ: numpy uses pairwise/BLAS accumulation while the
compiled loops use Neumaier-compensated summation — at least as
accurate, and in particular landing on the same exactly-representable
values (a ``prob_on_time`` of exactly 0.5) that policy thresholds
compare against — so probabilities agree to ~1e-16 relative and
everything downstream to ≤1e-12.  ``tests/perf`` pins
this, and manifest/config digests are always defined by the numpy path
— which is why the *default* backend stays ``"numpy"`` and compiled
execution is strictly opt-in (CLI ``--perf-backend``, the
``REPRO_PERF_BACKEND`` environment override, or
``PerfConfig(backend=...)``).

Dispatch follows the ``set_kernel_cache`` seam: the engine resolves its
:class:`KernelBackend` once and installs it into :mod:`repro.stoch.ops`
for exactly the duration of one run, so nothing leaks across trials and
:class:`~repro.config.SimulationConfig` / scenario digests stay
perf-independent.
"""

from __future__ import annotations

import os
import warnings
from typing import Callable

import numpy as np

__all__ = [
    "BACKEND_CHOICES",
    "KernelBackend",
    "available_backends",
    "default_backend_name",
    "describe_backends",
    "resolve_backend",
]

#: Valid values of ``PerfConfig.backend`` / ``--perf-backend``.
BACKEND_CHOICES = ("numpy", "cext", "auto")

#: Preference order ``"auto"`` walks (first loadable wins).
AUTO_ORDER = ("cext",)


class KernelBackend:
    """A set of compiled kernels :mod:`repro.stoch.ops` can dispatch to.

    All five slots are array-level pure functions (no
    :class:`~repro.stoch.pmf.PMF` in their signatures) so backend
    modules stay import-light and the kernels are trivially testable
    against the reference expressions:

    ``conv_full(a, b) -> (probs, lo)``
        Finished linear convolution of two probability arrays:
        normalized, tail-trimmed exactly as
        ``repro.stoch.ops._finalize`` trims, returned read-only
        with the trim offset ``lo`` in grid bins.
    ``trunc_tail(probs, k) -> probs | None``
        The renormalized tail ``probs[k:]`` (``0 < k < len(probs)``),
        or ``None`` when the tail carries no mass (the caller
        substitutes the degenerate "completes now" pmf).
    ``prob_sum(exec_probs, base, cdf) -> float``
        ``sum_i exec_probs[i] * F(ks_i)`` with
        ``ks_i = floor(base + 1e-9 - i)`` clamped to the CDF's support
        and ``F(k < 0) = 0`` — the ``prob_sum_at_most`` inner loop.
    ``score_rows(times, probs, widths, starts, sizes, offsets,
    row_node, cdf_flat, deadline, dt) -> rows``
        The :class:`~repro.sim.mapper.CandidateBuilder` batched
        prob-on-time pass: one ``(u, P)`` row matrix over ``u``
        distinct (node, ready-pmf) pairs, each row reduced over the
        node's *native* pad width.
    ``moment1(probs) -> float``
        ``dot(arange(n), probs)`` — the start-independent first moment
        used by ``expectation_of_sum``.
    """

    __slots__ = (
        "name",
        "compiled",
        "conv_full",
        "trunc_tail",
        "prob_sum",
        "score_rows",
        "moment1",
        "warmup_s",
    )

    def __init__(
        self,
        name: str,
        *,
        compiled: bool,
        conv_full: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, int]],
        trunc_tail: Callable[[np.ndarray, int], np.ndarray | None],
        prob_sum: Callable[[np.ndarray, float, np.ndarray], float],
        score_rows: Callable[..., np.ndarray],
        moment1: Callable[[np.ndarray], float],
        warmup_s: float = 0.0,
    ) -> None:
        self.name = name
        self.compiled = compiled
        self.conv_full = conv_full
        self.trunc_tail = trunc_tail
        self.prob_sum = prob_sum
        self.score_rows = score_rows
        self.moment1 = moment1
        #: Wall-clock seconds the one-time C build took in this
        #: process (amortized across every later call; benchmarked by
        #: ``scripts/bench_kernels.py``).
        self.warmup_s = warmup_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelBackend({self.name!r}, compiled={self.compiled})"


def default_backend_name() -> str:
    """The backend ``PerfConfig`` defaults to: env override or ``"numpy"``.

    ``REPRO_PERF_BACKEND`` lets a deployment opt whole runs into a
    compiled backend without touching call sites; an unknown value
    warns once and falls back to the reference path rather than
    poisoning every ``PerfConfig()`` construction with an error.
    """
    value = os.environ.get("REPRO_PERF_BACKEND", "").strip().lower()
    if not value:
        return "numpy"
    if value not in BACKEND_CHOICES:
        warnings.warn(
            f"REPRO_PERF_BACKEND={value!r} is not one of {BACKEND_CHOICES}; "
            "using the numpy reference backend",
            RuntimeWarning,
            stacklevel=2,
        )
        return "numpy"
    return value


# Per-process cache of loaded backends: loading is expensive (a C
# build) and the result is stateless, so one instance
# serves every engine in the process.  ``False`` marks a backend that
# was tried and found unavailable (so the probe doesn't repeat).
_loaded: dict[str, KernelBackend | None | bool] = {}


def _load(name: str) -> KernelBackend | None:
    cached = _loaded.get(name)
    if cached is not None:
        return None if cached is False else cached
    backend: KernelBackend | None = None
    try:
        if name == "cext":
            from repro.perf._cext_backend import load_cext_backend

            backend = load_cext_backend()
    except Exception:  # pragma: no cover - defensive: a broken toolchain
        backend = None
    _loaded[name] = backend if backend is not None else False
    return backend


def resolve_backend(name: str, *, warn: bool = True) -> KernelBackend | None:
    """Resolve a backend name to a :class:`KernelBackend` (or ``None``).

    ``None`` means "run the reference numpy path" — both for
    ``"numpy"`` itself and for fallbacks.  Requesting ``"cext"``
    explicitly when it cannot be loaded emits a
    :class:`RuntimeWarning` (suppress with ``warn=False``) and falls
    back; ``"auto"`` probes silently.  Unknown names raise
    ``ValueError``.
    """
    if name not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown kernel backend {name!r}; choose from {BACKEND_CHOICES}"
        )
    if name == "numpy":
        return None
    if name == "auto":
        for candidate in AUTO_ORDER:
            backend = _load(candidate)
            if backend is not None:
                return backend
        return None
    backend = _load(name)
    if backend is None and warn:
        warnings.warn(
            f"kernel backend {name!r} is unavailable "
            "(no working C compiler was found); falling back to the numpy "
            "reference path",
            RuntimeWarning,
            stacklevel=2,
        )
    return backend


def available_backends() -> tuple[str, ...]:
    """Names that resolve to a runnable backend right now.

    Always includes ``"numpy"``; probing never warns.
    """
    names = ["numpy"]
    for candidate in AUTO_ORDER:
        if _load(candidate) is not None:
            names.append(candidate)
    return tuple(names)


def describe_backends() -> dict[str, dict[str, object]]:
    """Catalog of every backend choice with availability and warm-up cost."""
    out: dict[str, dict[str, object]] = {
        "numpy": {"available": True, "compiled": False, "warmup_s": 0.0}
    }
    for candidate in AUTO_ORDER:
        backend = _load(candidate)
        out[candidate] = {
            "available": backend is not None,
            "compiled": True,
            "warmup_s": round(backend.warmup_s, 3) if backend is not None else None,
        }
    return out
