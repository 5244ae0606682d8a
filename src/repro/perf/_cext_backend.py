"""The ``"cext"`` kernel backend: C kernels built on demand via ctypes.

The kernel library is ~100 lines of dependency-free C99 mirroring the
numpy hot-path expressions of :mod:`repro.stoch.ops` and
:class:`~repro.sim.mapper.CandidateBuilder` (see
:mod:`repro.perf.kernels` for the tolerance contract).  It is compiled
once per source revision with whatever C compiler the host provides
(``$CC``, then ``cc``/``gcc``/``clang``) into a shared library cached
by source digest, so repeat processes pay only a ``dlopen``.  Every
failure mode — no compiler, a failing build, a missing symbol — makes
the backend *unavailable* rather than raising: callers fall back to the
numpy reference path.

Index arithmetic in the C kernels follows the numpy operation order
exactly (e.g. ``floor(((deadline - t) - start) / dt + 1e-9)``), so
gather indices are bitwise identical to the reference.  Reductions use
Neumaier-compensated summation: numpy's pairwise/BLAS reductions often
land on the correctly rounded sum (e.g. an exactly-representable 0.5
that a policy threshold then compares against), and compensation makes
the compiled kernels at least that accurate instead of one ulp shy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro.perf.kernels import KernelBackend

__all__ = ["load_cext_backend"]

# Mirrors repro.stoch.pmf._RTOL / _TRIM_EPS — the C source embeds the
# same literals, so the normalize/trim branches match the numpy path
# decision for decision.
_C_SOURCE = r"""
#include <math.h>
#include <string.h>
#include <stdint.h>

#define RTOL 1e-9
#define TRIM_EPS 1e-12

/* Neumaier-compensated accumulator.  numpy's reductions are pairwise
 * (or BLAS-blocked), which often lands on the correctly rounded sum —
 * notably the exactly-representable 0.5 that policy thresholds compare
 * against.  A plain sequential sum can sit one ulp off such values and
 * flip a downstream `>=` decision; compensation recovers the correctly
 * rounded result, so the compiled kernels are at least as accurate as
 * the reference instead of merely close. */
typedef struct { double s, c; } ksum;
static inline void kadd(ksum *k, double x) {
    double t = k->s + x;
    if (fabs(k->s) >= fabs(x)) k->c += (k->s - t) + x;
    else k->c += (x - t) + k->s;
    k->s = t;
}
static inline double kval(const ksum *k) { return k->s + k->c; }

/* Finished linear convolution: raw product, normalize, tail-trim —
 * branch for branch the flow of repro.stoch.ops._finalize.
 * `out` has room for na + nb - 1 doubles; returns the trimmed length
 * and writes the trim offset into *lo_out. */
int64_t repro_conv_full(const double *a, int64_t na,
                        const double *b, int64_t nb,
                        double *out, int64_t *lo_out) {
    int64_t n = na + nb - 1;
    for (int64_t i = 0; i < n; i++) {
        int64_t klo = i - nb + 1; if (klo < 0) klo = 0;
        int64_t khi = i; if (khi > na - 1) khi = na - 1;
        ksum acc = {0.0, 0.0};
        for (int64_t k = klo; k <= khi; k++) kadd(&acc, a[k] * b[i - k]);
        out[i] = kval(&acc);
    }
    ksum tsum = {0.0, 0.0};
    for (int64_t i = 0; i < n; i++) kadd(&tsum, out[i]);
    double total = kval(&tsum);
    if (fabs(total - 1.0) > RTOL) {
        for (int64_t i = 0; i < n; i++) out[i] = out[i] / total;
    }
    double mx = out[0];
    for (int64_t i = 1; i < n; i++) if (out[i] > mx) mx = out[i];
    double thresh = mx * TRIM_EPS;
    int64_t lo = 0, hi = n - 1;
    if (!(out[0] > thresh && out[n - 1] > thresh)) {
        while (lo < n && !(out[lo] > thresh)) lo++;
        while (hi > lo && !(out[hi] > thresh)) hi--;
    }
    *lo_out = lo;
    if (lo == 0 && hi == n - 1) return n;
    int64_t m = hi - lo + 1;
    ksum t2sum = {0.0, 0.0};
    for (int64_t i = 0; i < m; i++) kadd(&t2sum, out[lo + i]);
    double t2 = kval(&t2sum);
    if (fabs(t2 - 1.0) > RTOL) {
        for (int64_t i = 0; i < m; i++) out[i] = out[lo + i] / t2;
    } else {
        memmove(out, out + lo, (size_t)m * sizeof(double));
    }
    return m;
}

/* Renormalized tail probs[k:] (0 < k < n); returns the tail length or
 * 0 when it carries no mass (caller substitutes the degenerate pmf). */
int64_t repro_trunc_tail(const double *probs, int64_t n, int64_t k,
                         double *out) {
    int64_t m = n - k;
    ksum tsum = {0.0, 0.0};
    for (int64_t i = 0; i < m; i++) kadd(&tsum, probs[k + i]);
    double total = kval(&tsum);
    if (total <= 0.0) return 0;
    if (fabs(total - 1.0) > RTOL) {
        for (int64_t i = 0; i < m; i++) out[i] = probs[k + i] / total;
    } else {
        memcpy(out, probs + k, (size_t)m * sizeof(double));
    }
    return m;
}

/* P[R + X <= d] without the convolution: sum_i ep[i] * F(ks_i) with
 * ks_i = floor(base + 1e-9 - i) clamped into the CDF support. */
double repro_prob_sum(const double *ep, int64_t n, double base,
                      const double *cdf, int64_t ncdf) {
    ksum acc = {0.0, 0.0};
    for (int64_t i = 0; i < n; i++) {
        double kf = floor(base + 1e-9 - (double)i);
        int64_t k = (int64_t)kf;
        if (k >= 0) {
            if (k > ncdf - 1) k = ncdf - 1;
            kadd(&acc, ep[i] * cdf[k]);
        }
    }
    return kval(&acc);
}

/* The CandidateBuilder batched prob-on-time pass: one (u, P) row
 * matrix over u distinct (node, ready pmf) pairs.  times/probs are the
 * (N, P, W) padded stacks; each row reduces over its node's native pad
 * width.  Index arithmetic mirrors the numpy chain
 * floor(((deadline - t) - start) / dt + 1e-9) exactly. */
void repro_score_rows(const double *times, const double *probs,
                      const int64_t *widths, int64_t P, int64_t W,
                      const double *starts, const int64_t *sizes,
                      const int64_t *offsets, const int64_t *row_node,
                      int64_t u, const double *cdf_flat,
                      double deadline, double dt, double *rows) {
    for (int64_t r = 0; r < u; r++) {
        int64_t node = row_node[r];
        int64_t w = widths[node];
        double start = starts[r];
        int64_t size = sizes[r];
        const double *cdf = cdf_flat + offsets[r];
        for (int64_t p = 0; p < P; p++) {
            const double *tp = times + (node * P + p) * W;
            const double *pp = probs + (node * P + p) * W;
            ksum acc = {0.0, 0.0};
            for (int64_t l = 0; l < w; l++) {
                double kf = floor(((deadline - tp[l]) - start) / dt + 1e-9);
                int64_t k = (int64_t)kf;
                if (k >= 0) {
                    if (k > size - 1) k = size - 1;
                    kadd(&acc, pp[l] * cdf[k]);
                }
            }
            rows[r * P + p] = kval(&acc);
        }
    }
}

/* dot(arange(n), probs): the start-independent first moment. */
double repro_moment1(const double *p, int64_t n) {
    ksum acc = {0.0, 0.0};
    for (int64_t i = 0; i < n; i++) kadd(&acc, (double)i * p[i]);
    return kval(&acc);
}
"""


def _build_dir() -> pathlib.Path:
    override = os.environ.get("REPRO_KERNEL_BUILD_DIR")
    if override:
        return pathlib.Path(override)
    # Per-user so the cache is writable in shared-tempdir environments.
    return pathlib.Path(tempfile.gettempdir()) / f"repro-ckernels-{os.getuid()}"


def _find_compiler() -> str | None:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def _compile_library() -> pathlib.Path | None:
    """Build (or reuse) the kernel shared library; ``None`` on any failure."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    suffix = "dylib" if sys.platform == "darwin" else "so"
    build_dir = _build_dir()
    lib_path = build_dir / f"repro_kernels_{digest}.{suffix}"
    if lib_path.exists():
        return lib_path
    compiler = _find_compiler()
    if compiler is None:
        return None
    try:
        build_dir.mkdir(parents=True, exist_ok=True)
        src_path = build_dir / f"repro_kernels_{digest}.c"
        src_path.write_text(_C_SOURCE)
        # Build to a unique temp name and rename into place: concurrent
        # processes race benignly (rename is atomic on POSIX).
        with tempfile.NamedTemporaryFile(
            dir=build_dir, suffix=f".{suffix}", delete=False
        ) as handle:
            tmp_path = pathlib.Path(handle.name)
        result = subprocess.run(
            [compiler, "-O2", "-fPIC", "-shared", str(src_path), "-o", str(tmp_path), "-lm"],
            capture_output=True,
            timeout=120,
        )
        if result.returncode != 0:
            tmp_path.unlink(missing_ok=True)
            return None
        tmp_path.replace(lib_path)
        return lib_path
    except (OSError, subprocess.SubprocessError):
        return None


_i64 = ctypes.c_int64
_f64 = ctypes.c_double
# Array arguments are declared ``c_void_p`` and passed as raw addresses
# (``arr.ctypes.data``): a ``ctypes.cast`` per argument costs more than
# some of the kernels themselves at hot-path call rates.
_ptr = ctypes.c_void_p


def load_cext_backend() -> KernelBackend | None:
    """Compile/load the C kernels; ``None`` when no toolchain works."""
    t0 = time.perf_counter()
    lib_path = _compile_library()
    if lib_path is None:
        return None
    try:
        lib = ctypes.CDLL(str(lib_path))
        conv_c = lib.repro_conv_full
        trunc_c = lib.repro_trunc_tail
        prob_c = lib.repro_prob_sum
        score_c = lib.repro_score_rows
        moment_c = lib.repro_moment1
    except (OSError, AttributeError):  # pragma: no cover - corrupt build
        return None
    conv_c.restype = _i64
    conv_c.argtypes = [_ptr, _i64, _ptr, _i64, _ptr, _ptr]
    trunc_c.restype = _i64
    trunc_c.argtypes = [_ptr, _i64, _i64, _ptr]
    prob_c.restype = _f64
    prob_c.argtypes = [_ptr, _i64, _f64, _ptr, _i64]
    score_c.restype = None
    score_c.argtypes = [
        _ptr, _ptr, _ptr, _i64, _i64,
        _ptr, _ptr, _ptr, _ptr, _i64,
        _ptr, _f64, _f64, _ptr,
    ]
    moment_c.restype = _f64
    moment_c.argtypes = [_ptr, _i64]

    lo_box = ctypes.c_int64()
    lo_addr = ctypes.addressof(lo_box)

    def conv_full(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
        out = np.empty(a.size + b.size - 1)
        n = conv_c(a.ctypes.data, a.size, b.ctypes.data, b.size, out.ctypes.data, lo_addr)
        arr = out[:n] if n != out.size else out
        arr.setflags(write=False)
        return arr, lo_box.value

    def trunc_tail(probs: np.ndarray, k: int) -> np.ndarray | None:
        out = np.empty(probs.size - k)
        n = trunc_c(probs.ctypes.data, probs.size, k, out.ctypes.data)
        if n == 0:
            return None
        out.setflags(write=False)
        return out

    def prob_sum(exec_probs: np.ndarray, base: float, cdf: np.ndarray) -> float:
        return prob_c(
            exec_probs.ctypes.data, exec_probs.size, base, cdf.ctypes.data, cdf.size
        )

    def score_rows(
        times: np.ndarray,
        probs: np.ndarray,
        widths: np.ndarray,
        starts: np.ndarray,
        sizes: np.ndarray,
        offsets: np.ndarray,
        row_node: np.ndarray,
        cdf_flat: np.ndarray,
        deadline: float,
        dt: float,
    ) -> np.ndarray:
        u = starts.size
        P, W = times.shape[1], times.shape[2]
        rows = np.empty((u, P))
        score_c(
            times.ctypes.data, probs.ctypes.data, widths.ctypes.data, P, W,
            starts.ctypes.data, sizes.ctypes.data, offsets.ctypes.data,
            row_node.ctypes.data, u,
            cdf_flat.ctypes.data, deadline, dt, rows.ctypes.data,
        )
        return rows

    def moment1(probs: np.ndarray) -> float:
        return moment_c(probs.ctypes.data, probs.size)

    backend = KernelBackend(
        "cext",
        compiled=True,
        conv_full=conv_full,
        trunc_tail=trunc_tail,
        prob_sum=prob_sum,
        score_rows=score_rows,
        moment1=moment1,
        warmup_s=time.perf_counter() - t0,
    )
    # Smoke the bindings once so a broken build surfaces here (as
    # "unavailable") rather than mid-trial.
    try:
        arr, lo = backend.conv_full(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        assert arr.size >= 1 and lo >= 0
        assert backend.trunc_tail(np.array([0.25, 0.25, 0.5]), 1) is not None
    except Exception:  # pragma: no cover - corrupt build
        return None
    return backend
