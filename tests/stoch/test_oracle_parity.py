"""The finalizer-based discretizers and convolution match the per-law oracle bitwise.

``tests/stoch/reference.py`` keeps the ``scipy.stats`` CDF +
``PMF(...).compact()`` formulation; every pmf the library builds from
masses must reproduce it to the last bit, in every finalizer branch:
untrimmed, tail-trimmed, single-bin and the zero-mass fallback.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from repro.stoch.distributions import (
    discretized_gamma,
    discretized_gamma_batch,
    discretized_normal,
)
from repro.stoch.ops import _finalize, convolve
from tests.stoch import reference


def assert_bitwise(got, ref):
    assert got.start == ref.start and got.dt == ref.dt
    assert got.probs.tobytes() == ref.probs.tobytes()
    assert got.mean() == ref.mean()
    assert not got.probs.flags.writeable


class TestGamma:
    """Single gamma laws; whole tables are pinned in ``tests/workload/test_pmf_table.py``."""

    @pytest.mark.parametrize(
        "mean, cv, dt, tail_sigmas, shape",
        [
            (100.0, 0.2, 1.0, 4.0, "untrimmed"),
            (100.0, 0.2, 1.0, 12.0, "trimmed"),
            (110.0, 0.001, 50.0, 4.0, "single-bin"),
        ],
    )
    def test_finalizer_branches(self, mean, cv, dt, tail_sigmas, shape):
        got = discretized_gamma(mean, cv, dt, tail_sigmas=tail_sigmas)
        assert_bitwise(got, reference.gamma(mean, cv, dt, tail_sigmas=tail_sigmas))
        std = cv * mean
        bins = math.ceil((mean + tail_sigmas * std) / dt) - math.floor(
            max(0.0, mean - tail_sigmas * std) / dt
        )
        if shape == "untrimmed":
            assert len(got) == bins
        elif shape == "trimmed":
            assert 1 < len(got) < bins
        else:
            assert len(got) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("field", ["mean", "cv", "dt", "tail_sigmas"])
    def test_front_door_rejects(self, field, bad):
        args = {"mean": 100.0, "cv": 0.2, "dt": 5.0, "tail_sigmas": 4.0}
        args[field] = bad
        with pytest.raises(ValueError, match=field):
            discretized_gamma_batch(
                np.array([args["mean"], 50.0]),
                args["cv"],
                args["dt"],
                tail_sigmas=args["tail_sigmas"],
            )

    def test_non_finite_masses_rejected(self):
        # A cv so small that the gamma shape overflows: every argument
        # passes the front door, the one scan over the bin masses stops it.
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
            discretized_gamma(100.0, 1e-155, 1.0)


class TestNormal:
    @settings(max_examples=100)
    @given(
        mean=st.floats(-500.0, 3000.0), std=st.floats(0.01, 400.0), dt=st.floats(0.25, 60.0)
    )
    def test_matches_oracle(self, mean, std, dt):
        assert_bitwise(discretized_normal(mean, std, dt), reference.normal(mean, std, dt))

    def test_zero_mass_fallback(self):
        # Support entirely below zero: clipped to one bin at [0, dt] whose
        # CDF is 1 at both edges, so no bin carries mass.
        got = discretized_normal(-100.0, 1.0, 2.0)
        assert_bitwise(got, reference.normal(-100.0, 1.0, 2.0))
        assert got.probs.tolist() == [1.0] and got.start == 1.0

    @pytest.mark.parametrize("field", ["mean", "std", "dt"])
    def test_front_door_rejects_nan(self, field):
        args = {"mean": 100.0, "std": 5.0, "dt": 1.0}
        args[field] = math.nan
        with pytest.raises(ValueError, match=field):
            discretized_normal(args["mean"], args["std"], args["dt"])


class TestFinalize:
    def test_zero_mass_puts_all_mass_mid_range(self):
        got = _finalize(10.0, 2.0, np.zeros(5))
        assert got.start == 14.0 and got.probs.tolist() == [1.0]

    def test_never_aliases_a_view(self):
        buf = np.array([0.0, 0.25, 0.5, 0.25, 0.0])
        got = _finalize(0.0, 1.0, buf[1:4])
        buf[:] = 7.0
        assert got.probs.tolist() == [0.25, 0.5, 0.25]

    @settings(max_examples=100)
    @given(
        a=st.tuples(st.floats(1.0, 500.0), st.floats(0.05, 1.0)),
        b=st.tuples(st.floats(1.0, 500.0), st.floats(0.05, 1.0)),
        dt=st.floats(0.5, 20.0),
        shift=st.floats(-50.0, 50.0),
    )
    def test_convolve_matches_oracle(self, a, b, dt, shift):
        pa = discretized_gamma(a[0], a[1], dt)
        pb = discretized_normal(b[0] + shift, b[0] * b[1], dt)
        if len(pa) > 1 and len(pb) > 1:
            assert_bitwise(convolve(pa, pb), reference.convolve(pa, pb))


class TestSpecialFunctions:
    """Pinned: each scipy.special kernel equals the scipy.stats call it replaced."""

    def test_ndtr_equals_norm_cdf(self):
        for loc, scale in [(0.0, 1.0), (1.5, 2.5), (-300.0, 40.0)]:
            x = loc + scale * np.linspace(-12.0, 12.0, 20001)
            ref = stats.norm.cdf(x, loc=loc, scale=scale)
            assert special.ndtr((x - loc) / scale).tobytes() == ref.tobytes()

    def test_gammainc_equals_gamma_cdf(self):
        x = np.concatenate([[0.0], np.geomspace(1e-3, 5e4, 4000)])
        for cv in [0.01, 0.1, 0.2, 0.5, 1.0, 1.5]:
            shape, scale = 1.0 / (cv * cv), 750.0 * cv * cv
            ref = stats.gamma.cdf(x, a=shape, scale=scale)
            assert special.gammainc(shape, x / scale).tobytes() == ref.tobytes()

    def test_stdtrit_equals_t_ppf(self):
        p = np.linspace(0.5, 0.9995, 200)
        for dof in list(range(1, 60)) + [100, 1000]:
            assert special.stdtrit(dof, p).tobytes() == stats.t.ppf(p, dof).tobytes()
