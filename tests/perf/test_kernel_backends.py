"""Kernel backend name validation and the ``PerfConfig.backend`` knob.

numpy is the only kernel backend: ``resolve_backend("numpy")`` is
``None`` (the numpy path) and every other name is rejected, both by
:func:`repro.perf.kernels.resolve_backend` and by
:class:`~repro.perf.PerfConfig`.
"""

from __future__ import annotations

import pytest

from repro.perf import PerfConfig
from repro.perf.kernels import resolve_backend


class TestResolution:
    def test_numpy_resolves_to_none(self):
        assert resolve_backend("numpy") is None

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("fortran")


class TestEnvOverride:
    def test_default_is_numpy(self, monkeypatch):
        # The REPRO_PERF_BACKEND override is gone; the default ignores it.
        monkeypatch.setenv("REPRO_PERF_BACKEND", "cext")
        assert PerfConfig().backend == "numpy"
        assert PerfConfig(backend="numpy") == PerfConfig()


class TestPerfConfig:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            PerfConfig(backend="fortran")

    def test_make_backend_numpy_is_none(self):
        assert resolve_backend(PerfConfig(backend="numpy").backend) is None
