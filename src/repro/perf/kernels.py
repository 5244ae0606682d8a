"""The kernel backend names :class:`~repro.perf.PerfConfig` accepts.

numpy is the only kernel backend: :mod:`repro.stoch.ops` and
:class:`~repro.sim.mapper.CandidateBuilder` run their own vectorized
numpy code, so every probability has one reduction order and mapping
decisions, trial digests and manifests have one definition.
"""

from __future__ import annotations

__all__ = ["resolve_backend"]


def resolve_backend(name: str) -> None:
    """Check a kernel backend name; ``None`` means the numpy path.

    ``"numpy"`` is the one valid name; anything else raises
    ``ValueError``.
    """
    if name != "numpy":
        raise ValueError(f"unknown kernel backend {name!r}; the only backend is 'numpy'")
    return None
