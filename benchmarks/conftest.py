"""Benchmark-suite configuration: make ``benchmarks/`` importable.

This pytest-benchmark suite regenerates the paper's tables (Figures 2-6,
the text summary, ablations and extensions) into ``results/``; it is
not a performance tracker.  Performance is measured by the repository
benchmark declared in ``BENCHMARK.json`` and run by ``perfbench/``.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
