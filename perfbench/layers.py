"""Per-layer tracing for the benchmark, recorded from outside the program.

The benchmark never edits ``src/``.  A traced pass instead wraps the
public entry points of each layer in a span for the duration of the
pass (:func:`instrument`) and passes the same :class:`Tracer` to the
engine, whose event loop already times its handlers through the
structural ``tracer.span(name)`` protocol.  Spans live in flat arrays
and are reduced only when the pass ends: a traced 16-variant grid trial
records about half a million spans, and the run reports what recording
them cost as ``trace.overhead_frac``.

The arithmetic the report rests on (:func:`self_times`,
:func:`percentile`, :func:`busy_frac`) lives here too, so the tests can
check it without running a workload.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from array import array
from typing import Any, Callable, Iterator, Sequence

import numpy as np


class Tracer:
    """In-memory span recorder with the engine's ``span(name)`` shape.

    Spans nest strictly (they are context managers on one thread), so a
    span's children are disjoint intervals inside it.  ``span(name)``
    returns one reusable context manager per name; the open-span stack
    lives on the tracer, which keeps re-entrant and recursive use exact.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._spans: dict[str, _Span] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = [-1]
        #: Free-form counters layers add to (filter kept/feasible, cache).
        self.counters: dict[str, float] = {}

    def span(self, name: str) -> "_Span":
        """The context manager timing one region named ``name``."""
        span = self._spans.get(name)
        if span is None:
            span = _Span(self, len(self.names))
            self.names.append(name)
            self._spans[name] = span
        return span

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn``, with every call timed as span ``name``."""
        span = self.span(name)

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            with span:
                return fn(*args, **kwargs)

        return timed

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + value

    def layers(self) -> dict[str, dict[str, Any]]:
        """Per span name: ``count``, ``total_s``, ``self_s`` and ``durations_s``."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=np.int64, count=n)
        end = np.frombuffer(self.end, dtype=np.int64, count=n)
        dur = (end - start).astype(np.float64) * 1e-9
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        names = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        own = self_times(dur, parent)
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = {
                "count": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(own[mask].sum()),
                "durations_s": dur[mask],
            }
        return out


class _Span:
    __slots__ = ("_tracer", "_nid")

    def __init__(self, tracer: Tracer, nid: int) -> None:
        self._tracer = tracer
        self._nid = nid

    def __enter__(self) -> "_Span":
        t = self._tracer
        t.name_id.append(self._nid)
        t.parent.append(t._open[-1])
        t._open.append(len(t.end))
        t.end.append(0)
        t.start.append(time.perf_counter_ns())
        return self

    def __exit__(self, *exc: object) -> bool:
        t = self._tracer
        t.end[t._open.pop()] = time.perf_counter_ns()
        return False


def self_times(durations: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part its child spans cover.

    ``parent[i]`` is the index of span ``i``'s enclosing span, ``-1``
    for a root.  Children of one span are disjoint and inside it (strict
    nesting), so the covered part is the sum of the children's
    durations.  The self times of a tree add up to its root's duration.
    """
    durations = np.asarray(durations, dtype=np.float64)
    parent = np.asarray(parent)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=durations[has_parent], minlength=durations.size
    )
    return durations - covered


def percentile(values: Sequence[float] | np.ndarray, q: float) -> float:
    """The ``q``-th percentile, interpolating linearly between ranks.

    Matches numpy's default ("linear") method: rank ``q/100 * (n-1)``
    of the sorted values, interpolated between its two neighbours.
    ``nan`` for no values.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    data = np.sort(np.asarray(values, dtype=np.float64))
    if data.size == 0:
        return math.nan
    rank = q / 100.0 * (data.size - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, data.size - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (rank - lo))


def busy_frac(busy_s: float, n_jobs: int, wall_s: float) -> float:
    """Share of ``n_jobs`` workers' wall time spent on trial work.

    ``busy_s`` is the summed per-trial host time of the same trials run
    serially; 1.0 means the pool added no dispatch, IPC or idle time.
    """
    if n_jobs < 1 or wall_s <= 0.0:
        raise ValueError("need n_jobs >= 1 and a positive wall time")
    return busy_s / (n_jobs * wall_s)


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Time every layer's public entry points into ``tracer`` while open.

    Wraps, and restores on exit:

    * ``CandidateBuilder.build`` (``mapper.build``) and
      ``CoreState.ready_pmf`` (``state.ready_pmf``, a child of it);
    * ``FilterChain.apply`` (``filters.apply``), counting candidates
      feasible before and kept after, and arrivals left with none;
    * ``select`` of every heuristic class (``heuristics.select``);
    * ``build_trial_system`` as the runner calls it (``system.build``)
      and ``ExecutionTimeTable`` construction (``workload.pmf_table``);
    * the runner's and the service's engine construction, so every
      engine gets ``tracer`` and reports its kernel-cache counters.
      Batch runs sit inside an ``engine.loop`` span; service runs are
      the caller's to span.
    """
    from repro import service
    from repro.experiments import runner
    from repro.filters.chain import FilterChain
    from repro.heuristics.base import Heuristic
    from repro.sim.engine import Engine
    from repro.sim.mapper import CandidateBuilder
    from repro.sim.state import CoreState
    from repro.workload.pmf_table import ExecutionTimeTable

    patches: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, new: Any) -> None:
        patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def add_cache(stats: Any) -> None:
        if stats is not None:
            tracer.count("perf.cache.hits", stats.hits)
            tracer.count("perf.cache.misses", stats.misses)

    class TracedEngine(Engine):
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            kwargs["tracer"] = tracer
            super().__init__(*args, **kwargs)

        def run(self) -> Any:
            try:
                return super().run()
            finally:
                add_cache(self.kernel_cache_stats())

        def serve(self, arrivals: Any) -> float:
            try:
                return super().serve(arrivals)
            finally:
                add_cache(self.kernel_cache_stats())

    loop_span = tracer.span("engine.loop")

    def run_trial(system: Any, heuristic: Any, filter_chain: Any, **kwargs: Any) -> Any:
        with loop_span:
            return TracedEngine(system, heuristic, filter_chain, **kwargs).run()

    filter_span = tracer.span("filters.apply")
    original_apply = FilterChain.apply

    def apply(self: Any, cands: Any, ctx: Any) -> None:
        before = cands.num_feasible
        with filter_span:
            original_apply(self, cands, ctx)
        after = cands.num_feasible
        tracer.count("filters.feasible", before)
        tracer.count("filters.kept", after)
        if after == 0:
            tracer.count("filters.empty")

    try:
        patch(CandidateBuilder, "build", tracer.wrap("mapper.build", CandidateBuilder.build))
        patch(CoreState, "ready_pmf", tracer.wrap("state.ready_pmf", CoreState.ready_pmf))
        patch(FilterChain, "apply", apply)
        for cls in set(_subclasses(Heuristic)):
            if "select" in vars(cls):
                patch(cls, "select", tracer.wrap("heuristics.select", vars(cls)["select"]))
        patch(
            ExecutionTimeTable,
            "__init__",
            tracer.wrap("workload.pmf_table", ExecutionTimeTable.__init__),
        )
        patch(runner, "build_trial_system", tracer.wrap("system.build", runner.build_trial_system))
        patch(runner, "run_trial", run_trial)
        patch(service, "Engine", TracedEngine)
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
