"""Command-line interface.

Installed as the ``repro`` console script::

    repro calibrate                     # sanity-check the Section VI setup
    repro trial -H LL -F en+rob         # one trial, one policy
    repro serve --traffic diurnal --horizon 3e5 --windows-out w.jsonl
                                        # continuous-service mode
    repro serve --horizon 3e5 --fault-mtbf 6e4 --fault-mttr 6e3 \
                --shed-queue-depth 8    # degraded service with shedding
    repro serve --horizon 3e5 --telemetry-port 9464 \
                --slo 'on_time_prob<0.9:3'  # live scrape + SLO health
    repro monitor windows.jsonl --follow    # terminal dashboard
    repro figure fig5 --trials 10       # one of the paper's figures
    repro grid --trials 50 -o grid.json # the full 16-variant evaluation
    repro sweep --multipliers 0.7 1.0 1.3  # budget-tightness sweep
    repro report grid.json --svg-dir figs/   # re-render saved results
    repro compare grid.json LL/none LL/en+rob # paired significance test
    repro trial --trace-out t.jsonl --metrics-out m.json  # observed run
    repro trial --profile-out p.json --timeline-out tl.json  # profiled run
    repro profile p.json --timeline tl.json  # top-spans + timeline digest
    repro inspect-manifest grid.manifest.json --results grid.json
    repro grid --jobs 8 --checkpoint g.ckpt.jsonl --resume  # survivable run

All simulation subcommands accept ``--tasks`` and ``--seed``; results
are deterministic for a given seed, with tracing and profiling on or
off.  ``--profile-out`` files are Chrome trace-event JSON — drag one
into https://ui.perfetto.dev to browse the spans interactively.

``trial`` and ``serve`` are scenario front ends: their service, fault
and shedding flags are generated from the fields of
:class:`~repro.service.ServiceConfig` (no prefix),
:class:`~repro.scenario.FaultSettings` (``--fault-``) and
:class:`~repro.faults.SheddingConfig` (``--shed-``), with each field's
type, default and docstring help.  The parsed flags build a
:class:`~repro.scenario.Scenario` that runs through the same path as
``repro run --scenario``, so a flag means exactly what the file key
means and all three print the same ``scenario …, mode …, digest …``
header.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import pathlib
import re
import signal
import sys
from dataclasses import replace
from typing import Any, Sequence, get_args, get_type_hints

from repro import SimulationConfig
from repro.analysis.boxplot import ascii_boxplot_group
from repro.analysis.profile_report import metrics_tables, profile_table, timeline_table
from repro.analysis.svg import save_boxplot_svg, save_timeline_svg
from repro.analysis.trace_summary import trace_summary_table
from repro.experiments.calibrate import calibration_summary
from repro.experiments.compare import compare_variants
from repro.experiments.figures import FIGURES, figure_specs, full_grid_specs
from repro.experiments.report import best_variant_table, figure_table, summary_table
from repro.experiments.runner import (
    EnsembleResult,
    PartialEnsembleResult,
    VariantSpec,
    run_ensemble,
)
from repro.faults import SheddingConfig
from repro.filters.chain import VARIANTS, canonical_variant
from repro.heuristics.registry import HEURISTICS
from repro.registry import (
    HEURISTIC_PLUGINS,
    TRAFFIC_PLUGINS,
    UnknownPluginError,
    describe_plugins,
    plugin_table,
)
from repro.scenario import FaultSettings, Scenario, ScenarioError
from repro.io.faults_io import load_faults, save_faults
from repro.io.profile_io import (
    load_profile_events,
    load_timeline,
    save_profile,
    save_timeline,
)
from repro.io.results_io import ensemble_from_dict, ensemble_to_dict, load_json, save_json
from repro.io.trace_io import load_trace
from repro.obs.export import FileExporter, TelemetryServer
from repro.obs.manifest import build_manifest, load_manifest, save_manifest, verify_ensemble
from repro.obs.monitor import read_window_rows, render_monitor, scrape
from repro.obs.sinks import JsonlSink, MetricsRegistry
from repro.obs.spans import SpanProfile, SpanRecorder
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, parse_rule
from repro.obs.timeline import TIMELINE_FORMAT, TimelineRecorder, TimelineSet
from repro.service import ServiceConfig, ServiceResult, write_windows_jsonl

__all__ = ["main", "build_parser"]


def _config(args: argparse.Namespace) -> SimulationConfig:
    config = SimulationConfig(seed=args.seed)
    if args.tasks != config.workload.num_tasks:
        config = replace(config, workload=config.workload.with_num_tasks(args.tasks))
    return config


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tasks", type=int, default=1000, help="tasks per trial")
    parser.add_argument("--seed", type=int, default=0, help="master seed")


def _add_policy(parser: argparse.ArgumentParser) -> None:
    """The -H/-F policy flags, resolved case-insensitively via the registries."""
    parser.add_argument(
        "-H",
        "--heuristic",
        default="LL",
        type=_heuristic_name,
        help="allocation heuristic, any registered plugin "
        f"(builtin: {', '.join(HEURISTICS)}; case-insensitive)",
    )
    parser.add_argument(
        "-F",
        "--filters",
        default="en+rob",
        type=_variant_name,
        help="filter variant: 'none' or '+'-joined registered filter names "
        f"(builtin: {', '.join(VARIANTS)}; case-insensitive)",
    )


def _add_resilience(parser: argparse.ArgumentParser) -> None:
    """Fault-tolerance flags shared by the ensemble subcommands."""
    parser.add_argument(
        "--checkpoint",
        help="stream each completed trial to this JSONL shard",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip trials already in --checkpoint (digests re-verified)",
    )
    parser.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        help="kill and retry any trial exceeding this wall clock (seconds)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retries per trial before it is quarantined as poison",
    )


#: The scenario sections behind the trial/serve flags, with their flag prefix.
_PREFIXES: dict[type, str] = {
    ServiceConfig: "",
    FaultSettings: "fault-",
    SheddingConfig: "shed-",
}


def _scalar_fields(cls: type) -> list[tuple[dataclasses.Field, type]]:
    """The fields of ``cls`` typed bool/int/float/str, optionally ``| None``."""
    hints = get_type_hints(cls)
    out = []
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        kinds = [k for k in get_args(hint) or (hint,) if k is not type(None)]
        if len(kinds) == 1 and kinds[0] in (bool, int, float, str):
            out.append((field, kinds[0]))
    return out


def _attribute_help(cls: type) -> dict[str, str]:
    """The ``Attributes`` entries of ``cls``'s docstring as one-line help."""
    section = inspect.cleandoc(cls.__doc__ or "").partition("Attributes\n----------\n")[2]
    entries: dict[str, list[str]] = {}
    body: list[str] = []
    for line in section.splitlines():
        if line and not line[0].isspace():
            body = entries.setdefault(line.rstrip(":"), [])
        else:
            body.append(line)
    helps = {}
    for name, body in entries.items():
        text = " ".join(" ".join(body).split())
        # ":class:`~repro.x.Name`" -> "Name", "``x``" -> "x"; argparse %-formats help.
        text = re.sub(r":\w+:`~?(?:[\w.]*\.)?([^`]+)`", r"\1", text)
        helps[name] = text.replace("``", "").replace("%", "%%")
    return helps


def _add_section(parser: argparse.ArgumentParser, cls: type) -> None:
    """One flag per scalar field of ``cls``: ``--<prefix><field-name>``."""
    helps = _attribute_help(cls)
    group = parser.add_argument_group(f"{cls.__name__} fields")
    for field, kind in _scalar_fields(cls):
        flag = f"--{_PREFIXES[cls]}{field.name}".replace("_", "-")
        options: dict[str, Any] = (
            {"action": argparse.BooleanOptionalAction}
            if kind is bool
            # Traffic names canonicalize (and fail) at parse time.
            else {"type": _traffic_name if field.name == "traffic" else kind}
        )
        group.add_argument(
            flag,
            dest=flag[2:].replace("-", "_"),
            default=field.default,
            help=helps.get(field.name),
            **options,
        )


def _add_fault_layer(parser: argparse.ArgumentParser) -> None:
    """The fault and shedding flags shared by trial and serve."""
    group = parser.add_argument_group("fault schedule files")
    group.add_argument(
        "--faults", help="load a repro.faults/1 schedule JSON (vs. generating one)"
    )
    group.add_argument(
        "--faults-out", help="save the (loaded or generated) fault schedule here"
    )
    _add_section(parser, FaultSettings)
    _add_section(parser, SheddingConfig)


def _section(args: argparse.Namespace, cls: type, **extra: Any) -> Any:
    """Build ``cls`` from the flags :func:`_add_section` generated for it."""
    prefix = _PREFIXES[cls].replace("-", "_")
    values = {field.name: getattr(args, prefix + field.name) for field, _ in _scalar_fields(cls)}
    return cls(**values, **extra)


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    """The scenario a ``trial`` or ``serve`` command line describes.

    A fault or shedding section left at its defaults becomes ``None``;
    service mode always carries its :class:`ServiceConfig` (``None``
    there would mean replay).
    """
    mode = "service" if args.command == "serve" else "trial"
    try:
        events = load_faults(args.faults).events if args.faults else ()
        faults = _section(args, FaultSettings, events=events)
        shedding = _section(args, SheddingConfig)
        return Scenario(
            args.heuristic,
            args.filters,
            seed=args.seed,
            num_tasks=args.tasks,
            mode=mode,
            service=_section(args, ServiceConfig) if mode == "service" else None,
            faults=None if faults == FaultSettings() else faults,
            shedding=None if shedding == SheddingConfig() else shedding,
        )
    except ValueError as exc:
        raise SystemExit(f"repro {args.command}: {exc}")


def _print_fault_totals(totals: dict[str, int]) -> None:
    """One-line fault/shedding summary (only when something happened)."""
    if not any(totals.values()):
        return
    print(
        f"faults: {totals['outages']} outages ({totals['recoveries']} recovered, "
        f"{totals['slowdowns']} slowdowns), {totals['orphaned']} orphaned "
        f"({totals['remapped']} re-mapped), {totals['lost']} lost, "
        f"{totals['shed']} shed, {totals['deferred']} deferred"
    )


def _obs_parent() -> argparse.ArgumentParser:
    """One argparse parent carrying the observability flags.

    Every simulation subcommand (trial / figure / grid / sweep) inherits
    the same five flags with the same names and semantics, so ``repro X
    --metrics-out m.json`` works uniformly: ``--trace-out`` streams
    JSONL events (per-task events for ``trial``; executor-level recovery
    events for the ensemble commands), ``--metrics-out`` aggregates the
    counter/histogram registry, ``--profile-out`` records wall-clock
    spans as Chrome trace-event JSON, and ``--timeline-out`` samples
    system state on a ``--timeline-dt`` grid.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument("--trace-out", help="write a JSONL event trace here")
    group.add_argument("--metrics-out", help="write the metrics registry JSON here")
    group.add_argument(
        "--profile-out",
        help="write a Chrome trace-event span profile here (Perfetto-loadable)",
    )
    group.add_argument(
        "--timeline-out",
        help="write sampled system-state timelines (repro.timeline/1 JSON) here",
    )
    group.add_argument(
        "--timeline-dt",
        type=float,
        default=60.0,
        help="simulated seconds between timeline samples (default: 60)",
    )
    return parent


def _parse_spec(label: str) -> VariantSpec:
    try:
        heuristic, variant = label.split("/", 1)
    except ValueError:
        raise SystemExit(f"spec must look like 'LL/en+rob', got {label!r}")
    return VariantSpec(heuristic, variant)


def _heuristic_name(value: str) -> str:
    """argparse type: canonicalize a heuristic name via the plugin registry.

    Accepts any case ("mect" == "MECT") and any registered third-party
    heuristic, unlike a static ``choices=`` list.
    """
    try:
        return HEURISTIC_PLUGINS.canonical(value)
    except UnknownPluginError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _variant_name(value: str) -> str:
    """argparse type: canonicalize a filter-variant label ("EN+ROB" -> "en+rob")."""
    try:
        return canonical_variant(value)
    except UnknownPluginError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    except KeyError as exc:
        raise argparse.ArgumentTypeError(str(exc.args[0]))


def _traffic_name(value: str) -> str:
    """argparse type: canonicalize a traffic-model name via the registry."""
    try:
        return TRAFFIC_PLUGINS.canonical(value)
    except UnknownPluginError as exc:
        raise argparse.ArgumentTypeError(str(exc))


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def cmd_calibrate(args: argparse.Namespace) -> int:
    """Print Section VI subscription/budget diagnostics."""
    print(calibration_summary(_config(args)))
    return 0


def _print_trial_result(result: Any) -> None:
    """The two-line score summary of one trial result."""
    print(
        f"{result.label}: missed {result.missed}/{result.num_tasks} "
        f"({result.late} late, {result.discarded} discarded, "
        f"{result.energy_cutoff} after budget exhaustion)"
    )
    print(
        f"energy {result.total_energy / 1e6:.2f} MJ of "
        f"{result.budget / 1e6:.2f} MJ budget "
        f"({100 * result.energy_utilization():.1f}%), makespan {result.makespan:.0f}"
    )


def cmd_trial(args: argparse.Namespace) -> int:
    """Run a single trial of one (heuristic, filters) policy."""
    scenario = _scenario_from_args(args)
    metrics = MetricsRegistry() if args.metrics_out else None
    trace_sink = JsonlSink(args.trace_out) if args.trace_out else None
    sinks = (trace_sink,) if trace_sink is not None else ()
    recorder = (
        SpanRecorder(stream=0, label=f"trial:{scenario.label}")
        if args.profile_out
        else None
    )
    timeline = (
        TimelineRecorder(args.timeline_dt, stream=0, label=scenario.label)
        if args.timeline_out
        else None
    )
    try:
        _run_scenario(
            scenario,
            "trial",
            faults_out=args.faults_out,
            metrics=metrics,
            sinks=sinks,
            profile=recorder,
            timeline=timeline,
        )
    finally:
        if trace_sink is not None:
            trace_sink.close()
    if trace_sink is not None:
        print(f"wrote {args.trace_out} ({trace_sink.count} events)")
    if metrics is not None:
        save_json(metrics.to_dict(), args.metrics_out)
        print(f"wrote {args.metrics_out}")
    if recorder is not None:
        profile = SpanProfile()
        profile.add_stream(recorder)
        save_profile(profile, args.profile_out)
        print(f"wrote {args.profile_out} ({len(recorder)} spans)")
    if timeline is not None:
        timeline_set = TimelineSet(args.timeline_dt)
        timeline_set.add(timeline)
        save_timeline(timeline_set, args.timeline_out)
        print(f"wrote {args.timeline_out} ({len(timeline)} samples)")
    return 0


def _print_windows(result: ServiceResult, head: int = 10, tail: int = 10) -> None:
    """Render the per-window summary table (elided in the middle when long)."""
    header = (
        f"{'#':>5} {'start':>10} {'end':>10} {'arr':>6} {'map':>6} {'disc':>6} "
        f"{'done':>6} {'late':>6} {'energy MJ':>10} {'allow MJ':>9}"
    )
    print(header)
    rows = list(enumerate(result.windows))
    elided = len(rows) - head - tail
    if elided > 1:
        shown: list[tuple[int, Any] | None] = [*rows[:head], None, *rows[-tail:]]
    else:
        shown = list(rows)
    for row in shown:
        if row is None:
            print(f"{'...':>5} ({elided} windows elided)")
            continue
        index, w = row
        allow = "-" if w.budget_remaining != w.budget_remaining else f"{w.budget_remaining / 1e6:9.3f}"
        print(
            f"{index:>5} {w.start:>10.1f} {w.end:>10.1f} {w.arrivals:>6} "
            f"{w.mapped:>6} {w.discarded:>6} {w.completed:>6} {w.late:>6} "
            f"{w.energy / 1e6:>10.3f} {allow:>9}"
        )


def _resolve_telemetry(
    args: argparse.Namespace,
) -> tuple[Telemetry, TelemetryServer | None]:
    """Build the serve command's telemetry hub (inert when unrequested)."""
    wanted = (
        args.telemetry_port is not None
        or args.telemetry_out is not None
        or bool(args.slo)
    )
    if not wanted:
        return NULL_TELEMETRY, None
    try:
        telemetry = Telemetry(rules=[parse_rule(spec) for spec in args.slo or []])
    except ValueError as exc:
        raise SystemExit(f"--slo: {exc}")
    if args.telemetry_out:
        telemetry.exporters.append(FileExporter(args.telemetry_out, telemetry))
    server = None
    if args.telemetry_port is not None:
        server = TelemetryServer(telemetry, port=args.telemetry_port)
        port = server.start()
        print(f"telemetry: scrape http://127.0.0.1:{port}/metrics "
              f"(health: /health)")
    return telemetry, server


def _print_telemetry_summary(telemetry: Telemetry) -> None:
    """Post-run SLO health + steady-state roll-up of a telemetered serve."""
    health = telemetry.health()
    verdict = "healthy" if health["healthy"] else "UNHEALTHY"
    print(f"SLO health: {verdict} ({health['alerts']} alert transitions)")
    for state in health["rules"]:
        mark = "FIRING" if state["firing"] else "ok"
        print(
            f"  [{mark:>6}] {state['rule']}  "
            f"breached {state['breached_windows']} windows, "
            f"fired {state['fired_count']}x"
        )
    steady = telemetry.steady_state()
    if steady:
        from repro.analysis.steady_state import steady_state_table

        print("steady state (MSER-5 warm-up, batch-means CI):")
        print(steady_state_table(steady))


def _print_service_summary(result: ServiceResult) -> None:
    """The roll-up a service run prints: totals, faults, budget, windows."""
    totals = result.totals
    if result.truncated:
        print("stop requested: stream cut, committed work drained")
    print(
        f"{result.label} [{result.traffic}]: {totals.arrivals} arrivals "
        f"({totals.mapped} mapped, {totals.discarded} discarded), "
        f"{totals.completed} completed ({totals.late} late), "
        f"makespan {result.makespan:.0f}"
    )
    if result.fault_totals is not None:
        _print_fault_totals(result.fault_totals)
    print(
        f"energy {result.total_energy / 1e6:.2f} MJ over {len(result.windows)} "
        f"windows of {result.window:.0f} s"
    )
    if result.trial_result is None and result.traffic != "replay":
        print(
            f"allowance drawn {result.budget_drawn / 1e6:.2f} MJ "
            f"(deficit {result.budget_deficit / 1e6:.2f} MJ)"
        )
    if result.trial_result is not None:
        batch = result.trial_result
        print(
            f"batch-equivalent score: missed {batch.missed}/{batch.num_tasks} "
            f"({batch.late} late, {batch.discarded} discarded, "
            f"{batch.energy_cutoff} after budget exhaustion)"
        )
    _print_windows(result)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the engine as a continuous service and summarize its windows.

    SIGINT/SIGTERM trigger a graceful shutdown: the arrival stream is
    cut, committed work drains, the final partial window is flushed
    (``--windows-out`` then ends with a truncation trailer) and the
    process exits 0.
    """
    scenario = _scenario_from_args(args)
    timeline = (
        TimelineRecorder(
            args.timeline_dt, stream=0, label=scenario.label, capacity=args.timeline_cap
        )
        if args.timeline_out
        else None
    )
    telemetry, server = _resolve_telemetry(args)
    try:
        result = _run_scenario(
            scenario,
            "serve",
            faults_out=args.faults_out,
            timeline=timeline,
            telemetry=telemetry,
        )
    except BaseException:
        if server is not None:
            server.stop()
        raise
    if telemetry.enabled:
        _print_telemetry_summary(telemetry)
    if args.windows_out:
        count = write_windows_jsonl(result, args.windows_out)
        print(f"wrote {args.windows_out} ({count} windows)")
    if args.telemetry_out and telemetry.enabled:
        for exporter in telemetry.exporters:
            exporter.export()
        print(f"wrote {args.telemetry_out}")
    if timeline is not None:
        timeline_set = TimelineSet(args.timeline_dt)
        timeline_set.add(timeline)
        save_timeline(timeline_set, args.timeline_out)
        print(f"wrote {args.timeline_out} ({len(timeline)} samples)")
    if server is not None:
        if args.telemetry_linger > 0.0:
            # Leave the endpoint scrapeable after the simulation ends so
            # a collector (or the CI smoke job) can take a final sample.
            import time

            print(f"telemetry: lingering {args.telemetry_linger:.0f}s for scrapes")
            try:
                time.sleep(args.telemetry_linger)
            except KeyboardInterrupt:
                pass
        server.stop()
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    """Tail window JSONL (or scrape a live endpoint) into a dashboard.

    With a file source, ``--follow`` polls for newly appended rows and
    re-renders until the truncation trailer lands or Ctrl-C.  With an
    ``http(s)://`` source, each refresh prints the raw Prometheus
    scrape (the serving process owns the rendering).
    """
    try:
        rules = [parse_rule(spec) for spec in args.slo or []]
    except ValueError as exc:
        raise SystemExit(f"--slo: {exc}")
    if args.source.startswith(("http://", "https://")):
        import time

        while True:
            try:
                print(scrape(args.source), end="")
            except OSError as exc:
                raise SystemExit(f"repro monitor: cannot scrape {args.source}: {exc}")
            if not args.follow:
                return 0
            time.sleep(args.interval)
            print()
    import time

    rows: list[dict[str, Any]] = []
    trailer: dict[str, Any] | None = None
    offset = 0
    rendered_at = -1
    while True:
        try:
            new_rows, new_trailer, offset = read_window_rows(
                args.source, offset=offset
            )
        except OSError as exc:
            raise SystemExit(f"repro monitor: cannot read {args.source}: {exc}")
        rows.extend(new_rows)
        trailer = new_trailer or trailer
        if len(rows) != rendered_at or not args.follow:
            if args.follow and sys.stdout.isatty():
                print("\x1b[2J\x1b[H", end="")
            print(
                render_monitor(
                    rows,
                    rules=rules,
                    tail=args.tail,
                    budget_rate=args.budget_rate,
                    trailer=trailer,
                ),
                end="",
            )
            rendered_at = len(rows)
        if not args.follow or trailer is not None:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _print_ensemble(ensemble: EnsembleResult, tasks: int, svg_dir: str | None) -> None:
    heuristics = sorted(
        {s.heuristic for s in ensemble.specs},
        # Paper heuristics keep the figures' order; third-party plugin
        # names sort alphabetically after them.
        key=lambda h: (
            HEURISTICS.index(h) if h in HEURISTICS else len(HEURISTICS),
            h,
        ),
    )
    for heuristic in heuristics:
        print(figure_table(ensemble, heuristic, tasks))
        print()
        columns = ensemble.by_heuristic(heuristic)
        print(ascii_boxplot_group(columns, title=f"{heuristic} missed deadlines"))
        print()
        if svg_dir:
            path = save_boxplot_svg(
                columns,
                f"{svg_dir}/{heuristic.lower()}_misses.svg",
                title=f"{heuristic}: missed deadlines",
            )
            print(f"wrote {path}")
    if len(heuristics) > 1:
        print(best_variant_table(ensemble, tasks))
        print()
        print(summary_table(ensemble, tasks))


def _report_partial(ensemble: EnsembleResult) -> None:
    """Print what a supervised run could not recover (quarantined trials)."""
    if not isinstance(ensemble, PartialEnsembleResult) or ensemble.is_complete():
        return
    missing = ", ".join(str(i) for i in ensemble.missing_trials)
    print(
        f"WARNING: only {len(ensemble.completed_trials)} of "
        f"{ensemble.num_trials} trials completed (missing: {missing})"
    )
    for failure in ensemble.failures:
        print(
            f"  quarantined trial {failure.trial} after {failure.attempts} "
            f"attempts ({failure.fault}): {failure.detail}"
        )


def _run_ensemble_command(specs: list[VariantSpec], args: argparse.Namespace) -> int:
    """Shared figure/grid body: run, render, save results + manifest + metrics."""
    metrics = MetricsRegistry() if args.metrics_out else None
    profile = SpanProfile() if args.profile_out else None
    timeline = TimelineSet(args.timeline_dt) if args.timeline_out else None
    # Ensemble-level traces carry the executor's recovery events
    # (retries, quarantines, checkpoints); per-task events stay in the
    # workers and are summarized by --metrics-out instead.
    trace_sink = JsonlSink(args.trace_out) if args.trace_out else None
    try:
        ensemble = run_ensemble(
            specs, _config(args), args.trials, base_seed=args.seed,
            n_jobs=args.jobs, metrics=metrics,
            checkpoint=args.checkpoint, resume=args.resume,
            trial_timeout=args.trial_timeout, max_retries=args.max_retries,
            profile=profile, timeline=timeline,
            sinks=(trace_sink,) if trace_sink is not None else (),
        )
    finally:
        if trace_sink is not None:
            trace_sink.close()
    _report_partial(ensemble)
    _print_ensemble(ensemble, args.tasks, args.svg_dir)
    if args.out:
        save_json(ensemble_to_dict(ensemble), args.out)
        print(f"wrote {args.out}")
        manifest_path = pathlib.Path(args.out).with_suffix(".manifest.json")
        save_manifest(build_manifest(ensemble, _config(args)), manifest_path)
        print(f"wrote {manifest_path}")
    if trace_sink is not None:
        print(f"wrote {args.trace_out} ({trace_sink.count} events)")
    if metrics is not None:
        save_json(metrics.to_dict(), args.metrics_out)
        print(f"wrote {args.metrics_out}")
    if profile is not None:
        save_profile(profile, args.profile_out)
        print(f"wrote {args.profile_out} ({len(profile)} spans)")
    if timeline is not None:
        save_timeline(timeline, args.timeline_out)
        print(f"wrote {args.timeline_out} ({len(timeline)} timelines)")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    """Rerun one of the paper's figures at the requested scale."""
    return _run_ensemble_command(figure_specs(args.figure), args)


def cmd_grid(args: argparse.Namespace) -> int:
    """Run the full 16-variant evaluation grid."""
    return _run_ensemble_command(full_grid_specs(), args)


def _companion_path(manifest_path: str) -> pathlib.Path:
    """Default ``--metrics`` companion: ``x.manifest.json`` -> ``x.metrics.json``."""
    path = pathlib.Path(manifest_path)
    name = path.name
    if name.endswith(".manifest.json"):
        return path.with_name(name[: -len(".manifest.json")] + ".metrics.json")
    return path.with_suffix(".metrics.json")


def _render_companion(data: Any) -> str:
    """Pretty-print a metrics / profile / timeline companion document."""
    if isinstance(data, dict) and data.get("format") == "repro.metrics/1":
        return metrics_tables(data)
    if isinstance(data, dict) and data.get("format") == TIMELINE_FORMAT:
        return timeline_table(TimelineSet.from_dict(data))
    if isinstance(data, list) or (isinstance(data, dict) and "traceEvents" in data):
        events = data if isinstance(data, list) else data["traceEvents"]
        return profile_table([e for e in events if isinstance(e, dict)])
    raise SystemExit(
        "unrecognized companion document (expected repro.metrics/1, "
        "repro.timeline/1, or Chrome traceEvents JSON)"
    )


def cmd_inspect_manifest(args: argparse.Namespace) -> int:
    """Render a run manifest; optionally verify saved results/trace."""
    manifest = load_manifest(args.manifest)
    print(manifest.summary())
    code = 0
    if args.results:
        ensemble = ensemble_from_dict(load_json(args.results))
        problems = verify_ensemble(manifest, ensemble)
        if problems:
            for problem in problems:
                print(f"MISMATCH: {problem}")
            code = 1
        else:
            print(f"results match: {args.results} is the run this manifest describes")
    if args.trace:
        events = load_trace(args.trace)
        print()
        print(trace_summary_table(events))
    if args.metrics is not None:
        companion = (
            _companion_path(args.manifest)
            if args.metrics == ""
            else pathlib.Path(args.metrics)
        )
        if not companion.exists():
            print(f"no companion file at {companion}")
            code = 1
        else:
            print()
            print(f"# {companion.name}")
            print(_render_companion(load_json(companion)))
    return code


def cmd_profile(args: argparse.Namespace) -> int:
    """Render a top-spans table from a saved Chrome trace profile."""
    events = load_profile_events(args.profile)
    print(profile_table(events, limit=args.limit))
    if args.timeline:
        timeline = load_timeline(args.timeline)
        print()
        print(timeline_table(timeline))
        if args.svg_dir:
            for stream in timeline.sorted_streams():
                safe = str(stream["label"]).replace("/", "-").replace(":", "_")
                path = save_timeline_svg(stream, f"{args.svg_dir}/timeline_{safe}.svg")
                print(f"wrote {path}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Re-render tables from a saved ensemble JSON."""
    ensemble = ensemble_from_dict(load_json(args.results))
    tasks = next(iter(ensemble.results.values()))[0].num_tasks
    _print_ensemble(ensemble, tasks, args.svg_dir)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Sweep the energy-budget multiplier over given specs."""
    from repro.experiments.sweep import budget_sweep

    specs = tuple(_parse_spec(s) for s in args.specs)
    metrics = MetricsRegistry() if args.metrics_out else None
    profile = SpanProfile() if args.profile_out else None
    timeline = TimelineSet(args.timeline_dt) if args.timeline_out else None
    trace_sink = JsonlSink(args.trace_out) if args.trace_out else None
    try:
        sweep = budget_sweep(
            args.multipliers, specs, _config(args), args.trials, base_seed=args.seed,
            n_jobs=args.jobs,
            checkpoint=args.checkpoint, resume=args.resume,
            trial_timeout=args.trial_timeout, max_retries=args.max_retries,
            metrics=metrics, profile=profile, timeline=timeline,
            sinks=(trace_sink,) if trace_sink is not None else (),
        )
    finally:
        if trace_sink is not None:
            trace_sink.close()
    for point in sweep.points:
        _report_partial(point.ensemble)
    print(sweep.table(num_tasks=args.tasks))
    if trace_sink is not None:
        print(f"wrote {args.trace_out} ({trace_sink.count} events)")
    if metrics is not None:
        save_json(metrics.to_dict(), args.metrics_out)
        print(f"wrote {args.metrics_out}")
    if profile is not None:
        save_profile(profile, args.profile_out)
        print(f"wrote {args.profile_out} ({len(profile)} spans)")
    if timeline is not None:
        save_timeline(timeline, args.timeline_out)
        print(f"wrote {args.timeline_out} ({len(timeline)} timelines)")
    return 0


def _run_scenario(
    scenario: Scenario, shown: str, *, faults_out: str | None = None, **options: Any
) -> Any:
    """The run/trial/serve body: header, fault schedule, run, mode summary.

    ``options`` forward to :func:`repro.api.run_scenario` (collectors,
    telemetry).  A service run stops gracefully on SIGINT/SIGTERM.
    """
    from repro.api import run_scenario

    print(f"scenario {shown}: {scenario.label}, mode {scenario.mode} "
          f"(digest {scenario.digest()[:12]})")
    stop_requested = False

    def _request_stop(signum: int, frame: Any) -> None:
        nonlocal stop_requested
        stop_requested = True

    previous: dict[int, Any] = {}
    try:
        if scenario.mode != "ensemble":
            options["system"] = scenario.build_system()
            schedule, policy = scenario.resolved_faults(options["system"])
            if faults_out:
                if schedule is None:
                    raise SystemExit("--faults-out needs a schedule (--faults or --fault-mtbf)")
                save_faults(schedule, faults_out)
                print(f"wrote {faults_out} ({len(schedule.events)} fault events)")
            if scenario.mode == "trial" and schedule is not None and policy is not None:
                print(
                    f"fault schedule: {len(schedule.events)} events "
                    f"(policy: running {policy.running}, "
                    f"remap {'on' if policy.remap else 'off'})"
                )
        if scenario.mode == "service":
            options["stop"] = lambda: stop_requested
            previous = {
                sig: signal.signal(sig, _request_stop)
                for sig in (signal.SIGINT, signal.SIGTERM)
            }
        result = run_scenario(scenario, **options)
    except ValueError as exc:
        raise SystemExit(f"scenario {shown}: {exc}")
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    if scenario.mode == "trial":
        _print_trial_result(result)
    elif scenario.mode == "ensemble":
        _report_partial(result)
        _print_ensemble(result, scenario.resolved_config().workload.num_tasks, None)
    else:
        _print_service_summary(result)
    return result


def cmd_run(args: argparse.Namespace) -> int:
    """Run a scenario file end to end, printing the mode's summary."""
    try:
        scenario = Scenario.from_file(args.scenario)
    except (OSError, ScenarioError) as exc:
        raise SystemExit(f"repro run: {exc}")
    _run_scenario(scenario, scenario.name or pathlib.Path(args.scenario).stem)
    return 0


def _iter_scenario_files(root: pathlib.Path) -> list[pathlib.Path]:
    if root.is_file():
        return [root]
    return sorted(
        path
        for pattern in ("*.toml", "*.json")
        for path in root.glob(pattern)
    )


def cmd_scenarios(args: argparse.Namespace) -> int:
    """The scenario toolbox: list / validate / show files, plugin catalog."""
    if args.action == "plugins":
        try:
            rows = describe_plugins(args.kind)
        except KeyError as exc:
            raise SystemExit(f"repro scenarios plugins: {exc}")
        print(plugin_table(rows))
        return 0

    if args.action == "list":
        root = pathlib.Path(args.dir)
        files = _iter_scenario_files(root)
        if not files:
            print(f"no scenario files under {root}")
            return 0
        code = 0
        for path in files:
            try:
                scenario = Scenario.from_file(path)
            except (OSError, ScenarioError) as exc:
                print(f"{path.name}: INVALID ({exc})")
                code = 1
                continue
            shown = scenario.name or path.stem
            print(
                f"{path.name}: {shown} — {scenario.label}, mode "
                f"{scenario.mode}, digest {scenario.digest()[:12]}"
            )
        return code

    if args.action == "validate":
        code = 0
        for name in args.files:
            try:
                scenario = Scenario.from_file(name)
            except (OSError, ScenarioError) as exc:
                print(f"{name}: INVALID\n  {exc}")
                code = 1
                continue
            print(f"{name}: ok ({scenario.label}, mode {scenario.mode}, "
                  f"digest {scenario.digest()[:12]})")
        return code

    # show: the canonical rendering after validation + canonicalization
    try:
        scenario = Scenario.from_file(args.file)
    except (OSError, ScenarioError) as exc:
        raise SystemExit(f"repro scenarios show: {exc}")
    print(scenario.to_toml(), end="")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Paired significance test between two saved specs."""
    ensemble = ensemble_from_dict(load_json(args.results))
    comparison = compare_variants(ensemble, _parse_spec(args.a), _parse_spec(args.b))
    print(comparison)
    verdict = "significant" if comparison.significant(args.alpha) else "not significant"
    print(f"difference is {verdict} at alpha={args.alpha}")
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Energy-constrained dynamic resource allocation (ICPP 2011) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    obs = _obs_parent()

    p = sub.add_parser("calibrate", help="print subscription/budget diagnostics")
    _add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("trial", help="run a single trial of one policy", parents=[obs])
    _add_common(p)
    _add_policy(p)
    _add_fault_layer(p)
    p.set_defaults(func=cmd_trial)

    p = sub.add_parser("serve", help="run the engine as a continuous service")
    _add_common(p)
    _add_policy(p)
    _add_section(p, ServiceConfig)
    p.add_argument("--windows-out", help="write one JSON line per window here")
    p.add_argument(
        "--timeline-out",
        help="write sampled system-state timelines (repro.timeline/1 JSON) here",
    )
    p.add_argument(
        "--timeline-dt",
        type=float,
        default=60.0,
        help="simulated seconds between timeline samples (default: 60)",
    )
    p.add_argument(
        "--timeline-cap",
        type=int,
        default=None,
        help="keep only the newest N timeline samples (ring buffer)",
    )
    tele = p.add_argument_group("telemetry")
    tele.add_argument(
        "--telemetry-port",
        type=int,
        default=None,
        help="serve Prometheus /metrics and JSON /health on this port (0 = ephemeral)",
    )
    tele.add_argument(
        "--telemetry-out",
        help="atomically republish the Prometheus rendering to this file per window",
    )
    tele.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="RULE",
        help="SLO alert rule like 'on_time_prob<0.9:3' (repeatable); "
        "metrics: on_time_prob, queue_depth, burn_rate, budget_remaining, shed, ...",
    )
    tele.add_argument(
        "--telemetry-linger",
        type=float,
        default=0.0,
        help="keep the scrape endpoint up this many wall seconds after the run",
    )
    _add_fault_layer(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "run", help="run a declarative scenario file (TOML or JSON)"
    )
    p.add_argument(
        "--scenario",
        required=True,
        metavar="FILE",
        help="scenario .toml/.json (see docs/scenarios.md and examples/scenarios/)",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "scenarios", help="list/validate/show scenario files; plugin catalog"
    )
    scen = p.add_subparsers(dest="action", required=True)
    sp = scen.add_parser("list", help="summarize every scenario file in a directory")
    sp.add_argument(
        "dir",
        nargs="?",
        default="examples/scenarios",
        help="directory of .toml/.json scenario files (default: examples/scenarios)",
    )
    sp = scen.add_parser("validate", help="validate scenario files; exit 1 on errors")
    sp.add_argument("files", nargs="+", help="scenario files to check")
    sp = scen.add_parser("show", help="print a scenario's canonical TOML form")
    sp.add_argument("file", help="scenario file to render")
    sp = scen.add_parser("plugins", help="print the plugin catalog")
    sp.add_argument(
        "--kind",
        default=None,
        choices=("heuristic", "filter", "traffic", "admission"),
        help="restrict the catalog to one plugin family",
    )
    p.set_defaults(func=cmd_scenarios)

    p = sub.add_parser(
        "monitor", help="tail window JSONL or a telemetry endpoint into a dashboard"
    )
    p.add_argument(
        "source", help="window JSONL path (from serve --windows-out) or http:// endpoint"
    )
    p.add_argument(
        "--follow",
        action="store_true",
        help="keep polling for new windows until the run truncates or Ctrl-C",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="poll interval in wall seconds (default: 2)",
    )
    p.add_argument(
        "--tail", type=int, default=10, help="recent windows shown in the table"
    )
    p.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="RULE",
        help="SLO rule evaluated over the rows, e.g. 'on_time_prob<0.9:3' (repeatable)",
    )
    p.add_argument(
        "--budget-rate",
        type=float,
        default=None,
        help="allowance accrual (J/s) enabling the burn_rate column",
    )
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("figure", help="rerun one of the paper's figures", parents=[obs])
    _add_common(p)
    p.add_argument("figure", choices=sorted(FIGURES))
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="save the ensemble JSON here (plus its manifest)")
    p.add_argument("--svg-dir", help="also write SVG box plots here")
    _add_resilience(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("grid", help="run the full 16-variant evaluation", parents=[obs])
    _add_common(p)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="save the ensemble JSON here (plus its manifest)")
    p.add_argument("--svg-dir", help="also write SVG box plots here")
    _add_resilience(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser(
        "inspect-manifest", help="render a run manifest; verify results against it"
    )
    p.add_argument("manifest", help="JSON written next to grid/figure --out")
    p.add_argument("--results", help="saved ensemble JSON to verify digests against")
    p.add_argument("--trace", help="JSONL event trace to summarize alongside")
    p.add_argument(
        "--metrics",
        nargs="?",
        const="",
        default=None,
        help="pretty-print a metrics/profile/timeline companion JSON "
        "(default: the sibling .metrics.json of the manifest)",
    )
    p.set_defaults(func=cmd_inspect_manifest)

    p = sub.add_parser(
        "profile", help="render a top-spans table from a saved span profile"
    )
    p.add_argument("profile", help="Chrome trace-event JSON written by --profile-out")
    p.add_argument("--limit", type=int, default=20, help="rows in the top-spans table")
    p.add_argument("--timeline", help="also digest this --timeline-out JSON")
    p.add_argument("--svg-dir", help="write one timeline SVG per stream here")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("report", help="re-render tables from a saved ensemble")
    p.add_argument("results", help="JSON written by grid/figure --out")
    p.add_argument("--svg-dir", help="also write SVG box plots here")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sweep", help="sweep the energy-budget multiplier", parents=[obs])
    _add_common(p)
    p.add_argument(
        "--multipliers",
        type=float,
        nargs="+",
        default=[0.7, 0.85, 1.0, 1.15, 1.3],
        help="budget multipliers to sweep",
    )
    p.add_argument(
        "--specs",
        nargs="+",
        default=["MECT/none", "LL/en+rob"],
        help="specs to compare, e.g. LL/en+rob",
    )
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1)
    _add_resilience(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="paired significance test of two specs")
    p.add_argument("results", help="JSON written by grid/figure --out")
    p.add_argument("a", help="baseline spec, e.g. LL/none")
    p.add_argument("b", help="challenger spec, e.g. LL/en+rob")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
