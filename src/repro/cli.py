"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run [WORKLOAD] [--workload SPEC] [--defense SPEC] [--scale S]``
    Simulate one workload and print cycles/IPC/key stats.
``compare WORKLOAD [...] [--scale S]``
    Normalised execution time of every defense on the given workloads.
``figure {table1,6,7,8,9,10,11,sec49,sec65,dram} [--scale S]``
    Regenerate one paper artefact.
``sweep WORKLOAD [...] [--defense SPEC ...] [--set K=V] [--axis K=V1,V2]``
    Run a declarative workloads x defenses x config sweep.
``trace WORKLOAD [--defense SPEC] [--sink SPEC] [--out PATH]``
    Simulate one point with full tracing armed and export the event
    stream (Perfetto JSON by default) plus cycle-domain metrics —
    see ``docs/observability.md``.
``attack {spectre,rewind,interference} [--defense NAME]``
    Run a transient-execution attack and report the verdict.
``list [KIND] [--tag TAG] [--json]``
    Enumerate registered components (defenses, workloads, predictors,
    hierarchies); with no KIND, print the classic overview.
``describe SPEC [--kind KIND] [--json]``
    Introspect one component or spec string: summary, parameters,
    and — for defenses/workloads — what the spec resolves to.
``cache {stats,prune}``
    JSON result-cache maintenance: entry count/bytes, and pruning by
    age (``--older-than 30d``) or wholesale (``--all``).
``fuzz [--seed N] [--count K] [--oracle NAME] [--repro FILE]``
    Differential config fuzzing: generate seeded valid points from
    the registry grammar and check them with equivalence oracles;
    failures shrink to reproducer files in ``--corpus`` and exit 1
    (``--repro FILE`` replays one) — see ``docs/fuzzing.md``.

Everywhere a defense or workload is named, a parameterized **spec
string** works too: ``--defense "MuonTrap(flush=True)"``,
``--workload "pointer_chase(stride=128, footprint_kb=8192)"`` (see
``docs/components.md``; plugins registered via ``REPRO_PLUGINS`` or a
local ``repro_plugins.py`` are resolved the same way).

``run``/``compare``/``figure``/``sweep`` share the experiment-engine
flags: ``--jobs N`` fans sweep points out over N worker processes
(``0`` = all cores; default from ``REPRO_JOBS``), results are cached
on disk under ``REPRO_CACHE_DIR`` (``--cache-dir`` to override,
``--no-cache`` to disable), and ``--json`` emits the machine-readable
payload instead of the text table.  Per-point progress and cache-hit
counts go to stderr.  A warm cache serves a whole figure or compare
table with no simulation.

``run`` and ``sweep`` also take ``--trace``/``--trace-sink``/
``--trace-out``/``--metrics-interval``: any of them arms the
observability layer for the invocation (forcing ``--jobs 1`` and
bypassing cache *reads*, since a cache hit produces no trace).  With
``--json``, engine telemetry goes to stderr as schema-versioned JSONL
run-log records instead of free-form text.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import List, Optional

from repro.analysis import figures
from repro.analysis.report import format_table, normalised_series
from repro.defenses import FIGURE_ORDER
from repro.exp import (
    BASE_VARIANT,
    ConfigVariant,
    ResultCache,
    Sweep,
    default_cache_dir,
    format_engine_summary,
    resolve_jobs,
    run_points,
    run_sweep,
    variants_for_axis,
)
from repro.exp.cache import ENV_CACHE_DIR
from repro.registry import (
    KIND_ALIASES,
    SpecError,
    UnknownComponentError,
    all_registries,
    component_registry,
    load_plugins,
)
from repro.sim.runner import normalised_times

FIGURES = {
    "table1": lambda scale, **kw: figures.table1(),
    "6": figures.figure6,
    "7": figures.figure7,
    "8": figures.figure8,
    "9": figures.figure9,
    "10": figures.figure10,
    "11": figures.figure11,
    "sec49": figures.section49_fu_order,
    "sec65": figures.section65_power,
    "dram": figures.dram_policy_ablation,
}

INTERESTING_STATS = [
    "commit.insts", "commit.loads", "bp.mispredicts", "squash.events",
    "l1d.hits", "l1d.misses", "l2.hits", "l2.misses", "dram.accesses",
    "dminion.fills", "dminion.read_hits", "dminion.commit_moves",
    "dminion.wipes", "gm.timeguard_loads", "gm.timeleap_loads",
    "gm.leapfrog_loads",
]


def _scale_arg(text: str) -> float:
    """argparse type for ``--scale``: a finite number above zero.

    ``WorkloadSpec.build`` clamps tiny programs to their iteration
    floor, so a zero or negative scale would run silently wrong.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "invalid scale %r: expected a number" % text) from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            "invalid scale %r: must be a finite number > 0" % text)
    return value


def _int_at_least(minimum: int, what: str):
    """argparse type factory: a whole number, at least ``minimum``.

    Out-of-range counts are usage errors rather than clamped to "off":
    a negative fuzz count would check nothing and pass.
    """
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "invalid %s %r: expected an integer"
                % (what, text)) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                "invalid %s %r: must be >= %d" % (what, text, minimum))
        return value
    return parse


_max_insts_arg = _int_at_least(1, "instruction cap")
_metrics_interval_arg = _int_at_least(0, "metrics interval")


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (0 = all cores; "
                             "default $REPRO_JOBS or 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory "
                             "(default $REPRO_CACHE_DIR or "
                             "~/.cache/repro-ghostminion)")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON on stdout")


def _add_profile_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", action="store_true",
                        help="run the simulation under cProfile and "
                             "print the top 25 cumulative-time entries "
                             "to stderr (forces --jobs 1)")
    parser.add_argument("--profile-out", default=None, metavar="PATH",
                        dest="profile_out",
                        help="write the raw cProfile data to PATH "
                             "instead of printing (implies --profile; "
                             "inspect with `python -m pstats`)")


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", action="store_true",
                        help="record a structured execution trace and "
                             "export it through the configured sinks "
                             "(forces --jobs 1, bypasses cache reads; "
                             "see docs/observability.md)")
    parser.add_argument("--trace-sink", action="append", default=None,
                        metavar="SPEC", dest="trace_sink",
                        help="sink spec to export through (repeatable; "
                             "implies --trace; default perfetto — "
                             "`repro list sinks`)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        dest="trace_out",
                        help="trace output path (default trace.json; "
                             "implies --trace; multi-point runs insert "
                             "the point key before the extension)")
    parser.add_argument("--metrics-interval", type=_metrics_interval_arg,
                        default=0,
                        metavar="CYCLES", dest="metrics_interval",
                        help="sample cycle-domain metrics (IPC, "
                             "occupancies, miss counters) every N "
                             "cycles into the trace (implies --trace)")


def _trace_armed(args) -> bool:
    """Whether any trace flag was given (see :func:`_obs_from_args`)."""
    return bool(getattr(args, "trace", False)
                or getattr(args, "trace_sink", None)
                or getattr(args, "trace_out", None)
                or getattr(args, "metrics_interval", 0))


def _obs_from_args(args):
    """``--trace``/``--trace-sink``/``--trace-out``/``--metrics-interval``
    -> ObsConfig (None when tracing is off).  Any trace flag arms
    tracing; jobs are forced to 1 so every event lands in one tracer."""
    if not _trace_armed(args):
        return None
    from repro.obs import ObsConfig
    # Validate sink specs before any simulation time is spent: an
    # unknown sink raises UnknownComponentError (with did-you-mean)
    # here instead of after the traced run completes.
    for spec in args.trace_sink or ("perfetto",):
        component_registry("sink").describe(spec)
    if args.jobs not in (None, 1):
        print("trace: forcing --jobs 1 (worker processes would "
              "scatter the event stream)", file=sys.stderr)
    args.jobs = 1
    return ObsConfig(sinks=tuple(args.trace_sink or ("perfetto",)),
                     out=args.trace_out or "trace.json",
                     metrics_interval=args.metrics_interval or 0)


def _add_max_insts_arg(parser: argparse.ArgumentParser) -> None:
    # Not offered on `figure`: paper artefacts run their workloads to
    # completion by construction.
    parser.add_argument("--max-insts", type=_max_insts_arg, default=None,
                        help="early-stop: cap each point at this many "
                             "committed instructions")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GhostMinion (MICRO 2021) reproduction toolkit",
        epilog="docs/architecture.md maps the subsystems; see also "
               "docs/experiments.md (sweeps, caching, parallelism), "
               "docs/components.md (spec strings, plugins), "
               "docs/performance.md (scheduler, stall taxonomy), "
               "docs/checkpoints.md (snapshot/restore).")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one workload")
    run_p.add_argument("workload", nargs="?", default=None,
                       help="workload name or spec string")
    run_p.add_argument("--workload", dest="workload_flag", default=None,
                       help="alternative to the positional (handy for "
                            "spec strings)")
    run_p.add_argument("--defense", default="GhostMinion",
                       help="defense name or spec string")
    run_p.add_argument("--scale", type=_scale_arg, default=0.25)
    _add_engine_args(run_p)
    _add_max_insts_arg(run_p)
    _add_profile_args(run_p)
    _add_trace_args(run_p)

    cmp_p = sub.add_parser("compare",
                           help="all defenses on the given workloads")
    cmp_p.add_argument("workloads", nargs="+")
    cmp_p.add_argument("--scale", type=_scale_arg, default=0.25)
    _add_engine_args(cmp_p)
    _add_max_insts_arg(cmp_p)

    fig_p = sub.add_parser("figure", help="regenerate a paper artefact")
    fig_p.add_argument("which", choices=sorted(FIGURES))
    fig_p.add_argument("--scale", type=_scale_arg, default=0.25)
    _add_engine_args(fig_p)

    swp_p = sub.add_parser(
        "sweep", help="workloads x defenses x config sweep")
    swp_p.add_argument("workloads", nargs="+")
    swp_p.add_argument("--defense", action="append", default=None,
                       help="defense to include (repeatable; default "
                            "Unsafe + GhostMinion)")
    swp_p.add_argument("--scale", type=_scale_arg, default=0.25)
    swp_p.add_argument("--set", action="append", default=None,
                       metavar="PATH=VALUE", dest="set_overrides",
                       help="config override applied to every point "
                            "(e.g. minion_d.size_bytes=512)")
    swp_p.add_argument("--axis", action="append", default=None,
                       metavar="PATH=V1,V2,...",
                       help="config axis swept as variants "
                            "(e.g. minion_d.size_bytes=2048,512,128)")
    _add_engine_args(swp_p)
    _add_max_insts_arg(swp_p)
    _add_profile_args(swp_p)
    _add_trace_args(swp_p)

    trc_p = sub.add_parser(
        "trace",
        help="simulate one point with full tracing and export it")
    trc_p.add_argument("workload",
                       help="workload name or spec string")
    trc_p.add_argument("--defense", default="GhostMinion",
                       help="defense name or spec string")
    trc_p.add_argument("--scale", type=_scale_arg, default=0.25)
    trc_p.add_argument("--sink", action="append", default=None,
                       metavar="SPEC",
                       help="sink spec to export through (repeatable; "
                            "default perfetto — `repro list sinks`)")
    trc_p.add_argument("--out", default="trace.json", metavar="PATH",
                       help="trace output path (default trace.json)")
    trc_p.add_argument("--metrics-interval", type=_metrics_interval_arg,
                       default=1000,
                       metavar="CYCLES", dest="metrics_interval",
                       help="cycle-domain metrics sampling interval "
                            "(default 1000; 0 disables)")
    trc_p.add_argument("--max-insts", type=_max_insts_arg, default=None,
                       help="early-stop: cap the run at this many "
                            "committed instructions")
    trc_p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON on stdout")

    cch_p = sub.add_parser(
        "cache", help="JSON result-cache maintenance")
    cch_p.add_argument("action", choices=["stats", "prune"])
    cch_p.add_argument("--cache-dir", default=None,
                       help="cache directory (default $REPRO_CACHE_DIR "
                            "or ~/.cache/repro-ghostminion)")
    cch_p.add_argument("--older-than", default=None, metavar="AGE",
                       help="prune only entries older than AGE "
                            "(e.g. 30d, 12h, 45m, 3600s; bare numbers "
                            "are days)")
    cch_p.add_argument("--all", action="store_true", dest="prune_all",
                       help="prune every entry")
    cch_p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON on stdout")

    fzz_p = sub.add_parser(
        "fuzz",
        help="differential config fuzzing: generated points checked "
             "by equivalence oracles (docs/fuzzing.md)")
    fzz_p.add_argument("--seed", type=int, default=None,
                       help="campaign seed (default 0; the nightly "
                            "lane rotates this by date)")
    fzz_p.add_argument("--count", type=_int_at_least(1, "point count"),
                       default=None,
                       help="points to generate (default 25)")
    fzz_p.add_argument("--oracle", action="append", default=None,
                       metavar="NAME",
                       help="oracle to run (repeatable; default "
                            "dense-event — `repro list oracles`)")
    fzz_p.add_argument("--budget",
                       type=_int_at_least(1, "instruction budget"),
                       default=None,
                       metavar="INSTS",
                       help="committed-instruction cap per point "
                            "(default 4000)")
    fzz_p.add_argument("--jobs", type=int, default=None,
                       help="worker processes per oracle leg "
                            "(0 = all cores; default from REPRO_JOBS)")
    fzz_p.add_argument("--corpus", default="fuzz-corpus",
                       metavar="DIR",
                       help="directory reproducer files are written "
                            "to (default fuzz-corpus)")
    fzz_p.add_argument("--repro", default=None, metavar="PATH",
                       dest="repro_path",
                       help="replay one reproducer file through its "
                            "recorded oracle instead of generating")
    fzz_p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON on stdout")

    atk_p = sub.add_parser("attack", help="run a transient attack")
    atk_p.add_argument("which",
                       choices=["spectre", "rewind", "interference"])
    atk_p.add_argument("--defense", default="Unsafe")
    atk_p.add_argument("--secret", type=int, default=5)

    lst_p = sub.add_parser(
        "list", help="available components (defenses, workloads, ...)")
    lst_p.add_argument("kind", nargs="?", default=None,
                       choices=sorted(KIND_ALIASES),
                       help="component kind to enumerate (default: "
                            "overview of workloads and defenses)")
    lst_p.add_argument("--tag", default=None,
                       help="only components carrying this tag "
                            "(e.g. figure, synthetic, spec2006)")
    lst_p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON on stdout")

    dsc_p = sub.add_parser(
        "describe", help="introspect one component or spec string")
    dsc_p.add_argument("spec",
                       help="component name or spec string, e.g. "
                            "'MuonTrap(flush=True)'")
    dsc_p.add_argument("--kind", default=None,
                       choices=sorted(KIND_ALIASES),
                       help="restrict the lookup to one registry")
    dsc_p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON on stdout")
    return parser


def _cache_from_args(args):
    if args.no_cache:
        return None
    if args.cache_dir:
        return args.cache_dir
    return True


def _profile_armed(args) -> bool:
    """Whether ``--profile`` or ``--profile-out`` was given."""
    return bool(getattr(args, "profile", False)
                or getattr(args, "profile_out", None))


def _maybe_profile(args, thunk):
    """Run ``thunk`` under cProfile when ``--profile``/``--profile-out``
    was given.  Jobs are forced to 1: the profiler only sees this
    process, and points executed in workers would escape it."""
    if not _profile_armed(args):
        return thunk()
    import cProfile
    import pstats
    if args.jobs not in (None, 1):
        print("profile: forcing --jobs 1 (worker processes are "
              "invisible to cProfile)", file=sys.stderr)
    args.jobs = 1
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return thunk()
    finally:
        profiler.disable()
        if args.profile_out:
            profiler.dump_stats(args.profile_out)
            print("profile: raw stats -> %s" % args.profile_out,
                  file=sys.stderr)
        else:
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative").print_stats(25)


def _check_workload_specs(workloads) -> None:
    """Build each parameterized workload spec once, at the smallest
    scale, so bad kernel parameters (``pointer_chase(stride=0)``) fail
    here as usage errors instead of mid-sweep, possibly in a worker.
    Raises ``ValueError`` (bad parameters, malformed spec) or
    :class:`UnknownComponentError`; plain names need no build."""
    from repro.exp.spec import resolve_workload
    from repro.registry import parse_spec
    for workload in workloads:
        if parse_spec(workload)[1]:
            resolve_workload(workload).build(0.0)


def _results_json(report) -> str:
    """Canonical result payload plus the (non-canonical) timing
    telemetry block — the `sweep --json` shape."""
    payload = json.loads(report.results.to_json())
    payload["timing"] = report.timing_meta()
    return json.dumps(payload, sort_keys=True, indent=2)


def _progress_to_stderr(done: int, total: int, point) -> None:
    source = "cached" if point.cached else "%d cycles" % point.cycles
    print("[%d/%d] %s (%s)" % (done, total, point.key, source),
          file=sys.stderr)


def _report_engine(report, args=None) -> None:
    """Engine telemetry to stderr.

    ``--json`` consumers get schema-versioned JSONL records (the
    structured run log, ``docs/observability.md``) so the telemetry
    machine-parses without scraping free-form text; interactive runs
    keep the human summary lines."""
    if args is not None and getattr(args, "json", False):
        from repro.obs import RunLog
        log = RunLog(sys.stderr)
        for record in report.runlog_records():
            record = dict(record)
            log.emit(record.pop("event"), record)
        return
    print(report.summary(), file=sys.stderr)
    print(report.timing_summary(), file=sys.stderr)
    for path in report.trace_paths():
        print("trace: wrote %s" % path, file=sys.stderr)


def _json_default(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    return str(obj)


def _parse_value(text: str):
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    return text


def _cmd_run(args) -> int:
    if args.workload_flag is not None and args.workload is not None:
        print("error: workload given both positionally and via "
              "--workload", file=sys.stderr)
        return 2
    workload = (args.workload_flag if args.workload_flag is not None
                else args.workload)
    if workload is None:
        print("error: no workload given (positional or --workload)",
              file=sys.stderr)
        return 2
    args.workload = workload
    try:
        _check_workload_specs([workload])
    except (ValueError, UnknownComponentError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    sweep = Sweep(name="run", workloads=[args.workload],
                  defenses=[args.defense], scale=args.scale,
                  max_insts=args.max_insts)
    try:
        report = _maybe_profile(args, lambda: run_sweep(
            sweep, jobs=args.jobs, cache=_cache_from_args(args),
            progress=_progress_to_stderr, obs=_obs_from_args(args)))
    except (SpecError, UnknownComponentError) as exc:
        # Malformed spec strings and unknown component names (the
        # latter carry did-you-mean suggestions) are usage errors.
        print("error: %s" % exc, file=sys.stderr)
        return 2
    point = next(iter(report.results))
    _report_engine(report, args)
    if args.json:
        print(json.dumps({"workload": args.workload,
                          "defense": args.defense,
                          "scale": args.scale,
                          "cache_hits": report.cache_hits,
                          "timing": report.timing_meta(),
                          "result": point.to_json_dict()},
                         sort_keys=True, indent=2))
        return 0
    print("workload:   %s" % args.workload)
    print("defense:    %s" % args.defense)
    print("finished:   %s" % point.finished)
    print("cycles:     %d" % point.cycles)
    print("insts:      %d" % point.insts)
    print("IPC:        %.3f" % point.ipc)
    rows = [(name, int(point.stats.get(name)))
            for name in INTERESTING_STATS if name in point.stats]
    if rows:
        print()
        print(format_table(["stat", "value"], rows))
    return 0


def _cmd_compare(args) -> int:
    try:
        _check_workload_specs(args.workloads)
        points = Sweep(name="compare", workloads=list(args.workloads),
                       defenses=["Unsafe"] + FIGURE_ORDER,
                       scale=args.scale, max_insts=args.max_insts).points()
    except (ValueError, UnknownComponentError) as exc:
        # ValueError covers malformed specs (SpecError) and bad kernel
        # parameters; UnknownComponentError adds did-you-mean.
        print("error: %s" % exc, file=sys.stderr)
        return 2
    report = run_points(points, jobs=args.jobs,
                        cache=_cache_from_args(args),
                        progress=_progress_to_stderr)
    _report_engine(report, args)
    table = normalised_times(report.results.as_run_results())
    if args.json:
        print(json.dumps({"normalised": table,
                          "cache_hits": report.cache_hits,
                          "executed": report.executed,
                          "timing": report.timing_meta(),
                          "points": [p.to_json_dict()
                                     for p in report.results]},
                         sort_keys=True, indent=2))
        return 0
    rows = normalised_series(table, FIGURE_ORDER)
    print(format_table(["workload"] + FIGURE_ORDER, rows))
    return 0


def _cmd_figure(args) -> int:
    result = FIGURES[args.which](args.scale, jobs=args.jobs,
                                 cache=_cache_from_args(args),
                                 progress=_progress_to_stderr)
    if result.meta:
        print(format_engine_summary(result.meta), file=sys.stderr)
    if args.json:
        print(json.dumps({"name": result.name, "data": result.data,
                          "text": result.text, "meta": result.meta},
                         sort_keys=True, indent=2,
                         default=_json_default))
        return 0
    print(result.name)
    print("=" * len(result.name))
    print(result.text)
    return 0


def _cmd_sweep(args) -> int:
    axes = {}
    for axis in args.axis or []:
        path, _, values = axis.partition("=")
        if not values:
            print("error: --axis wants PATH=V1,V2,... (got %r)" % axis,
                  file=sys.stderr)
            return 2
        axes[path] = [_parse_value(v) for v in values.split(",")]
    overrides = {}
    for item in args.set_overrides or []:
        path, sep, value = item.partition("=")
        if not sep:
            print("error: --set wants PATH=VALUE (got %r)" % item,
                  file=sys.stderr)
            return 2
        overrides[path] = _parse_value(value)
    variants = variants_for_axis(axes) if axes else [BASE_VARIANT]
    if overrides:
        variants = [
            ConfigVariant.make(v.label, {**v.as_dict(), **overrides})
            for v in variants]
    defenses = args.defense or ["Unsafe", "GhostMinion"]
    try:
        _check_workload_specs(args.workloads)
        sweep = Sweep(name="sweep", workloads=list(args.workloads),
                      defenses=defenses, variants=variants,
                      scale=args.scale, max_insts=args.max_insts)
        report = _maybe_profile(args, lambda: run_sweep(
            sweep, jobs=args.jobs, cache=_cache_from_args(args),
            progress=_progress_to_stderr, obs=_obs_from_args(args)))
    except (ValueError, UnknownComponentError) as exc:
        # malformed spec or kernel parameters, or an unknown component
        # name (with did-you-mean suggestions)
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except AttributeError as exc:
        # apply_overrides rejects typo'd/unknown config paths.
        print("error: %s" % exc, file=sys.stderr)
        return 2
    _report_engine(report, args)
    if args.json:
        print(_results_json(report))
        return 0
    rows = [(p.key, p.cycles, p.insts, "%.3f" % p.ipc,
             "hit" if p.cached else "run")
            for p in report.results]
    print(format_table(["point", "cycles", "insts", "IPC", "cache"],
                       rows))
    return 0


def _cmd_trace(args) -> int:
    """One fully-traced point: simulate, export, summarize."""
    from repro.obs import ObsConfig
    obs = ObsConfig(sinks=tuple(args.sink or ("perfetto",)),
                    out=args.out,
                    metrics_interval=args.metrics_interval)
    sweep = Sweep(name="trace", workloads=[args.workload],
                  defenses=[args.defense], scale=args.scale,
                  max_insts=args.max_insts)
    try:
        _check_workload_specs([args.workload])
    except (ValueError, UnknownComponentError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        # Validate sink specs up front: a typo'd --sink must not cost
        # a full traced simulation before erroring.
        for spec in obs.sinks:
            component_registry("sink").describe(spec)
        report = run_sweep(sweep, jobs=1, cache=None,
                           progress=_progress_to_stderr, obs=obs)
    except (SpecError, UnknownComponentError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    point = next(iter(report.results))
    if args.json:
        print(json.dumps({"result": point.to_json_dict(),
                          "trace_paths": point.trace_paths,
                          "metrics": point.metrics},
                         sort_keys=True, indent=2))
        return 0
    print("workload: %s" % args.workload)
    print("defense:  %s" % args.defense)
    print("cycles:   %d" % point.cycles)
    print("insts:    %d" % point.insts)
    print("digest:   %s" % point.digest)
    for path in point.trace_paths:
        print("trace:    %s" % path)
    if point.metrics is not None:
        print("metrics:  %d samples every %d cycles"
              % (len(point.metrics["samples"]),
                 point.metrics["interval"]))
    return 0


_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0,
              "w": 7 * 86400.0}


def _parse_age(text: str) -> float:
    """``30d``/``12h``/``45m``/``3600s``/``2w`` (bare number = days)."""
    text = text.strip().lower()
    unit = 86400.0
    if text and text[-1] in _AGE_UNITS:
        unit = _AGE_UNITS[text[-1]]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise ValueError("--older-than wants AGE like 30d, 12h, 45m, "
                         "3600s (got %r)" % text)
    # NaN would disable the age filter entirely (every comparison is
    # False), turning an age prune into --all.
    if not math.isfinite(value) or value < 0:
        raise ValueError("--older-than must be a finite, non-negative "
                         "AGE")
    return value * unit


def _cmd_cache(args) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        payload = cache.stats()
        if args.json:
            print(json.dumps(payload, sort_keys=True, indent=2))
            return 0
        print("cache:   %s" % payload["directory"])
        print("entries: %d" % payload["entries"])
        print("bytes:   %d" % payload["bytes"])
        return 0
    if args.prune_all and args.older_than is not None:
        print("error: give either --older-than or --all, not both",
              file=sys.stderr)
        return 2
    if not args.prune_all and args.older_than is None:
        print("error: `cache prune` needs --older-than AGE or --all",
              file=sys.stderr)
        return 2
    try:
        older_than = (None if args.prune_all
                      else _parse_age(args.older_than))
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    payload = cache.prune(older_than=older_than)
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0
    print("pruned %d entr%s (%d bytes) from %s"
          % (payload["removed"],
             "y" if payload["removed"] == 1 else "ies",
             payload["bytes"], payload["directory"]))
    return 0


def _cmd_fuzz(args) -> int:
    """Differential config fuzzing (docs/fuzzing.md).

    Two modes: generate-and-check (default; failures are shrunk to
    reproducer files under ``--corpus`` and the command exits 1) and
    ``--repro FILE`` (replay one reproducer through its recorded
    oracle; exits 1 iff the divergence still reproduces).  Exit 2 is
    reserved for usage errors, as everywhere else in the CLI."""
    from repro.fuzz import DEFAULT_BUDGET, replay_reproducer, run_campaign

    def progress(message: str) -> None:
        print("fuzz: %s" % message, file=sys.stderr)

    if args.repro_path:
        conflicting = [flag for flag, value in
                       (("--seed", args.seed), ("--count", args.count),
                        ("--oracle", args.oracle),
                        ("--budget", args.budget))
                       if value is not None]
        if conflicting:
            print("error: --repro replays a recorded point; it "
                  "conflicts with %s" % ", ".join(conflicting),
                  file=sys.stderr)
            return 2
        try:
            verdict = replay_reproducer(args.repro_path, jobs=args.jobs)
        except (OSError, ValueError, KeyError) as exc:
            # Unreadable/invalid reproducer files and unknown oracle
            # names (UnknownComponentError is a KeyError) alike.
            print("error: %s" % exc, file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(verdict.as_dict(), sort_keys=True,
                             indent=2))
        elif verdict.ok:
            print("reproducer %s: PASS (%s no longer diverges)"
                  % (args.repro_path, verdict.point.label))
        else:
            print("reproducer %s: FAIL [%s] %s"
                  % (args.repro_path, verdict.oracle, verdict.detail))
        return 0 if verdict.ok else 1

    seed = 0 if args.seed is None else args.seed
    count = 25 if args.count is None else args.count
    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    oracles = list(args.oracle or ("dense-event",))
    try:
        for name in oracles:
            component_registry("oracle").entry(name)
    except UnknownComponentError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    report = run_campaign(seed, count, oracles, budget=budget,
                          jobs=args.jobs, corpus_dir=args.corpus,
                          progress=progress)
    if args.json:
        print(json.dumps(report.as_dict(), sort_keys=True, indent=2))
        return 0 if report.ok else 1
    rows = [(v.point.label, v.oracle, v.point.defense,
             v.point.workload, "ok" if v.ok else "FAIL")
            for v in report.verdicts]
    print(format_table(
        ["point", "oracle", "defense", "workload", "verdict"], rows))
    if report.ok:
        print("fuzz: %d point(s) x %d oracle(s), no divergence"
              % (count, len(oracles)))
        return 0
    print("fuzz: %d failure(s); reproducers:" % len(report.failures))
    for path in report.reproducers:
        print("  %s" % path)
    return 1


def _cmd_attack(args) -> int:
    from repro.attacks import interference, spectre, spectre_rewind
    module = {"spectre": spectre, "rewind": spectre_rewind,
              "interference": interference}[args.which]
    if args.which == "spectre":
        outcome = module.run(args.defense, args.secret)
        print("secret:    %d" % outcome.secret)
        print("recovered: %d (%s)" % (
            outcome.recovered,
            "correct" if outcome.correct else "wrong"))
        print("timings:   %s" % dict(sorted(outcome.timings.items())))
    else:
        for bit in (0, 1):
            outcome = module.run(args.defense, bit)
            print("secret bit %d -> measured delta %d cycles"
                  % (bit, outcome.timings[0]))
    verdict = module.leaks(args.defense)
    print("verdict:   %s"
          % ("LEAKS under %s" % args.defense if verdict
             else "safe under %s" % args.defense))
    return 1 if verdict and args.defense != "Unsafe" else 0


def _cmd_list(args) -> int:
    load_plugins()  # plugin components must be enumerable
    if args.kind is None and not args.json and not args.tag:
        return _list_overview()
    kinds = ([KIND_ALIASES[args.kind]] if args.kind
             else sorted(all_registries()))
    payload = {}
    for kind in kinds:
        reg = component_registry(kind)
        payload[kind] = [reg.describe(name)
                         for name in reg.names(tag=args.tag)]
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0
    for kind in kinds:
        rows = [(info["name"], ",".join(info["tags"]),
                 info["summary"]) for info in payload[kind]]
        print("%s components:" % kind)
        if rows:
            print(format_table(["name", "tags", "summary"], rows))
        else:
            print("  (none%s)" % (" with tag %r" % args.tag
                                  if args.tag else ""))
        print()
    return 0


def _list_overview() -> int:
    """The classic ``repro list`` text: suites + figure defenses, plus
    the registry kinds that hold the rest."""
    from repro.workloads.spec import PARSEC, SPEC2006, SPEC2017, WORKLOADS
    from repro.defenses import DEFENSES
    print("defenses:")
    for name in ["Unsafe"] + FIGURE_ORDER:
        print("  %s" % name)
    extras = [name for name in DEFENSES
              if name not in ["Unsafe"] + FIGURE_ORDER]
    if extras:
        print("  (+ %s)" % ", ".join(extras))
    for title, suite in (("SPEC CPU2006", SPEC2006),
                         ("SPECspeed 2017", SPEC2017),
                         ("Parsec (4 threads)", PARSEC)):
        print("%s:" % title)
        print("  " + ", ".join(spec.name for spec in suite))
    synth = WORKLOADS.names(tag="synthetic")
    print("synthetic kernels (parameterizable, e.g. "
          "\"pointer_chase(stride=128)\"):")
    print("  " + ", ".join(synth))
    print("more: `repro list {defenses,workloads,predictors,"
          "hierarchies} [--json]`, `repro describe SPEC`")
    return 0


def _cmd_describe(args) -> int:
    load_plugins()
    kinds = ([KIND_ALIASES[args.kind]] if args.kind
             else sorted(all_registries()))
    info = None
    misses = []
    for kind in kinds:
        reg = component_registry(kind)
        try:
            info = reg.describe(args.spec)
            break
        except UnknownComponentError as exc:
            misses.append(exc)
        except SpecError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
    if info is None:
        for exc in misses:
            if exc.suggestions:
                print("error: %s" % exc, file=sys.stderr)
                return 2
        print("error: no %s component answers to %r"
              % ("/".join(kinds), args.spec), file=sys.stderr)
        return 2
    # Defense/workload specs are cheap to resolve; show the result.
    if info["kind"] in ("defense", "workload"):
        try:
            obj = component_registry(info["kind"]).create(args.spec)
            if info["kind"] == "defense":
                from repro.exp.spec import _defense_descriptor
                info["resolved"] = _defense_descriptor(obj)
            else:
                _check_workload_specs([args.spec])
                info["resolved"] = dataclasses.asdict(obj)
        except (SpecError, TypeError, ValueError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
    if args.json:
        print(json.dumps(info, sort_keys=True, indent=2))
        return 0
    for key in ("kind", "name", "summary", "tags", "factory", "spec"):
        if info.get(key):
            print("%-9s %s" % (key + ":", info[key]))
    params = info.get("params") or []
    if params:
        print("params:")
        print(format_table(
            ["name", "default"],
            [(row["name"],
              "(required)" if row["required"] else row["default"])
             for row in params]))
    if info.get("preset"):
        print("preset:   %s" % ", ".join(
            "%s=%s" % kv for kv in sorted(info["preset"].items())))
    if info.get("resolved"):
        print("resolves to:")
        print(json.dumps(info["resolved"], sort_keys=True, indent=2))
    return 0


#: ``args`` attributes naming a file a command writes, with their flags.
_OUTPUT_FILE_FLAGS = (("trace_out", "--trace-out"), ("out", "--out"),
                      ("profile_out", "--profile-out"))


def _output_path_error(args) -> Optional[str]:
    """Why an output path in ``args`` cannot be written, or None.

    A trace or profile file must not be a directory and goes into a
    directory that must exist, and the result cache directory — from
    ``--cache-dir``, or ``$REPRO_CACHE_DIR``/the default when a command
    uses the default cache — must be a directory or a path where one
    can be made.  Checked before any command runs, so a bad path costs
    no simulation."""
    for attr, flag in _OUTPUT_FILE_FLAGS:
        path = getattr(args, attr, None)
        if path:
            if os.path.isdir(path):
                return "%s %s: is a directory" % (flag, path)
            directory = os.path.dirname(path) or os.curdir
            if not os.path.isdir(directory):
                return "%s %s: no directory %s" % (flag, path, directory)
    if not hasattr(args, "cache_dir") or getattr(args, "no_cache", False):
        return None
    cache_dir, source = args.cache_dir, "--cache-dir"
    if not cache_dir:
        cache_dir = default_cache_dir()
        source = ("$%s" % ENV_CACHE_DIR if os.environ.get(ENV_CACHE_DIR)
                  else "default cache directory")
    existing = os.path.abspath(cache_dir)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        return "%s %s: %s is not a directory" % (source, cache_dir,
                                                 existing)
    return None


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    error = _output_path_error(args)
    if error is None and getattr(args, "jobs", 0) is None \
            and not (_trace_armed(args) or _profile_armed(args)):
        # No --jobs, and no trace or profile flag forcing one job: the
        # engine will read $REPRO_JOBS; reject a bad value before
        # anything runs.
        try:
            resolve_jobs()
        except ValueError as exc:
            error = str(exc)
    if error is not None:
        print("error: %s" % error, file=sys.stderr)
        return 2
    handler = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "figure": _cmd_figure,
        "sweep": _cmd_sweep,
        "trace": _cmd_trace,
        "cache": _cmd_cache,
        "fuzz": _cmd_fuzz,
        "attack": _cmd_attack,
        "list": _cmd_list,
        "describe": _cmd_describe,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
