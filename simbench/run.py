#!/usr/bin/env python3
"""End-to-end benchmark of the GhostMinion simulator.

Run from the repository root::

    python3 simbench/run.py --workload fig6-cold --seed 0 --seconds 20 \
        --trace 0
    python3 simbench/run.py --workload core-long --trace 1
    python3 simbench/run.py --workload all --report   # both runs, as tables
    python3 simbench/run.py --record                  # re-record expected.json

Workloads (all load comes from this one process, ``jobs=1``):

* ``fig6-cold`` -- ``figure6(scale=0.05, jobs=1)`` against a fresh, empty
  result cache: 25 kernels x (Unsafe + 7 defenses) = 200 ops per pass.
* ``core-long`` -- gromacs, h264ref, gamess and namd at scale 1.0 under
  Unsafe and GhostMinion, cache off: 8 ops per pass, one per point.
* ``compare-replay`` -- set-up fills a fresh cache with the fig. 6 points
  capped at 100 instructions; each op regenerates the normalised table
  (``compare_defenses`` + ``normalised_times``) from cache hits alone:
  25 ops per pass.

A pass is the workload's fixed unit of work.  ``--trace 0`` repeats
whole passes within ``--seconds`` and prints the end-to-end metrics,
with every time scaled to a reference host's speed (``hostspeed.py``);
``--trace 1`` alternates a fixed number of untraced passes with as many
passes with spans around each layer's entry points, then makes one
cProfile pass, and prints the per-layer metrics (see ``layers.py``).

Every op's output is checked: against ``expected.json`` for the default
seed, and for any seed against the other passes of the same run (and,
for ``compare-replay``, against the table the set-up filled).  Any other
``--seed`` re-draws the ``seed`` parameter of the seeded kernels.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for result caches; emptied when a run ends.
SCRATCH = os.path.join(ROOT, ".simbench_tmp")
#: Span dumps of traced runs.
OUT = os.path.join(ROOT, ".simbench_out")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = ("fig6-cold", "core-long", "compare-replay")
#: Environment knobs that would change what a workload runs or which
#: build runs it (dense stepping, worker count, scale, plugins,
#: checkpoint warm-start); cleared for the benchmark and its children.
CLEARED_ENV = ("REPRO_DENSE_LOOP", "REPRO_JOBS", "REPRO_SCALE",
               "REPRO_PLUGINS", "REPRO_CHECKPOINT_DB")
#: Pinned: the pure-Python hot core, which cProfile can see into, even
#: where the compiled one is installed.
PINNED_ENV = {"REPRO_ACCEL": "0"}
DEFAULT_SEED = 0
FIG6_SCALE = 0.05
REPLAY_MAX_INSTS = 100
#: Table regenerations per compare-replay pass.
REPLAY_OPS = 25
CORE_LONG = ("gromacs", "h264ref", "gamess", "namd")
CORE_LONG_DEFENSES = ("Unsafe", "GhostMinion")
#: Timed set-ups per run, each in a fresh interpreter; the median is
#: reported.  Half run before the measured phase and half after it, so
#: they sample the host's speed across the whole run.
SETUP_PROBES = {"fig6-cold": 8, "core-long": 8, "compare-replay": 4}
#: Untraced and span passes of a traced run (each), before its one
#: cProfile pass.
TRACE_PASSES = {"fig6-cold": 1, "core-long": 2, "compare-replay": 6}


class SetupError(Exception):
    """The benchmark cannot start: nothing is measured or printed."""


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def seeded_specs(specs, seed: int) -> list:
    """The workload specs for ``seed``: the registered specs for the
    default seed, otherwise copies with the seeded kernels' ``seed``
    parameter re-drawn."""
    from repro.workloads.spec import _SEEDED
    if seed == DEFAULT_SEED:
        return list(specs)
    drawn = []
    for spec in specs:
        if spec.kernel in _SEEDED:
            params = dict(spec.params)
            params["seed"] = random.Random(
                "%d/%s" % (seed, spec.name)).randrange(1, 1 << 16)
            spec = dataclasses.replace(spec, params=params)
        drawn.append(spec)
    return drawn


def prepare(workload: str, seed: int) -> Dict:
    """Deterministic set-up shared by every pass: spec resolution and a
    program build of each spec (so a bad spec fails here, not in the
    measured phase).  Imports ``repro``; the caller times it."""
    from repro.analysis import figures
    from repro.exp import SweepPoint, code_fingerprint
    from repro.exp.spec import resolve_defense, resolve_workload
    from repro.workloads.spec import SPEC2006
    if workload == "core-long":
        specs = seeded_specs([resolve_workload(name) for name in CORE_LONG],
                             seed)
        defenses = list(CORE_LONG_DEFENSES)
        scale = 1.0
    else:
        specs = seeded_specs(SPEC2006, seed)
        defenses = ["Unsafe"] + list(figures.FIGURE_ORDER)
        scale = FIG6_SCALE
    points = [SweepPoint(workload=spec, defense=resolve_defense(defense),
                         scale=scale)
              for spec in specs for defense in defenses]
    for spec in specs:
        spec.build(scale)
    code_fingerprint()
    if workload == "fig6-cold":
        # figure6() draws its workloads from this list.
        if not isinstance(getattr(figures, "SPEC2006", None), list):
            raise SetupError("repro.analysis.figures.SPEC2006 is missing")
        figures.SPEC2006 = specs
    return {"specs": specs, "defenses": defenses, "scale": scale,
            "points": points}


def fill_cache(ctx: Dict) -> Dict:
    """compare-replay set-up: fill the default cache with every point
    capped at ``REPLAY_MAX_INSTS`` and return the normalised table."""
    from repro.sim import runner
    results = runner.compare_defenses(
        ctx["specs"], ctx["defenses"], scale=ctx["scale"], jobs=1,
        cache=True, max_insts=REPLAY_MAX_INSTS)
    return runner.normalised_times(results)


def probe(workload: str, seed: int) -> Dict:
    """One timed set-up in this (fresh) interpreter, with the host's
    speed sampled while it runs."""
    sampler = hostspeed.Sampler()
    sampler.start()
    started = time.perf_counter()
    import repro.cli  # noqa: F401  (the CLI import users pay for)
    imported = time.perf_counter()
    ctx = prepare(workload, seed)
    table = fill_cache(ctx) if workload == "compare-replay" else None
    done = time.perf_counter()
    sampler.stop()
    return {"import_s": imported - started, "setup_s": done - started,
            "setup_speed": sampler.mean_speed(), "table": table}


def pin_env() -> None:
    """Fix this process's environment; set-up children inherit it."""
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ.update(PINNED_ENV)


def _child_env(cache_dir: Optional[str] = None) -> Dict[str, str]:
    env = dict(os.environ)
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = cache_dir
    return env


def warm_up() -> None:
    """Import ``repro`` once, untimed, so bytecode is compiled and the
    sources are in the page cache before any set-up is timed."""
    warm = subprocess.run(
        [sys.executable, __file__, "--warm"], env=_child_env(),
        capture_output=True, text=True, timeout=120)
    if warm.returncode != 0:
        raise SetupError("cannot import repro:\n" + warm.stderr)


def run_probes(workload: str, seed: int, count: int) -> List[Dict]:
    """Time ``count`` set-ups, each in a fresh interpreter with its own
    empty cache directory."""
    probes = []
    for _ in range(count):
        cache_dir = tempfile.mkdtemp(dir=SCRATCH)
        child = subprocess.run(
            [sys.executable, __file__, "--probe", workload,
             "--seed", str(seed)],
            env=_child_env(cache_dir), capture_output=True, text=True,
            timeout=150)
        if child.returncode != 0:
            raise SetupError("set-up failed:\n" + child.stderr)
        result = json.loads(child.stdout.strip().splitlines()[-1])
        result["cache_dir"] = cache_dir
        probes.append(result)
    return probes


def finish_probes(workload: str, seed: int, probes: List[Dict]) -> None:
    """Run the set-ups that follow the measured phase; every set-up's
    cache fill must agree."""
    probes.extend(run_probes(workload, seed,
                             SETUP_PROBES[workload] - len(probes)))
    if any(probe["table"] != probes[0]["table"] for probe in probes):
        raise SetupError("cache fills disagree across set-ups")


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class NullSpans:
    """Stand-in for :class:`layers.Spans` when tracing is off."""

    op = 0

    def call(self, _name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def cache(self, inner):
        return inner


@dataclasses.dataclass
class Pass:
    started: float = 0.0
    ended: float = 0.0
    #: (op key, start, end, output) per completed op; times are
    #: ``time.perf_counter()`` stamps.
    ops: List = dataclasses.field(default_factory=list)
    #: Ops that failed inside the pass: raised, never ran because an
    #: earlier op raised, or simulated where only cache reads may run.
    failed: int = 0
    insts: int = 0
    gm: float = 0.0
    #: Pass-level output (figure text) checked beside the ops.
    artefact: Optional[str] = None
    #: The result cache the pass used (a ``TracedCache`` when traced).
    cache: object = None

    @property
    def wall(self) -> float:
        return self.ended - self.started


def point_output(result) -> List:
    """What a simulated point is checked on: cycles, committed insts,
    a digest of every stat, and the architectural-register digest."""
    stats = json.dumps(result.stats, sort_keys=True)
    return [result.cycles, result.insts,
            hashlib.sha256(stats.encode("utf-8")).hexdigest(),
            result.regs_digest]


def ghostminion_geomean(table: Dict) -> float:
    from repro.analysis.report import geomean
    return geomean(row["GhostMinion"] for row in table.values())


def fig6_pass(ctx: Dict, spans) -> Pass:
    from repro.analysis import figures
    from repro.exp import ResultCache
    cache_dir = tempfile.mkdtemp(dir=SCRATCH)
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    cache = spans.cache(ResultCache())
    stamps: List[float] = []
    results = []

    def progress(_done, _total, result) -> None:
        stamps.append(time.perf_counter())
        results.append(result)
        spans.op += 1

    outcome = Pass(cache=cache, started=time.perf_counter())
    try:
        figure = spans.call("engine", figures.figure6, scale=ctx["scale"],
                            jobs=1, cache=cache, progress=progress)
    except Exception as exc:  # an op raised: count it and the rest
        figure = None
        print("fig6-cold: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
    outcome.ended = time.perf_counter()
    shutil.rmtree(cache_dir, ignore_errors=True)
    previous = outcome.started
    for stamp, result in zip(stamps, results):
        outcome.ops.append((result.key, previous, stamp,
                            point_output(result)))
        previous = stamp
    outcome.insts = sum(result.insts for result in results)
    if figure is None:
        outcome.failed = len(ctx["specs"]) * len(ctx["defenses"]) \
            - len(results)
    else:
        outcome.gm = figure.data["geomean"]["GhostMinion"]
        outcome.artefact = figure.text
    return outcome


def core_long_pass(ctx: Dict, spans) -> Pass:
    from repro import exp
    from repro.sim import runner
    outcome = Pass(started=time.perf_counter())
    table: Dict = {}
    for point in ctx["points"]:
        op_started = time.perf_counter()
        try:
            report = spans.call("engine", exp.run_points, [point], jobs=1,
                                cache=None)
        except Exception as exc:
            outcome.failed += 1
            print("core-long %s: %s: %s" % (point.key, type(exc).__name__,
                                            exc), file=sys.stderr)
        else:
            (result,) = list(report.results)
            outcome.ops.append((result.key, op_started, time.perf_counter(),
                                point_output(result)))
            outcome.insts += result.insts
            table.setdefault(result.workload, {})[result.defense] = \
                result.as_run_result()
        spans.op += 1
    if not outcome.failed:
        outcome.gm = ghostminion_geomean(runner.normalised_times(table))
    outcome.ended = time.perf_counter()
    return outcome


def replay_pass(ctx: Dict, spans) -> Pass:
    from repro.exp import ResultCache
    from repro.sim import runner
    cache = spans.cache(ResultCache())
    executed = []

    def progress(_done, _total, result) -> None:
        if not result.cached:
            executed.append(result.key)

    outcome = Pass(cache=cache, started=time.perf_counter())
    for _ in range(REPLAY_OPS):
        simulated = len(executed)
        op_started = time.perf_counter()
        try:
            results = spans.call(
                "engine", runner.compare_defenses, ctx["specs"],
                ctx["defenses"], scale=ctx["scale"], jobs=1, cache=cache,
                max_insts=REPLAY_MAX_INSTS, progress=progress)
            table = runner.normalised_times(results)
        except Exception as exc:
            outcome.failed += 1
            print("compare-replay: %s: %s" % (type(exc).__name__, exc),
                  file=sys.stderr)
        else:
            if len(executed) > simulated:
                outcome.failed += 1
                print("compare-replay: simulated %s"
                      % ", ".join(executed[simulated:]), file=sys.stderr)
            else:
                outcome.ops.append(("table", op_started,
                                    time.perf_counter(), table))
                outcome.insts += sum(result.insts
                                     for row in results.values()
                                     for result in row.values())
                outcome.gm = ghostminion_geomean(table)
        spans.op += 1
    outcome.ended = time.perf_counter()
    return outcome


PASSES = {"fig6-cold": fig6_pass, "core-long": core_long_pass,
          "compare-replay": replay_pass}


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------

class Checker:
    """Counts failed ops: an op fails if it raised or its output differs
    from the expected one."""

    def __init__(self, workload: str, seed: int,
                 filled_table: Optional[Dict]) -> None:
        self.expected: Dict = {}
        self.artefact: Optional[str] = None
        if seed == DEFAULT_SEED:
            with open(EXPECTED, encoding="utf-8") as handle:
                recorded = json.load(handle)[workload]
            self.expected = recorded["ops"]
            self.artefact = recorded.get("artefact")
        self.filled_table = filled_table
        self.seen: Dict = {}

    def failures(self, outcome: Pass) -> int:
        failed = outcome.failed
        artefact_ok = True
        if outcome.artefact is not None:
            first = self.seen.setdefault("artefact", outcome.artefact)
            artefact_ok = outcome.artefact == first and (
                self.artefact is None or outcome.artefact == self.artefact)
        for key, _start, _end, output in outcome.ops:
            output = json.loads(json.dumps(output))
            ok = artefact_ok and self.seen.setdefault(key, output) == output
            if self.expected:
                ok = ok and self.expected.get(key) == output
            if self.filled_table is not None:
                ok = ok and output == self.filled_table
            failed += not ok
        return failed

    def attempted(self, outcome: Pass) -> int:
        return len(outcome.ops) + outcome.failed


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def _metric_specs() -> Dict[str, Dict[str, str]]:
    """Metric names and units from BENCHMARK.json, keyed by section."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {section: {m["name"]: m["unit"] for m in bench[section]}
            for section in ("end_to_end", "per_layer")}


def op_quantiles(times: List[float]) -> Tuple[float, float]:
    """Median and 90th percentile of seconds per op."""
    if len(times) == 1:
        return times[0], times[0]
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return deciles[4], deciles[8]


def _start(workload: str, seed: int):
    """Shared start of every run: set-up probes, then the in-process
    set-up.  Returns (ctx, probes, table the set-up filled or None)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SetupError("no repro sources under %s" % SRC)
    os.makedirs(SCRATCH, exist_ok=True)
    warm_up()
    probes = run_probes(workload, seed, SETUP_PROBES[workload] // 2)
    ctx = prepare(workload, seed)
    filled = None
    if workload == "compare-replay":
        filled = probes[0]["table"]
        os.environ["REPRO_CACHE_DIR"] = probes[-1]["cache_dir"]
    return ctx, probes, filled


def measure(workload: str, seed: int, seconds: float) -> Dict:
    """Untraced run: whole passes within ``seconds``.  A pass starts
    only while the mean pass so far fits in the time left; the first
    always runs.  Every time is scaled to the reference host's speed
    (see ``hostspeed``), sampled while the passes and set-ups run.  Only
    timings are kept across passes, so memory does not grow with the
    pass count."""
    ctx, probes, filled = _start(workload, seed)
    checker = Checker(workload, seed, filled)
    run_pass = PASSES[workload]
    spans = NullSpans()
    sampler = hostspeed.Sampler()
    #: (start, end, [(op start, op end)], committed insts) per pass.
    timings: List[tuple] = []
    attempted = failed = 0
    sampler.start()
    try:
        started = time.perf_counter()
        while True:
            outcome = run_pass(ctx, spans)
            if not timings:
                first = outcome
            attempted += checker.attempted(outcome)
            failed += checker.failures(outcome)
            timings.append((outcome.started, outcome.ended,
                            [(op[1], op[2]) for op in outcome.ops],
                            outcome.insts))
            elapsed = time.perf_counter() - started
            if outcome.failed or elapsed + elapsed / len(timings) > seconds:
                break
    finally:
        sampler.stop()
    finish_probes(workload, seed, probes)
    walls = [sampler.scaled(start, end)
             for start, end, _ops, _insts in timings]
    op_times = [sampler.scaled(start, end)
                for _start, _end, ops, _insts in timings
                for start, end in ops] or [0.0]
    p50, p90 = op_quantiles(op_times)
    metrics = {
        "wall_s": statistics.median(walls),
        "kips": sum(t[3] for t in timings) / sum(walls) / 1000.0,
        "op_s_p50": p50,
        "op_s_p90": p90,
        "setup_s": statistics.median(
            p["setup_s"] * hostspeed.REFERENCE_COST * p["setup_speed"]
            for p in probes),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "gm_slowdown_geomean": first.gm,
    }
    raw = [end - start for start, end, _ops, _insts in timings]
    counts = {"passes": len(timings), "ops": attempted,
              "ops_per_pass": checker.attempted(first),
              "raw_wall_s": round(statistics.median(raw), 4),
              "host_slowdown": round(sum(raw) / sum(walls), 4)}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "counts": counts}


def trace(workload: str, seed: int) -> Dict:
    """Traced run: untraced and span passes, then cProfile passes."""
    import cProfile
    import pstats
    import layers
    ctx, probes, filled = _start(workload, seed)
    from repro.pipeline.core import VETO_REASONS
    checker = Checker(workload, seed, filled)
    run_pass = PASSES[workload]
    count = TRACE_PASSES[workload]
    attempted = failed = 0

    def checked(outcome: Pass) -> Pass:
        nonlocal attempted, failed
        attempted += checker.attempted(outcome)
        failed += checker.failures(outcome)
        return outcome

    # Untraced and span passes alternate, so drift in the host's speed
    # reaches both sides of trace_overhead alike.
    spans = layers.Spans()
    plain: List[Pass] = []
    traced: List[Pass] = []
    for _ in range(count):
        plain.append(checked(run_pass(ctx, NullSpans())))
        spans.install()
        try:
            traced.append(checked(run_pass(ctx, spans)))
        finally:
            spans.uninstall()
    profile = cProfile.Profile()
    profile.enable()
    try:
        outcome = run_pass(ctx, NullSpans())
    finally:
        profile.disable()
    checked(outcome)
    finish_probes(workload, seed, probes)
    metrics = {"cli.import_s": statistics.median(p["import_s"]
                                                 for p in probes)}
    metrics.update(layers.span_metrics(
        spans, count, [p.cache for p in traced if p.cache is not None]))
    metrics.update(layers.simulated_metrics(spans.runs, count,
                                            sorted(VETO_REASONS)))
    metrics.update(layers.profile_metrics(
        pstats.Stats(profile).stats, os.path.join(SRC, "repro"), HERE))
    metrics["trace_overhead"] = (statistics.median(p.wall for p in traced)
                                 / statistics.median(p.wall for p in plain))
    spans_path = os.path.join(OUT, "spans-%s-seed%d.json" % (workload, seed))
    spans.write(spans_path)
    counts = {"passes": count,
              "ops_per_pass": checker.attempted(plain[0]),
              "spans": len(spans.spans), "spans_file": spans_path}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "counts": counts}


def finish(run: Dict, section: str) -> Dict:
    """The contract's result object: every metric of ``section`` with
    its unit, nothing else."""
    units = _metric_specs()[section]
    missing = sorted(set(units) - set(run["metrics"]))
    if missing:
        raise RuntimeError("metrics not produced: %s" % ", ".join(missing))
    return {"correct": run["failed"] == 0 and run["attempted"] > 0,
            "attempted": run["attempted"], "failed": run["failed"],
            "metrics": {name: {"value": run["metrics"][name],
                               "unit": unit}
                        for name, unit in units.items()}}


def print_table(workload: str, run: Dict, result: Dict, traced: bool) -> None:
    counts = ", ".join("%s=%s" % item for item in run["counts"].items())
    print("== %s (%s): %s; %d/%d ops failed" % (
        workload, "traced" if traced else "untraced", counts,
        result["failed"], result["attempted"]))
    if not traced:
        for name, metric in result["metrics"].items():
            print("  %-22s %14.6g %s" % (name, metric["value"],
                                         metric["unit"]))
        return
    import layers
    group = None
    for name, metric in result["metrics"].items():
        layer = name.split(".")[0]
        if layer != group:
            group = layer
            print("  [%s]" % layer)
        moves, where = layers.LAYER_METRICS[name]
        print("    %-30s %14.6g %-6s moves %s; most/least: %s" % (
            name, metric["value"], metric["unit"], moves, where))


def record() -> None:
    """Re-record expected.json from one pass of every workload at the
    default seed."""
    expected = {}
    for workload in WORKLOADS:
        ctx, _probes, _filled = _start(workload, DEFAULT_SEED)
        outcome = PASSES[workload](ctx, NullSpans())
        if outcome.failed:
            raise RuntimeError("%s raised while recording" % workload)
        ops = {key: output for key, _start, _end, output in outcome.ops}
        expected[workload] = {"ops": ops}
        if outcome.artefact is not None:
            expected[workload]["artefact"] = outcome.artefact
        print("recorded %s: %d ops" % (workload, len(ops)), file=sys.stderr)
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump({"seed": DEFAULT_SEED, **expected}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="fig6-cold",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="untraced then traced run, printed as tables")
    parser.add_argument("--record", action="store_true",
                        help="re-record expected.json at the default seed")
    parser.add_argument("--probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--warm", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    pin_env()

    if args.warm:
        import repro.cli  # noqa: F401
        return 0
    if args.probe:
        print(json.dumps(probe(args.probe, args.seed)))
        return 0
    try:
        if args.record:
            record()
            return 0
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        if len(workloads) > 1 and not args.report:
            parser.error("--workload all needs --report")
        for workload in workloads:
            modes = (0, 1) if args.report else (args.trace,)
            for mode in modes:
                if mode:
                    run = trace(workload, args.seed)
                    result = finish(run, "per_layer")
                else:
                    run = measure(workload, args.seed, args.seconds)
                    result = finish(run, "end_to_end")
                print_table(workload, run, result, traced=bool(mode))
        if not args.report:
            print(json.dumps(result))
        return 0
    except SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
