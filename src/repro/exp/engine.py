"""Sweep executor: cache lookups, then fan-out over worker processes.

Simulations are pure CPU-bound functions of (programs, defense, config,
cycle cap), so a sweep is embarrassingly parallel: points missing from
the cache are shipped to a ``multiprocessing`` pool (``jobs > 1``) or
run inline (``jobs == 1``), and both paths produce identical
:class:`~repro.exp.resultset.PointResult` summaries — the determinism
test in ``tests/test_exp.py`` asserts byte-identical JSON.

Workload programs are built once per (workload, scale) per process and
shared by every defense/variant point, instead of being rebuilt per
pair; payloads ship the (small) workload spec, not the program list.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import re
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.stats import Stats
from repro.config import SystemConfig
from repro.defenses.base import Defense
from repro.exp.cache import ResultCache, resolve_cache
from repro.exp.resultset import PointResult, ResultSet
from repro.exp.spec import (RegionSampling, Sweep, SweepPoint,
                             point_digests)
from repro.obs import ObsConfig, Tracer, build_tracer
from repro.pipeline.program import Program
from repro.sim.checkpoint import CheckpointError
from repro.sim.simulator import RunResult, Simulator
from repro.workloads.spec import WorkloadSpec

ENV_JOBS = "REPRO_JOBS"

#: Default checkpoint database for warm-start/sampling policies when
#: the engine is not handed one explicitly.
ENV_CHECKPOINT_DB = "REPRO_CHECKPOINT_DB"

#: ``progress(done, total, result)`` — invoked once per finished point.
ProgressFn = Callable[[int, int, PointResult], None]


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker-count policy: argument > ``REPRO_JOBS`` env > 1.

    ``0`` (or any non-positive value) means "all cores".
    """
    if jobs is None:
        jobs = int(os.environ.get(ENV_JOBS, "1"))
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def format_engine_summary(meta: Dict) -> str:
    """The one-line engine summary shown by the CLI and the benches."""
    return ("engine: %(points)d points, %(cache_hits)d cache hits, "
            "%(executed)d simulated, jobs=%(jobs)d" % meta)


@dataclass
class SweepReport:
    """Outcome of one engine invocation."""

    results: ResultSet
    cache_hits: int = 0
    executed: int = 0
    jobs: int = 1
    #: Wall-clock seconds for the whole engine invocation (cache
    #: lookups + simulation + gather), measured by :func:`run_points`.
    wall_seconds: float = 0.0

    @property
    def total(self) -> int:
        return len(self.results)

    def meta(self) -> Dict:
        return {"points": self.total, "cache_hits": self.cache_hits,
                "executed": self.executed, "jobs": self.jobs}

    def summary(self) -> str:
        return format_engine_summary(self.meta())

    # -- per-point timing telemetry (scheduler tuning) ------------------

    def point_timings(self) -> List[Dict]:
        """Per-point timing rows: seconds + simulated cycles for every
        point, slowest first.  Cache-replayed points appear
        with ``seconds`` 0.0 and ``cached`` True — one row per point,
        so timing tables keep a fixed column count across mixed
        cached/fresh sweeps."""
        rows = [
            {"key": point.key,
             "seconds": 0.0 if point.cached else point.wall_seconds,
             "cycles": point.cycles,
             "cached": point.cached,
             "warm_insts": point.warm_insts,
             "skipped_cycles": point.skipped_cycles,
             "skipped_by_class": dict(point.skipped_by_class)}
            for point in self.results]
        rows.sort(key=lambda row: -row["seconds"])
        return rows

    def warm_insts(self) -> int:
        """Total warm-up instructions avoided by checkpoint restores
        across the executed points (0 when warm-start never fired)."""
        return sum(point.warm_insts for point in self.results
                   if not point.cached)

    def skipped_by_class(self) -> Dict[str, int]:
        """Aggregate skipped-cycles-per-stall-class telemetry over the
        executed points (cache hits carry none).  A skip window counts
        toward every class active in it, so the values can sum to more
        than the total skipped cycles."""
        totals: Dict[str, int] = {}
        for point in self.results:
            if point.cached:
                continue
            for cls, cycles in point.skipped_by_class.items():
                totals[cls] = totals.get(cls, 0) + cycles
        return totals

    def sim_seconds(self) -> float:
        """Total seconds spent simulating (sums worker time, so it can
        exceed ``wall_seconds`` for parallel runs)."""
        return sum(point.wall_seconds for point in self.results
                   if not point.cached)

    def timing_meta(self) -> Dict:
        """The timing block surfaced by ``--json`` consumers."""
        return {"wall_seconds": round(self.wall_seconds, 6),
                "sim_seconds": round(self.sim_seconds(), 6),
                "warm_insts": self.warm_insts(),
                "skipped_by_class": self.skipped_by_class(),
                "points": self.point_timings()}

    def trace_paths(self) -> List[str]:
        """Every trace file the points of this run exported (empty for
        untraced runs)."""
        paths: List[str] = []
        for point in self.results:
            paths.extend(point.trace_paths)
        return paths

    def runlog_records(self, slowest: int = 3) -> List[Dict]:
        """The structured run-log records for this invocation.

        ``--json`` consumers get these as schema-versioned JSONL on
        stderr (via :class:`repro.obs.runlog.RunLog`) instead of the
        free-form ``summary()``/``timing_summary()`` text, so the
        engine telemetry is machine-readable without polluting the
        stdout payload."""
        records: List[Dict] = [
            dict(self.meta(), event="engine-summary"),
            dict(self.timing_meta(), event="engine-timing",
                 points=None),
        ]
        # timing_meta embeds every per-point row; the runlog keeps the
        # aggregate record slim and emits only the slowest points as
        # their own records.
        records[1].pop("points")
        for row in self.point_timings()[:max(0, slowest)]:
            if not row["cached"]:
                records.append(dict(row, event="point-timing"))
        traces = self.trace_paths()
        if traces:
            records.append({"event": "trace-export", "paths": traces})
        return records

    def timing_summary(self, slowest: int = 3) -> str:
        """One-line timing summary for stderr, e.g.
        ``timing: 1.24s wall, 3.90s simulating; slowest: k1 (2.1s), ...``
        """
        parts = ["timing: %.2fs wall, %.2fs simulating"
                 % (self.wall_seconds, self.sim_seconds())]
        warm = self.warm_insts()
        if warm:
            parts.append("warm-start avoided %d warm-up insts" % warm)
        rows = [row for row in self.point_timings()[:max(0, slowest)]
                if not row["cached"]]
        if rows:
            parts.append("slowest: " + ", ".join(
                "%s (%.2fs, %d cycles)"
                % (row["key"], row["seconds"], row["cycles"])
                for row in rows))
        return "; ".join(parts)


# One payload per cache miss; a plain tuple so it pickles cheaply:
# (index, key, digest, meta(workload, defense, variant, scale),
#  workload_spec, defense, cfg, max_cycles, max_insts,
#  warmup_insts, sampling, prefix_digest, checkpoint_db_path,
#  obs_config-with-per-point-out-or-None)
_Payload = Tuple[int, str, str, Tuple[str, str, str, float],
                 WorkloadSpec, Defense, SystemConfig, int, Optional[int],
                 Optional[int], Optional[RegionSampling], Optional[str],
                 Optional[str], Optional[ObsConfig]]

#: Per-process (workload-content, scale) -> programs memo.  In serial
#: runs this is the only copy; each pool worker grows its own.  Safe
#: because the Simulator never mutates Program state (regression-tested
#: in tests/test_simulator.py).
_PROGRAMS_MEMO: Dict[Tuple[str, float], List[Program]] = {}


def _build_programs(spec: WorkloadSpec, scale: float) -> List[Program]:
    # Key by the spec's full content, not its display name: distinct
    # specs that share a name must not alias each other's programs.
    memo_key = (json.dumps(dataclasses.asdict(spec), sort_keys=True,
                           default=str), scale)
    if memo_key not in _PROGRAMS_MEMO:
        _PROGRAMS_MEMO[memo_key] = spec.build(scale)
    return _PROGRAMS_MEMO[memo_key]


#: Per-process checkpoint-database memo.  Payloads carry the database
#: *path*, not a live connection: sqlite connections cannot cross
#: process boundaries, so each worker opens (and keeps) its own.
_CKPT_STORES: Dict[str, object] = {}


def _checkpoint_store(path: Optional[str]):
    if path is None:
        return None
    store = _CKPT_STORES.get(path)
    if store is None:
        from repro.exp.checkpoints import CheckpointDB, RunMeta
        # Real timestamps, so `store prune --older-than` can age
        # checkpoints out.
        store = CheckpointDB(path, run_meta=RunMeta.capture())
        _CKPT_STORES[path] = store
    return store


def _restore(store, record) -> Optional[Simulator]:
    """The simulator a stored checkpoint holds, or ``None`` when its
    blob does not restore (truncated, another format).  Such a row is
    a miss: it is discarded with a warning on stderr, so the run
    simulates the prefix again and the re-saved checkpoint lands."""
    try:
        return Simulator.restore(record.blob)
    except CheckpointError as exc:
        store.discard(record.prefix_digest, record.inst_count)
        print("warning: discarded unusable checkpoint (%s): prefix %s "
              "at %d insts in %s" % (exc, record.prefix_digest[:12],
                                     record.inst_count, store.path),
              file=sys.stderr)
        return None


def _worker_init() -> None:
    """Pool-worker initializer: re-load registry plugins.

    Plugin-defined classes (hierarchies, defenses) pickle by module
    reference; under the ``spawn`` start method a fresh worker has
    never executed the plugin files, so the payloads would fail to
    unpickle.  Loading is memoized, so under ``fork`` (where the
    parent's modules are inherited) this is a no-op.
    """
    from repro.registry.plugins import load_plugins
    load_plugins()
    # Under ``fork`` the parent's open sqlite connections are inherited
    # but must never be used from the child: drop the memo so each
    # worker opens its own.
    _CKPT_STORES.clear()


def _halted(sim: Simulator) -> bool:
    return all(core.halted for core in sim.cores)


def _result_of(sim: Simulator) -> RunResult:
    """The :class:`RunResult` ``sim.run()`` would return *without*
    stepping — for targets a previous ``run`` leg already reached
    (calling ``run`` again would step one spurious cycle)."""
    sim.stats.set("sim.cycles", sim.cycle)
    return RunResult(cycles=sim.cycle, stats=sim.stats,
                     finished=_halted(sim), cores=sim.cores,
                     skipped_cycles=sim.skipped_cycles,
                     skipped_by_class=dict(sim.skipped_by_class),
                     veto_counts=dict(sim.veto_counts))


def _save_checkpoint(store, prefix_digest: str, inst_count: int,
                     sim: Simulator, max_cycles: int,
                     workload: str, defense: str) -> None:
    """Persist ``sim`` at the ``inst_count`` boundary — but only when
    the boundary was genuinely reached: a run that halted or hit the
    cycle cap before committing ``inst_count`` instructions is a
    complete result, not a warm-up prefix, and restoring it as one
    would diverge from a cold run with a longer horizon."""
    from repro.sim.checkpoint import CHECKPOINT_FORMAT
    if _halted(sim) or sim.cycle >= max_cycles:
        return
    if sim.committed_insts() < inst_count:
        return
    store.save(
        prefix_digest, inst_count, sim.snapshot(),
        fmt=CHECKPOINT_FORMAT, insts=sim.committed_insts(),
        cycles=sim.cycle, workload=workload, defense=defense)


#: A run helper's result: the outcome, the warm-start instructions it
#: restored, and the simulators it ran, to release once the record is
#: taken.
_Outcome = Tuple[RunResult, int, List[Simulator]]


def _run_cold(spec: WorkloadSpec, defense: Defense, cfg: SystemConfig,
              scale: float, max_cycles: int, max_insts: Optional[int],
              tracer: Optional[Tracer] = None) -> _Outcome:
    programs = _build_programs(spec, scale)
    sim = Simulator(programs, defense, cfg=cfg)
    if tracer is not None:
        sim.attach_obs(tracer)
    outcome = sim.run(max_cycles=max_cycles, max_insts=max_insts)
    return outcome, 0, [sim]


def _run_warm(spec: WorkloadSpec, defense: Defense, cfg: SystemConfig,
              scale: float, max_cycles: int, max_insts: Optional[int],
              warmup: int, prefix_digest: str, ckpt_path: Optional[str],
              workload: str, defense_name: str,
              tracer: Optional[Tracer] = None
              ) -> _Outcome:
    """Warm-start policy: restore the warm-up prefix from a checkpoint
    when one exists, create it (once) when it does not.

    Both paths are byte-identical to a cold run of the same point:
    ``Simulator.run`` may be split at any committed-instruction
    boundary, and the snapshot blob round-trips exactly (regression:
    the checkpoint-equivalence matrix in
    ``tests/test_scheduler_equivalence.py``).
    """
    store = _checkpoint_store(ckpt_path)
    if store is None or \
            (max_insts is not None and warmup >= max_insts):
        # No checkpoint database, or the warm-up prefix covers the
        # whole measured horizon — nothing to warm-start.
        return _run_cold(spec, defense, cfg, scale, max_cycles,
                         max_insts, tracer=tracer)
    record = store.lookup(prefix_digest, warmup)
    sim = _restore(store, record) if record is not None else None
    if sim is not None:
        if tracer is not None:
            sim.attach_obs(tracer)
            tracer.emit_marker("checkpoint-restore", sim.cycle,
                               {"insts": record.insts})
        if _halted(sim) or sim.cycle >= max_cycles or (
                max_insts is not None
                and sim.committed_insts() >= max_insts):
            return _result_of(sim), record.insts, [sim]
        return sim.run(max_cycles=max_cycles,
                       max_insts=max_insts), record.insts, [sim]
    # Miss: warm up cold, snapshot the boundary for every later run
    # that shares this prefix, then finish the measured region.
    programs = _build_programs(spec, scale)
    sim = Simulator(programs, defense, cfg=cfg)
    if tracer is not None:
        sim.attach_obs(tracer)
    leg = sim.run(max_cycles=max_cycles, max_insts=warmup)
    _save_checkpoint(store, prefix_digest, warmup, sim, max_cycles,
                     workload, defense_name)
    if leg.finished or sim.cycle >= max_cycles or (
            max_insts is not None
            and sim.committed_insts() >= max_insts):
        return leg, 0, [sim]
    return sim.run(max_cycles=max_cycles, max_insts=max_insts), 0, [sim]


def _run_window(sim: Simulator, end: int, max_cycles: int
                ) -> Tuple[int, Dict[str, float], int]:
    """Simulate ``sim`` up to the ``end`` instruction boundary and
    return ``(cycle_delta, stats_delta, inst_delta)`` for the window.
    ``sim.cycles`` is excluded from the stats delta (it is a snapshot,
    not a counter); the cycle delta carries that information."""
    before_cycle = sim.cycle
    before_insts = sim.committed_insts()
    before = sim.stats.as_dict()
    if not _halted(sim) and sim.cycle < max_cycles and \
            sim.committed_insts() < end:
        sim.run(max_cycles=max_cycles, max_insts=end)
    after = sim.stats.as_dict()
    delta: Dict[str, float] = {}
    for name in sorted(after):
        if name == "sim.cycles":
            continue
        change = after[name] - before.get(name, 0.0)
        if change:
            delta[name] = change
    return (sim.cycle - before_cycle, delta,
            sim.committed_insts() - before_insts)


def _run_sampled(spec: WorkloadSpec, defense: Defense,
                 cfg: SystemConfig, scale: float, max_cycles: int,
                 max_insts: int, sampling: RegionSampling,
                 prefix_digest: Optional[str],
                 ckpt_path: Optional[str], workload: str,
                 defense_name: str,
                 tracer: Optional[Tracer] = None
                 ) -> _Outcome:
    """SimPoint-style region sampling over the ``max_insts`` horizon.

    The horizon is cut into ``sampling.regions`` equal regions; only a
    ``sampling.window_insts``-instruction window at the head of each is
    simulated, and each window's stat deltas are scaled by
    ``region_insts / window_insts`` before summing into one synthetic
    result.  A window larger than its region is clamped (weight 1.0),
    so a huge window degenerates to the exact, unsampled run.

    Two execution paths produce *identical* window deltas: a generator
    pass (one simulator runs the whole horizon, snapshotting each
    region boundary into the checkpoint store) and a restore pass
    (each window starts from its boundary checkpoint, paying nothing
    for the instructions before it).  The restore pass is used when
    every boundary checkpoint is present and restores.
    """
    count = sampling.regions
    window = sampling.window_insts
    starts = [(i * max_insts) // count for i in range(count)]
    region_ends = starts[1:] + [max_insts]
    ends = [min(start + window, region_end)
            for start, region_end in zip(starts, region_ends)]
    store = _checkpoint_store(ckpt_path)

    records = None
    restored: List[Optional[Simulator]] = []
    if store is not None and count > 1:
        found = [store.lookup(prefix_digest, start)
                 for start in starts[1:]]
        if all(record is not None for record in found):
            # Restore every boundary before simulating any window, so a
            # blob that does not restore falls back to the generator
            # pass with nothing run or traced yet.
            restored = [_restore(store, record) for record in found]
            if all(sim is not None for sim in restored):
                records = found
            else:
                for sim in restored:
                    if sim is not None:
                        sim.release()

    windows: List[Tuple[int, Dict[str, float], int]] = []
    sims: List[Simulator] = []
    warm_insts = 0
    if records is not None:
        # Restore pass: region 0 starts cold, every later window from
        # its boundary checkpoint.
        for i in range(count):
            if i == 0:
                programs = _build_programs(spec, scale)
                sim = Simulator(programs, defense, cfg=cfg)
                if tracer is not None:
                    sim.attach_obs(tracer)
            else:
                record = records[i - 1]
                sim = restored[i - 1]
                warm_insts += record.insts
                if tracer is not None:
                    sim.attach_obs(tracer)
                    tracer.emit_marker("checkpoint-restore", sim.cycle,
                                       {"insts": record.insts})
            windows.append(_run_window(sim, ends[i], max_cycles))
            sims.append(sim)
    else:
        # Generator pass: one simulator sweeps the horizon; the gaps
        # between windows are simulated (and their boundaries
        # snapshotted) but excluded from every measurement.
        programs = _build_programs(spec, scale)
        sim = Simulator(programs, defense, cfg=cfg)
        if tracer is not None:
            sim.attach_obs(tracer)
        for i in range(count):
            if not _halted(sim) and sim.cycle < max_cycles and \
                    sim.committed_insts() < starts[i]:
                sim.run(max_cycles=max_cycles, max_insts=starts[i])
            if i > 0 and store is not None:
                _save_checkpoint(store, prefix_digest, starts[i], sim,
                                 max_cycles, workload, defense_name)
            windows.append(_run_window(sim, ends[i], max_cycles))
        sims.append(sim)

    # Weighted combine: each window stands in for its whole region.
    stats = Stats()
    totals: Dict[str, float] = {}
    est_cycles = 0.0
    measured_insts = 0
    measured_cycles = 0
    for i in range(count):
        cycle_delta, delta, inst_delta = windows[i]
        span = ends[i] - starts[i]
        weight = ((region_ends[i] - starts[i]) / span if span > 0
                  else 0.0)
        est_cycles += weight * cycle_delta
        measured_cycles += cycle_delta
        measured_insts += inst_delta
        for name in delta:
            totals[name] = totals.get(name, 0.0) + weight * delta[name]
    for name in sorted(totals):
        stats.set(name, totals[name])
    cycles = int(round(est_cycles))
    stats.set("sim.cycles", cycles)
    # Marker stats: a sampled result is an *estimate* — consumers can
    # tell (and the measured-vs-estimated ratio is the speedup).
    stats.set("sampled.regions", float(count))
    stats.set("sampled.window_insts", float(window))
    stats.set("sampled.measured_insts", float(measured_insts))
    stats.set("sampled.measured_cycles", float(measured_cycles))
    outcome = RunResult(cycles=cycles, stats=stats, finished=False,
                        cores=[])
    return outcome, warm_insts, sims


def _simulate_payload(payload: _Payload) -> Tuple[int, PointResult]:
    """Run one point (executed inline or inside a worker process)."""
    (index, key, digest, meta, spec, defense, cfg,
     max_cycles, max_insts, warmup, sampling, prefix_digest,
     ckpt_path, obs) = payload
    workload, defense_name, variant, scale = meta
    tracer = build_tracer(obs) if obs is not None else None
    started = time.perf_counter()
    if sampling is not None:
        outcome, warm, sims = _run_sampled(
            spec, defense, cfg, scale, max_cycles, max_insts, sampling,
            prefix_digest, ckpt_path, workload, defense_name,
            tracer=tracer)
    elif warmup is not None:
        outcome, warm, sims = _run_warm(
            spec, defense, cfg, scale, max_cycles, max_insts, warmup,
            prefix_digest, ckpt_path, workload, defense_name,
            tracer=tracer)
    else:
        outcome, warm, sims = _run_cold(spec, defense, cfg, scale,
                                        max_cycles, max_insts,
                                        tracer=tracer)
    elapsed = time.perf_counter() - started
    metrics = None
    trace_paths: List[str] = []
    if tracer is not None:
        from repro.obs.sinks import export_traces
        trace_paths = export_traces(
            tracer, obs.sinks, obs.out,
            meta={"key": key, "workload": workload,
                  "defense": defense_name, "variant": variant,
                  "scale": scale, "digest": digest})
        if tracer.sampler is not None:
            metrics = tracer.sampler.series()
    # Architectural-register digest for the differential fuzz oracles
    # (docs/fuzzing.md).  Sampled runs carry no live cores -> None.
    regs_digest = None
    if outcome.cores:
        regs_blob = json.dumps(
            [list(core.arch_regs()) for core in outcome.cores])
        regs_digest = hashlib.sha256(
            regs_blob.encode("utf-8")).hexdigest()
    # Everything the record needs is taken: let refcounting free the
    # machines when ``outcome`` goes.
    for sim in sims:
        sim.release()
    return index, PointResult(
        key=key,
        workload=workload,
        defense=defense_name,
        variant=variant,
        scale=scale,
        digest=digest,
        cycles=outcome.cycles,
        insts=outcome.insts,
        finished=outcome.finished,
        stats=outcome.stats.as_dict(),
        wall_seconds=elapsed,
        skipped_cycles=outcome.skipped_cycles,
        skipped_by_class=dict(outcome.skipped_by_class),
        warm_insts=warm,
        metrics=metrics,
        trace_paths=trace_paths,
        regs_digest=regs_digest,
    )


def resolve_checkpoints(checkpoints: Union[None, bool, str] = None
                        ) -> Optional[str]:
    """Checkpoint-database policy: explicit path > ``False`` (off) >
    ``REPRO_CHECKPOINT_DB`` env.

    Returns the database path, or ``None`` when warm-start/sampling
    should run without persistence.  ``checkpoints=True`` demands a
    database and raises :class:`ValueError` when none is set.
    """
    if checkpoints is False:
        return None
    if isinstance(checkpoints, str):
        return checkpoints
    path = os.environ.get(ENV_CHECKPOINT_DB) or None
    if checkpoints is True and path is None:
        raise ValueError(
            "checkpoints=True, but no checkpoint database: pass a "
            "path or set %s" % ENV_CHECKPOINT_DB)
    return path


def _obs_for_point(obs: ObsConfig, key: str,
                   multi: bool) -> ObsConfig:
    """Per-point obs config: a single traced point writes exactly to
    ``obs.out``; multi-point sweeps insert a sanitized point key before
    the extension so every point gets its own trace file."""
    if not multi:
        return obs
    stem, suffix = obs.out, ""
    for known in (".timeline.json", ".jsonl", ".json"):
        if stem.endswith(known):
            stem, suffix = stem[:-len(known)], known
            break
    safe = re.sub(r"[^A-Za-z0-9._@-]+", "_", key)
    return dataclasses.replace(obs, out=stem + "-" + safe + suffix)


def run_points(points: Sequence[SweepPoint],
               jobs: Optional[int] = None,
               cache: Union[None, bool, str, ResultCache,
                            object] = None,
               progress: Optional[ProgressFn] = None,
               checkpoints: Union[None, bool, str] = None,
               obs: Optional[ObsConfig] = None
               ) -> SweepReport:
    """Execute ``points``, consulting/filling the cache, and return a
    report whose :class:`ResultSet` preserves the input point order.

    ``cache`` accepts anything :func:`repro.exp.cache.resolve_cache`
    does; executed points are stored into it as they complete.

    ``checkpoints`` names the warm-start checkpoint database (see
    :func:`resolve_checkpoints`); points with ``warmup_insts`` or
    ``sampling`` set use it to skip re-simulating shared prefixes.

    ``obs`` arms run-scoped tracing (see ``docs/observability.md``):
    every point simulates with an attached tracer and exports through
    the configured sinks.  Tracing forces ``jobs=1`` and bypasses
    cache *reads* (a cache hit produces no trace) but still writes
    results — traced and untraced runs are byte-identical, pinned by
    ``tests/test_scheduler_equivalence.py``."""
    jobs = resolve_jobs(jobs)
    if obs is not None:
        jobs = 1
    store = resolve_cache(cache)
    ckpt_path = resolve_checkpoints(checkpoints)
    total = len(points)
    started = time.perf_counter()
    # Scope program reuse to this invocation (workers get their own
    # per-process memo for the lifetime of the pool).
    _PROGRAMS_MEMO.clear()
    # Fail fast on composed point lists with colliding keys, before any
    # simulation time is spent (Sweep.points() already checks within
    # one sweep).  ``SweepPoint.key`` formats its string on every
    # access, so each point's key is read once, here.
    keys: List[str] = []
    seen_keys = set()
    for point in points:
        key = point.key
        if key in seen_keys:
            raise ValueError(
                "duplicate sweep point %r in composed point list; give "
                "colliding defenses or variants distinct names/labels"
                % key)
        seen_keys.add(key)
        keys.append(key)
        if point.sampling is not None:
            if point.max_insts is None:
                raise ValueError(
                    "point %r: region sampling requires max_insts "
                    "(the sampled horizon)" % key)
            if point.warmup_insts is not None:
                raise ValueError(
                    "point %r: warmup_insts and sampling are mutually "
                    "exclusive policies" % key)
    slots: List[Optional[PointResult]] = [None] * total
    done = 0

    def finish(index: int, result: PointResult) -> None:
        nonlocal done
        slots[index] = result
        done += 1
        if progress is not None:
            progress(done, total, result)

    pending: List[_Payload] = []
    hits = 0
    multi = len(points) > 1
    for index, (point, key, digest) in enumerate(
            zip(points, keys, point_digests(points))):
        if store is not None and obs is None:
            hit = store.lookup(digest)
            if hit is not None:
                hits += 1
                # Re-key: the digest identifies the simulation, but the
                # caller's key/labels name this sweep's view of it.
                hit.key = key
                hit.variant = point.variant.label
                finish(index, hit)
                continue
        needs_prefix = (point.warmup_insts is not None
                        or point.sampling is not None)
        pending.append((
            index, key, digest,
            (point.workload.name, point.defense.name,
             point.variant.label, point.scale),
            point.workload, point.defense, point.config(),
            point.max_cycles, point.max_insts,
            point.warmup_insts, point.sampling,
            point.prefix_digest() if needs_prefix else None,
            ckpt_path if needs_prefix else None,
            _obs_for_point(obs, key, multi)
            if obs is not None else None))

    if pending:
        if jobs > 1 and len(pending) > 1:
            with multiprocessing.Pool(processes=min(jobs, len(pending)),
                                      initializer=_worker_init) as pool:
                for index, result in pool.imap_unordered(
                        _simulate_payload, pending, chunksize=1):
                    if store is not None:
                        store.store(result)
                    finish(index, result)
        else:
            for payload in pending:
                index, result = _simulate_payload(payload)
                if store is not None:
                    store.store(result)
                finish(index, result)

    results = ResultSet()
    for slot in slots:
        assert slot is not None
        results.add(slot)
    return SweepReport(results=results, cache_hits=hits,
                       executed=len(pending), jobs=jobs,
                       wall_seconds=time.perf_counter() - started)


def run_sweep(sweep: Sweep,
              jobs: Optional[int] = None,
              cache: Union[None, bool, str, ResultCache,
                           object] = None,
              progress: Optional[ProgressFn] = None,
              checkpoints: Union[None, bool, str] = None,
              obs: Optional[ObsConfig] = None
              ) -> SweepReport:
    """Expand ``sweep`` and execute every point."""
    return run_points(sweep.points(), jobs=jobs, cache=cache,
                      progress=progress, checkpoints=checkpoints,
                      obs=obs)
