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
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import SystemConfig
from repro.defenses.base import Defense
from repro.exp.cache import ResultCache, resolve_cache
from repro.exp.resultset import PointResult, ResultSet
from repro.exp.spec import Sweep, SweepPoint, point_digests
from repro.obs import ObsConfig, build_tracer
from repro.pipeline.program import Program
from repro.sim.simulator import Simulator
from repro.workloads.spec import WorkloadSpec

ENV_JOBS = "REPRO_JOBS"

#: ``progress(done, total, result)`` — invoked once per finished point.
ProgressFn = Callable[[int, int, PointResult], None]


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker-count policy: argument > ``REPRO_JOBS`` env > 1.

    ``0`` (or any non-positive value) means "all cores".  Raises
    ``ValueError`` when ``REPRO_JOBS`` is read and is not an integer.
    """
    if jobs is None:
        text = os.environ.get(ENV_JOBS, "1")
        try:
            jobs = int(text)
        except ValueError:
            raise ValueError("$%s must be an integer (0 = all cores), "
                             "got %r" % (ENV_JOBS, text)) from None
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
             "skipped_cycles": point.skipped_cycles,
             "skipped_by_class": dict(point.skipped_by_class)}
            for point in self.results]
        rows.sort(key=lambda row: -row["seconds"])
        return rows

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
#  obs_config-with-per-point-out-or-None)
_Payload = Tuple[int, str, str, Tuple[str, str, str, float],
                 WorkloadSpec, Defense, SystemConfig, int, Optional[int],
                 Optional[ObsConfig]]

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


def regs_digest(cores) -> str:
    """SHA-256 over the final architectural registers of ``cores``:
    the ``regs_digest`` the differential fuzz oracles compare
    (docs/fuzzing.md)."""
    blob = json.dumps([list(core.arch_regs()) for core in cores])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _simulate_payload(payload: _Payload) -> Tuple[int, PointResult]:
    """Run one point (executed inline or inside a worker process)."""
    (index, key, digest, meta, spec, defense, cfg,
     max_cycles, max_insts, obs) = payload
    workload, defense_name, variant, scale = meta
    tracer = build_tracer(obs) if obs is not None else None
    started = time.perf_counter()
    sim = Simulator(_build_programs(spec, scale), defense, cfg=cfg)
    if tracer is not None:
        sim.attach_obs(tracer)
    outcome = sim.run(max_cycles=max_cycles, max_insts=max_insts)
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
    regs = regs_digest(outcome.cores)
    # Everything the record needs is taken: let refcounting free the
    # machine when ``outcome`` goes.
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
        metrics=metrics,
        trace_paths=trace_paths,
        regs_digest=regs,
    )


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
               obs: Optional[ObsConfig] = None
               ) -> SweepReport:
    """Execute ``points``, consulting/filling the cache, and return a
    report whose :class:`ResultSet` preserves the input point order.

    ``cache`` accepts anything :func:`repro.exp.cache.resolve_cache`
    does; executed points are stored into it as they complete.

    ``obs`` arms run-scoped tracing (see ``docs/observability.md``):
    every point simulates with an attached tracer and exports through
    the configured sinks.  Tracing forces ``jobs=1`` and bypasses
    cache *reads* (a cache hit produces no trace) but still writes
    results — traced and untraced runs are byte-identical, pinned by
    ``tests/test_scheduler_equivalence.py``."""
    jobs = 1 if obs is not None else resolve_jobs(jobs)
    store = resolve_cache(cache)
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
        pending.append((
            index, key, digest,
            (point.workload.name, point.defense.name,
             point.variant.label, point.scale),
            point.workload, point.defense, point.config(),
            point.max_cycles, point.max_insts,
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
              obs: Optional[ObsConfig] = None
              ) -> SweepReport:
    """Expand ``sweep`` and execute every point."""
    return run_points(sweep.points(), jobs=jobs, cache=cache,
                      progress=progress, obs=obs)
