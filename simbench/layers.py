"""Per-layer instrumentation for the traced benchmark run.

Everything here lives outside the simulator: spans are recorded by
wrapping the program's public entry points from this file, and self
time comes from a separate cProfile pass aggregated by ``repro``
package.  Nothing is installed during the untraced runs that produce
the end-to-end metrics.

Layers are the ``src/repro/`` packages.  ``pipeline`` is split into
``pipeline.hotcore`` (the per-cycle stages in ``hotcore.py``),
``pipeline.core`` (the stall proofs in ``core.py``) and
``pipeline.other``; ``defenses`` includes the minions in ``core/``.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# The end-to-end metric each per-layer metric should move, and the
# workloads where it should move most / least.  Names and units are
# BENCHMARK.json's.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "cli.import_s": ("setup_s", "all"),
    "workloads.build_s": ("setup_s", "fig6-cold / core-long"),
    "workloads.self_frac": ("op_s_p50", "fig6-cold / core-long"),
    "sim.ctor_s": ("op_s_p50, wall_s", "fig6-cold / core-long"),
    "sim.run_s": ("kips, wall_s", "core-long, fig6-cold / compare-replay"),
    "sim.self_frac": ("kips", "fig6-cold / compare-replay"),
    "sim.skip_frac": ("kips", "fig6-cold / core-long"),
    "sim.dense_steps": ("kips", "fig6-cold / core-long"),
    "sim.veto.commit-ready": ("kips", "fig6-cold / core-long"),
    "sim.veto.dispatch-ready": ("kips", "fig6-cold / core-long"),
    "sim.veto.early-commit-ready": ("kips", "fig6-cold / core-long"),
    "sim.veto.fetch-ready": ("kips", "fig6-cold / core-long"),
    "sim.veto.issue-ready": ("kips", "fig6-cold / core-long"),
    "sim.veto.mem-event-due": ("kips", "fig6-cold / core-long"),
    "sim.veto.validation-start": ("kips", "fig6-cold / core-long"),
    "sim.veto.writeback-due": ("kips", "fig6-cold / core-long"),
    "pipeline.self_frac": ("kips", "core-long / compare-replay"),
    "pipeline.hotcore.self_frac": ("kips", "core-long / compare-replay"),
    "pipeline.step_calls": ("kips", "core-long / compare-replay"),
    "pipeline.operands_ready_calls": ("kips", "core-long / compare-replay"),
    "pipeline.sort_calls": ("kips", "core-long / compare-replay"),
    "pipeline.core.self_frac": ("kips", "fig6-cold / core-long"),
    "pipeline.useful_frac": ("kips", "fig6-cold / core-long"),
    "memory.self_frac": ("kips", "fig6-cold / core-long"),
    "memory.l1d_hit_frac": ("kips", "fig6-cold / core-long"),
    "memory.l2_misses": ("kips", "fig6-cold / core-long"),
    "memory.mshr_allocs": ("kips", "fig6-cold / core-long"),
    "memory.dram_accesses": ("kips", "fig6-cold / core-long"),
    "defenses.self_frac": ("kips", "fig6-cold / core-long"),
    "defenses.dminion_misses": ("kips", "fig6-cold / core-long"),
    "defenses.minion_wipes": ("kips", "fig6-cold / core-long"),
    "defenses.squash_insts": ("kips", "fig6-cold / core-long"),
    "exp.self_frac": ("op_s_p50", "compare-replay / core-long"),
    "exp.digest_s": ("op_s_p50, op_s_p90", "compare-replay / core-long"),
    "exp.cache_lookup_s": ("op_s_p50, op_s_p90", "compare-replay / core-long"),
    "exp.cache_store_s": ("op_s_p50, op_s_p90", "fig6-cold / core-long"),
    "exp.overhead_s": ("op_s_p50, op_s_p90", "compare-replay / core-long"),
    "exp.cache_hit_frac":
        ("op_s_p50", "compare-replay (1.0) / fig6-cold (0.0)"),
    "store.self_frac":
        ("op_s_p50", "compare-replay (0 until sqlite is the default cache)"),
    "analysis.self_frac": ("op_s_p50", "compare-replay / core-long"),
    "analysis.shape_s": ("op_s_p50", "compare-replay / core-long"),
    "other.self_frac": ("op_s_p50", "all"),
    "trace_overhead": ("(traced wall / untraced wall)", "all"),
}

#: Layers whose cProfile self-time share is reported as
#: ``<layer>.self_frac``; ``pipeline`` is the sum of its three parts.
PROFILE_LAYERS = ("workloads", "sim", "pipeline.hotcore", "pipeline.core",
                  "pipeline.other", "memory", "defenses", "exp", "store",
                  "analysis", "cli", "other", "bench")

_PACKAGE_LAYERS = {"workloads": "workloads", "sim": "sim",
                   "memory": "memory", "defenses": "defenses",
                   "core": "defenses", "exp": "exp", "store": "store",
                   "analysis": "analysis"}

_SPAN_METRICS = {
    "workloads.build": "workloads.build_s",
    "sim.ctor": "sim.ctor_s",
    "sim.run": "sim.run_s",
    "exp.digest": "exp.digest_s",
    "exp.cache_lookup": "exp.cache_lookup_s",
    "exp.cache_store": "exp.cache_store_s",
    "analysis.shape": "analysis.shape_s",
}


def layer_of_file(filename: str, repro_root: str,
                  bench_root: str) -> Optional[str]:
    """The layer a profiled function belongs to, or None when it is
    outside ``repro`` and the benchmark (stdlib and builtins)."""
    if filename.startswith(bench_root + os.sep):
        return "bench"
    if not filename.startswith(repro_root + os.sep):
        return None
    parts = os.path.relpath(filename, repro_root).split(os.sep)
    if parts == ["cli.py"]:
        return "cli"
    if parts[0] == "pipeline":
        if parts[-1] == "hotcore.py":
            return "pipeline.hotcore"
        if parts[-1] == "core.py":
            return "pipeline.core"
        return "pipeline.other"
    return _PACKAGE_LAYERS.get(parts[0], "other")


class Spans:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, op]``: ``parent`` indexes the
    enclosing span (-1 at top level) and ``op`` is the op id the pass
    code sets in :attr:`op` before each operation.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op = 0
        self._stack: List[int] = []
        #: ``(cycles, skipped_cycles, veto_counts, stats)`` of every
        #: ``Simulator.run`` observed while installed.
        self.runs: List[tuple] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # -- installation around the program's public entry points ---------

    def _patch(self, owner: object, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        spans = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = spans.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                spans.close(index)

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _patch_run(self, simulator_cls: type) -> None:
        original = simulator_cls.run
        spans = self

        @functools.wraps(original)
        def run(sim, *args, **kwargs):
            index = spans.open("sim.run")
            try:
                result = original(sim, *args, **kwargs)
            finally:
                spans.close(index)
            spans.runs.append((result.cycles, result.skipped_cycles,
                               dict(result.veto_counts), result.stats))
            return result

        self._undo.append((simulator_cls, "run", original))
        simulator_cls.run = run

    def install(self) -> None:
        from repro.analysis import figures
        from repro.exp.spec import SweepPoint
        from repro.sim import runner
        from repro.sim.simulator import Simulator
        from repro.workloads.spec import WorkloadSpec
        self._patch(WorkloadSpec, "build", "workloads.build")
        self._patch(Simulator, "__init__", "sim.ctor")
        self._patch_run(Simulator)
        self._patch(SweepPoint, "digest", "exp.digest")
        for attr in ("normalised_times", "normalised_series",
                     "format_table"):
            self._patch(figures, attr, "analysis.shape")
        self._patch(runner, "normalised_times", "analysis.shape")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def cache(self, inner: object) -> "TracedCache":
        return TracedCache(inner, self)

    # -- reduction ------------------------------------------------------

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Total duration and self time (duration minus direct
        children) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Dict[str, float] = {}
        selfs: Dict[str, float] = {}
        for index, (name, start, end, _parent, _op) in \
                enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + end - start
            selfs[name] = selfs.get(name, 0.0) + end - start - child[index]
        return {"total": totals, "self": selfs}

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, handle)


class TracedCache:
    """Delegating result cache that records lookup/store spans and
    counts hits; passed to the engine as ``cache=``."""

    def __init__(self, inner: object, spans: Spans) -> None:
        self.inner = inner
        self.spans = spans
        self.lookups = 0
        self.hits = 0

    def lookup(self, digest: str):
        hit = self.spans.call("exp.cache_lookup", self.inner.lookup, digest)
        self.lookups += 1
        if hit is not None:
            self.hits += 1
        return hit

    def store(self, result) -> None:
        self.spans.call("exp.cache_store", self.inner.store, result)


def span_metrics(spans: Spans, passes: int,
                 caches: Sequence[TracedCache]) -> Dict[str, float]:
    """Per-pass layer timings and cache ratios from the span pass.

    ``exp.overhead_s`` is engine time outside simulation, program
    build, cache I/O and table shaping: the self time of the ``engine``
    spans plus the digests nested in them.
    """
    times = spans.self_times()
    total = times["total"]
    metrics = {metric: total.get(name, 0.0) / passes
               for name, metric in _SPAN_METRICS.items()}
    metrics["exp.overhead_s"] = (times["self"].get("engine", 0.0)
                                 + total.get("exp.digest", 0.0)) / passes
    lookups = sum(cache.lookups for cache in caches)
    hits = sum(cache.hits for cache in caches)
    metrics["exp.cache_hit_frac"] = hits / lookups if lookups else 0.0
    return metrics


def _stat(stats: Dict[str, float], name: str) -> float:
    return float(stats.get(name, 0.0))


def simulated_metrics(runs: Sequence[tuple], passes: int,
                      veto_reasons: Sequence[str]) -> Dict[str, float]:
    """Per-pass simulated counts from the ``Simulator.run`` results the
    span pass observed (``RunResult.stats``/``skipped_cycles``/
    ``veto_counts``)."""
    cycles = skipped = 0
    vetoes = {reason: 0 for reason in veto_reasons}
    sums: Dict[str, float] = {}
    for run_cycles, run_skipped, veto_counts, stats in runs:
        cycles += run_cycles
        skipped += run_skipped
        for reason, count in veto_counts.items():
            vetoes[reason] = vetoes.get(reason, 0) + count
        for name, value in stats.as_dict().items():
            sums[name] = sums.get(name, 0.0) + float(value)
    l1d = _stat(sums, "l1d.hits") + _stat(sums, "l1d.misses")
    fetched = _stat(sums, "fetch.insts")
    metrics = {
        "sim.skip_frac": skipped / cycles if cycles else 0.0,
        "sim.dense_steps": (cycles - skipped) / passes,
        "pipeline.useful_frac": (_stat(sums, "commit.insts") / fetched
                                 if fetched else 0.0),
        "memory.l1d_hit_frac": (_stat(sums, "l1d.hits") / l1d
                                if l1d else 0.0),
        "memory.l2_misses": _stat(sums, "l2.misses") / passes,
        "memory.mshr_allocs": sum(
            value for name, value in sums.items()
            if name.endswith(".mshr.allocs")) / passes,
        "memory.dram_accesses": _stat(sums, "dram.accesses") / passes,
        "defenses.dminion_misses": _stat(sums, "dminion.misses") / passes,
        "defenses.minion_wipes": (_stat(sums, "dminion.wipes")
                                  + _stat(sums, "iminion.wipes")) / passes,
        "defenses.squash_insts": _stat(sums, "squash.insts") / passes,
    }
    for reason, count in vetoes.items():
        metrics["sim.veto." + reason] = count / passes
    return metrics


def profile_metrics(stats: Dict, repro_root: str,
                    bench_root: str) -> Dict[str, float]:
    """Self-time shares and exact call counts from one cProfile pass.

    ``stats`` is ``pstats.Stats(profile).stats``.  Self time of
    functions outside ``repro`` (stdlib, builtins) is charged to the
    calling package: it flows up the caller edges in proportion to the
    time each edge carried until it reaches a ``repro`` (or benchmark)
    function.
    """
    def layer(func) -> Optional[str]:
        return layer_of_file(func[0], repro_root, bench_root)

    owned = {name: 0.0 for name in PROFILE_LAYERS}
    pending: Dict[tuple, float] = {}
    total = 0.0
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        total += tt
        owner = layer(func)
        if owner is not None:
            owned[owner] += tt
        elif tt > 0:
            pending[func] = pending.get(func, 0.0) + tt
    for _ in range(200):
        if not pending:
            break
        carried: Dict[tuple, float] = {}
        for func, mass in pending.items():
            callers = stats[func][4] if func in stats else {}
            weights = {caller: edge[2] for caller, edge in callers.items()}
            weight = sum(weights.values())
            if weight <= 0:
                weights = {caller: edge[1]
                           for caller, edge in callers.items()}
                weight = sum(weights.values())
            if weight <= 0:
                owned["other"] += mass
                continue
            for caller, share in weights.items():
                part = mass * share / weight
                owner = layer(caller)
                if owner is not None:
                    owned[owner] += part
                else:
                    carried[caller] = carried.get(caller, 0.0) + part
        pending = carried
    owned["other"] += sum(pending.values())

    def frac(*names: str) -> float:
        return sum(owned[name] for name in names) / total if total else 0.0

    metrics = {
        "workloads.self_frac": frac("workloads"),
        "sim.self_frac": frac("sim"),
        "pipeline.self_frac": frac("pipeline.hotcore", "pipeline.core",
                                   "pipeline.other"),
        "pipeline.hotcore.self_frac": frac("pipeline.hotcore"),
        "pipeline.core.self_frac": frac("pipeline.core"),
        "memory.self_frac": frac("memory"),
        "defenses.self_frac": frac("defenses"),
        "exp.self_frac": frac("exp"),
        "store.self_frac": frac("store"),
        "analysis.self_frac": frac("analysis"),
        "other.self_frac": frac("other"),
    }
    step = operands = sorts = 0
    for func, (_cc, nc, _tt, _ct, callers) in stats.items():
        if layer(func) == "pipeline.hotcore":
            if func[2] == "step":
                step += nc
            elif func[2] == "operands_ready":
                operands += nc
        elif func[2] in ("<method 'sort' of 'list' objects>",
                         "<built-in method builtins.sorted>"):
            sorts += sum(edge[1] for caller, edge in callers.items()
                         if layer(caller) == "pipeline.hotcore")
    metrics["pipeline.step_calls"] = step
    metrics["pipeline.operands_ready_calls"] = operands
    metrics["pipeline.sort_calls"] = sorts
    return metrics
