"""The observability layer: tracer, metrics, sinks, run log.

Parity between traced and untraced simulation lives in
tests/test_scheduler_equivalence.py; this file covers the obs
machinery itself — event folding, sampling (including skip-window
jumps), the sink exports, the run-log schema, a traced point through
the engine and its result cache, and the obs-guards lint scan.
"""

import ast
import io
import json
import os

import pytest

from repro.defenses import registry
from repro.obs import (
    ObsConfig,
    RUNLOG_SCHEMA_VERSION,
    MetricsSampler,
    RunLog,
    Tracer,
    build_inst_records,
    build_tracer,
)
from repro.obs.sinks import SINKS, export_traces, sink_paths
from repro.obs.trace import TraceEvent
from repro.sim.simulator import Simulator
from repro.workloads.spec import get_workload


def traced_run(workload="mcf", scale=0.04, defense="GhostMinion",
               interval=500):
    programs = get_workload(workload).build(scale)
    sim = Simulator(programs, registry[defense]())
    tracer = build_tracer(ObsConfig(metrics_interval=interval))
    sim.attach_obs(tracer)
    result = sim.run()
    return result, sim, tracer


@pytest.fixture(scope="module")
def traced():
    return traced_run()


# -- zero-cost default -----------------------------------------------------

def test_obs_defaults_to_none_everywhere():
    programs = get_workload("mcf").build(0.04)
    sim = Simulator(programs, registry["GhostMinion"]())
    assert sim._obs is None
    for core in sim.cores:
        assert core._obs is None
        for port in (core.hierarchy.dport, core.hierarchy.iport):
            assert port.cache._obs is None
            assert port.mshrs._obs is None
    assert sim.shared.l2._obs is None
    assert sim.shared.l2_mshrs._obs is None


def test_attach_detach_roundtrip():
    programs = get_workload("mcf").build(0.04)
    sim = Simulator(programs, registry["GhostMinion"]())
    tracer = Tracer()
    sim.attach_obs(tracer)
    assert sim.cores[0]._obs is tracer
    assert sim.detach_obs() is tracer
    assert sim._obs is None and sim.cores[0]._obs is None


# -- tracer and event folding ----------------------------------------------

def test_tracer_emits_all_kinds(traced):
    _, _, tracer = traced
    by_kind = tracer.summary()["by_kind"]
    for kind in ("stage", "mem", "skip", "marker"):
        assert by_kind.get(kind, 0) > 0, kind
    assert tracer.dropped == 0


def test_tracer_limit_drops_and_counts():
    tracer = Tracer(limit=3)
    for cycle in range(10):
        tracer.emit_squash(0, cycle, cycle)
    assert len(tracer.events) == 3
    assert tracer.dropped == 7
    assert tracer.summary()["by_kind"]["squash"] == 10


def test_build_inst_records_folds_lifetimes(traced):
    _, _, tracer = traced
    records = build_inst_records(tracer.events)
    assert records
    committed = [r for r in records.values()
                 if r.commit is not None and not r.squashed]
    assert committed
    for record in committed:
        assert record.fetch <= record.commit
    # Squashed instructions never commit.
    for record in records.values():
        if record.squashed:
            assert record.commit is None


def test_run_markers_bracket_the_run(traced):
    _, _, tracer = traced
    markers = [e for e in tracer.events if e.kind == "marker"]
    assert markers[0].name == "run-begin"
    assert markers[-1].name == "run-end"
    assert markers[-1].args["finished"] is True


# -- metrics sampling ------------------------------------------------------

def test_metrics_sampler_interval():
    sampler = MetricsSampler(interval=100)
    sampler.bind([("x", lambda cycle: float(cycle))])
    for cycle in range(0, 350):
        sampler.on_cycle(cycle)
    cycles = [row[0] for row in sampler.samples]
    assert cycles == [0, 100, 200, 300]
    series = sampler.series()
    assert series["columns"] == ["cycle", "x"]
    assert series["interval"] == 100


def test_metrics_sampler_collapses_skip_jumps():
    """A skipped window lands one sample at the jump target, not one
    per elided interval boundary."""
    sampler = MetricsSampler(interval=100)
    sampler.bind([("x", lambda cycle: 1.0)])
    sampler.on_cycle(0)
    sampler.on_cycle(950)   # the scheduler jumped over 9 boundaries
    sampler.on_cycle(1000)
    cycles = [row[0] for row in sampler.samples]
    assert cycles == [0, 950, 1000]


def test_simulator_samples_default_probes(traced):
    result, _, tracer = traced
    series = tracer.sampler.series()
    assert "ipc" in series["columns"]
    assert "skip_fraction" in series["columns"]
    assert series["samples"], "no metrics sampled"
    last = dict(zip(series["columns"], series["samples"][-1]))
    assert last["cycle"] <= result.cycles
    assert 0.0 <= last["skip_fraction"] <= 1.0


def test_attach_keeps_custom_probes():
    programs = get_workload("mcf").build(0.04)
    tracer = build_tracer(ObsConfig(metrics_interval=100))
    probes = [("one", lambda cycle: 1.0)]
    tracer.sampler.bind(probes)
    for _ in range(2):
        Simulator(programs, registry["Unsafe"]()).attach_obs(tracer)
        assert tracer.sampler.names == ["one"]
        assert tracer.sampler._probes == [probes[0][1]]


# -- sinks -----------------------------------------------------------------

def test_sink_registry_resolves():
    from repro.registry import component_registry
    reg = component_registry("sink")
    assert reg is SINKS
    assert set(reg.names()) >= {"perfetto", "jsonl", "timeline"}


def test_sink_paths_naming():
    pairs = sink_paths(("perfetto", "jsonl", "timeline"), "/tmp/t.json")
    assert pairs == [("perfetto", "/tmp/t.json"),
                     ("jsonl", "/tmp/t.jsonl"),
                     ("timeline", "/tmp/t.timeline.json")]
    # A collision falls back to inserting the sink name.
    pairs = sink_paths(("jsonl", "jsonl(metrics=False)"), "/tmp/t.jsonl")
    assert pairs[1][1] == "/tmp/t.jsonl.jsonl"


def test_perfetto_export_is_loadable_chrome_json(tmp_path, traced):
    _, _, tracer = traced
    out = str(tmp_path / "trace.json")
    written = export_traces(tracer, ("perfetto",), out,
                            meta={"workload": "mcf"})
    assert written == [out]
    doc = json.load(open(out))
    assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
    assert doc["displayTimeUnit"] == "ns"
    assert doc["otherData"]["workload"] == "mcf"
    phases = {event["ph"] for event in doc["traceEvents"]}
    assert {"M", "X", "i", "C"} <= phases
    for event in doc["traceEvents"]:
        assert "ph" in event
        if event["ph"] != "M":
            assert "ts" in event
        if event["ph"] == "X":
            assert event["dur"] >= 1


def test_jsonl_export_roundtrip(tmp_path, traced):
    _, _, tracer = traced
    out = str(tmp_path / "trace.jsonl")
    export_traces(tracer, ("jsonl",), out)
    records = [json.loads(line) for line in open(out)]
    assert records[0]["record"] == "header"
    assert records[0]["v"] == 1
    kinds = {}
    for record in records[1:]:
        kinds[record["record"]] = kinds.get(record["record"], 0) + 1
    assert kinds["event"] == len(tracer.events)
    assert kinds["metric"] == len(tracer.sampler.samples)


def test_timeline_export_sorted_by_seq(tmp_path, traced):
    _, _, tracer = traced
    out = str(tmp_path / "t.timeline.json")
    export_traces(tracer, ("timeline",), out)
    doc = json.load(open(out))
    seqs = [record["seq"] for record in doc["records"]]
    assert seqs == sorted(seqs)
    assert doc["v"] == 1


# -- run log ---------------------------------------------------------------

def test_runlog_records_are_schema_versioned_jsonl():
    stream = io.StringIO()
    log = RunLog(stream)
    payload = log.emit("engine-summary", {"points": 3})
    assert payload["v"] == RUNLOG_SCHEMA_VERSION
    lines = stream.getvalue().splitlines()
    assert len(lines) == 1
    parsed = json.loads(lines[0])
    assert parsed == {"v": 1, "event": "engine-summary", "points": 3}
    assert log.records == 1


# -- engine + cache integration --------------------------------------------

def test_engine_traced_point_exports_and_stores(tmp_path):
    from repro.exp.engine import run_sweep
    from repro.exp.spec import Sweep

    out = str(tmp_path / "trace.json")
    cache = str(tmp_path / "cache")
    sweep = Sweep(workloads=["mcf"], defenses=["GhostMinion"],
                  scale=0.04)
    obs = ObsConfig(sinks=("perfetto",), out=out, metrics_interval=500)
    report = run_sweep(sweep, cache=cache, obs=obs)
    point = next(iter(report.results))
    assert point.trace_paths == [out]
    assert os.path.exists(out)
    assert point.metrics is not None
    # The canonical payload is untouched by tracing: an untraced rerun
    # digest-hits the traced record.
    rerun = run_sweep(sweep, cache=cache)
    repoint = next(iter(rerun.results))
    assert repoint.cached
    assert repoint.cycles == point.cycles
    assert repoint.stats == point.stats
    # The runlog surfaces the export.
    events = [record["event"] for record in report.runlog_records()]
    assert "engine-summary" in events and "trace-export" in events


def test_engine_multi_point_traces_get_distinct_paths(tmp_path):
    from repro.exp.engine import run_sweep
    from repro.exp.spec import Sweep

    out = str(tmp_path / "trace.json")
    sweep = Sweep(workloads=["mcf"], defenses=["Unsafe", "GhostMinion"],
                  scale=0.04)
    report = run_sweep(sweep, cache=None,
                       obs=ObsConfig(sinks=("perfetto",), out=out))
    paths = report.trace_paths()
    assert len(paths) == len(set(paths)) == 2
    for path in paths:
        assert os.path.exists(path)
        assert path.endswith(".json")


# -- obs-guards lint scan --------------------------------------------------

def _scan(source):
    from repro.lintkit.obs_guards import _GuardScan
    scan = _GuardScan()
    scan.visit(ast.parse(source))
    return scan.unguarded


def test_guard_scan_flags_unguarded_emit():
    assert _scan("def f(self):\n"
                 "    self._obs.emit_stage(0, 1, 2, 'op', 'fetch', 3)\n")


def test_guard_scan_accepts_guarded_and_aliased_emits():
    assert not _scan(
        "def f(self):\n"
        "    if self._obs is not None:\n"
        "        self._obs.emit_squash(0, 1, 2)\n"
        "def g(self):\n"
        "    obs = self._obs\n"
        "    if obs is not None:\n"
        "        obs.on_cycle(7)\n")


def test_guard_scan_else_branch_is_not_guarded():
    assert _scan("def f(self):\n"
                 "    if self._obs is None:\n"
                 "        pass\n"
                 "    else:\n"
                 "        pass\n"
                 "    self._obs.emit_marker('m', 0)\n")


def test_obs_guards_checker_is_clean_on_this_tree():
    from repro.lintkit import obs_guards
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir)
    assert obs_guards.check(root) == []

