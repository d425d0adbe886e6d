"""Perf smoke bench: scheduler skip counts + checkpoint warm-start speedup.

Three timed comparisons, all written to ``BENCH_perf.json`` (the repo's
perf trajectory, compared across PRs):

1. the event-driven scheduler vs the dense reference loop on one
   memory-bound sweep point (the fig. 6 ``mcf`` pointer chase, whose
   wall-clock is dominated by DRAM-latency stall cycles), checked
   byte-identical;
2. the same comparison on an MSHR-starved ``mcf`` point under a
   prefetcher-training hierarchy (MuonTrap) — the configuration the
   issue-side stall skips (STT taint, LSQ store-address waits,
   MSHR-backpressure retries; docs/performance.md) were built for:
   before them, backpressure retry cycles vetoed the skip and the
   speedup here sat near 1.5x;
3. a checkpointed warm-start of one ``mcf`` point (restore a stored
   warm-up snapshot, simulate only the tail) vs simulating it cold,
   checked byte-identical.

The two scheduler comparisons gate on what is deterministic: the
event path's cycles, instructions, ``skipped_cycles``,
``skipped_by_class`` and ``veto_counts`` (dense-stepped cycles by veto
reason) must equal the section recorded in the committed
``BENCH_perf.json`` (when it was recorded at the same workload, defense
and scale).  Both points also pin the issue stage's work counts,
``issue_evals`` (full issue attempts), ``issue_replays`` (parked
attempts replayed; docs/performance.md, "Parked issue attempts") and
``fu_issued`` (ops granted an FU port, per class), so a change that
loses the parking or moves issue work shows up as a count drift, not
as a timing; and ``gc_collections``, the cyclic-collector passes that
start inside the timed ``run`` calls (every round, both schedulers),
pinned at 0 because ``Simulator.run`` pauses the collector
(docs/performance.md, "Cyclic collector").  Their wall times and
the dense/event ratio are reported, not gated: a ratio of two moving
numbers cannot tell "the scheduler got worse" from "the dense loop got
faster".

Run directly (CI runs the scheduler tests as a gating step and the
warm-start test as a non-gating one):

    PYTHONPATH=src python -m pytest -q benchmarks/bench_perf_smoke.py

Knobs: ``REPRO_BENCH_PERF_SCALE`` (workload scale, default 0.25),
``REPRO_BENCH_PERF_OUT`` (output path, default ``BENCH_perf.json`` in
the repo root).  A run always writes its payload, so after a change
that moves the skip counts on purpose, the failing run has already
recorded the new pins: review and commit the ``BENCH_perf.json`` diff.
"""

import gc
import json
import os
import tempfile
import time

from repro.config import default_config
from repro.defenses import registry
from repro.pipeline.functional_units import FUPool
from repro.sim.simulator import Simulator
from repro.workloads.spec import get_workload

PERF_SCALE = float(os.environ.get("REPRO_BENCH_PERF_SCALE", "0.25"))
DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "BENCH_perf.json")
OUT_PATH = os.environ.get("REPRO_BENCH_PERF_OUT", DEFAULT_OUT)
#: Event-path fields that are deterministic for a deterministic
#: simulation, pinned exactly against the committed baseline.
PINNED_FIELDS = ("cycles", "insts", "skipped_cycles", "skipped_by_class",
                 "veto_counts")
#: The issue stage's work counts: full attempts and parked replays
#: (plain integers on each core, summed) and the ``fu.<class>.issued``
#: counters; and the cyclic-collector passes started inside the timed
#: ``run`` calls of both schedulers (0: ``Simulator.run`` pauses the
#: collector).
WORK_FIELDS = ("issue_evals", "issue_replays", "fu_issued",
               "gc_collections")

WORKLOAD = "mcf"
DEFENSE = "GhostMinion"
ROUNDS = 3


def _time_run(programs, dense, defense=None, cfg=None):
    """Best-of-ROUNDS wall-clock for one scheduler; returns (seconds,
    RunResult of the last round, cyclic-collector passes started
    inside the timed ``run`` calls)."""
    defense = DEFENSE if defense is None else defense
    best = float("inf")
    result = None
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    for _ in range(ROUNDS):
        sim = Simulator(list(programs), registry[defense](),
                        cfg=None if cfg is None else cfg.copy())
        gc.callbacks.append(count)
        started = time.perf_counter()
        try:
            result = sim.run(dense=dense)
        finally:
            # Unhook before anything else allocates: the first
            # allocation after ``run`` may start the pass it deferred.
            elapsed = time.perf_counter() - started
            gc.callbacks.remove(count)
        best = min(best, elapsed)
    return best, result, len(passes)


def _pinned_section(section, payload):
    """The committed baseline's section ``section`` (None: the legacy
    top-level scheduler payload), if it was recorded for the same
    point as ``payload``; None otherwise."""
    try:
        with open(DEFAULT_OUT, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (OSError, ValueError):
        return None
    if section is not None:
        baseline = baseline.get(section)
    if not isinstance(baseline, dict):
        return None
    for key in ("workload", "defense", "scale"):
        if baseline.get(key) != payload[key]:
            return None
    return baseline


def _update_payload(section, payload):
    """Merge one bench section into BENCH_perf.json (tests in this file
    can run in any subset/order)."""
    merged = {}
    try:
        with open(OUT_PATH, "r", encoding="utf-8") as handle:
            merged = json.load(handle)
    except (OSError, ValueError):
        pass
    if not isinstance(merged, dict):
        merged = {}
    # Legacy layout: the scheduler numbers lived at top level; keep
    # them there so trajectory diffs stay comparable, and nest new
    # sections under their own key.
    if section is None:
        merged.update(payload)
    else:
        merged[section] = payload
    with open(OUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _scheduler_smoke(section, label, defense, cfg=None,
                     extra_payload=None,
                     pinned_fields=PINNED_FIELDS + WORK_FIELDS):
    """One dense-vs-event scheduler comparison: assert byte-identity,
    pin the event path's ``pinned_fields`` against the committed
    baseline, merge a payload section into BENCH_perf.json and report
    the speedup.  Returns the event-scheduler RunResult."""
    programs = get_workload(WORKLOAD).build(PERF_SCALE)
    dense_s, dense_res, dense_passes = _time_run(programs, True, defense,
                                                 cfg)
    event_s, event_res, event_passes = _time_run(programs, False, defense,
                                                 cfg)

    # The speedup claim is only meaningful if both schedulers agree.
    assert dense_res.cycles == event_res.cycles
    assert dense_res.stats.as_dict() == event_res.stats.as_dict()
    assert dense_res.arch_regs() == event_res.arch_regs()

    speedup = dense_s / event_s if event_s > 0 else float("inf")
    by_class = {cls: event_res.skipped_by_class[cls]
                for cls in sorted(event_res.skipped_by_class)}
    payload = {
        "bench": section if section is not None else "perf_smoke",
        "workload": WORKLOAD,
        "defense": defense,
        "scale": PERF_SCALE,
        "cycles": event_res.cycles,
        "insts": event_res.insts,
        "skipped_cycles": event_res.skipped_cycles,
        "skipped_fraction": round(
            event_res.skipped_cycles / max(1, event_res.cycles), 4),
        "skipped_by_class": by_class,
        "veto_counts": {reason: event_res.veto_counts[reason]
                        for reason in sorted(event_res.veto_counts)},
        "issue_evals": sum(core.issue_evals for core in event_res.cores),
        "issue_replays": sum(core.issue_replays
                             for core in event_res.cores),
        "fu_issued": {cls: int(event_res.stats.get("fu.%s.issued" % cls))
                      for cls in FUPool.CLASSES},
        "gc_collections": dense_passes + event_passes,
        "dense_seconds": round(dense_s, 6),
        "event_seconds": round(event_s, 6),
        "speedup": round(speedup, 3),
        "rounds": ROUNDS,
    }
    payload.update(extra_payload or {})
    pinned = _pinned_section(section, payload)
    _update_payload(section, payload)
    print()
    print("%s: %s/%s scale=%s: dense %.3fs, event %.3fs "
          "(%.2fx, %d/%d cycles skipped) -> %s"
          % (label, WORKLOAD, defense, PERF_SCALE, dense_s, event_s,
             speedup, event_res.skipped_cycles, event_res.cycles,
             OUT_PATH))
    print("skipped by class: %s" % by_class)
    if pinned is not None:
        drift = {field: (pinned.get(field), payload[field])
                 for field in pinned_fields
                 if pinned.get(field) != payload[field]}
        assert not drift, (
            "%s: event-path counts differ from the committed %s "
            "(pinned, current): %s; the current counts are in %s, "
            "commit them if the change is intended"
            % (label, DEFAULT_OUT, drift, OUT_PATH))
    return event_res


def test_perf_smoke():
    _scheduler_smoke(None, "perf smoke", DEFENSE)


def test_perf_smoke_issue_stalls():
    """Scheduler skipping where issue-side stalls dominate: an
    MSHR-starved ``mcf`` under MuonTrap, whose speculatively trained
    prefetcher makes every backpressure retry cycle side-effectful.
    Skippable only since the issue-side stall classes (STT taint, LSQ
    store-address waits, MSHR-backpressure retries) learned to prove
    and bulk-apply those effects."""
    programs = get_workload(WORKLOAD).build(PERF_SCALE)
    cfg = default_config(cores=len(programs))
    cfg.l1d.mshrs = 2
    cfg.l1i.mshrs = 2
    cfg.l2.mshrs = 4
    event_res = _scheduler_smoke(
        "issue_stall_skip", "issue-stall smoke", "MuonTrap", cfg,
        extra_payload={"mshrs": {"l1d": cfg.l1d.mshrs,
                                 "l1i": cfg.l1i.mshrs,
                                 "l2": cfg.l2.mshrs}})
    # Non-vacuous: the new stall class must carry real weight here.
    assert event_res.skipped_by_class.get("mshr-backpressure", 0) > 0


def test_warm_start_smoke():
    """Checkpointed warm-start vs cold simulation of the same point.

    A two-point sweep sharing a 90% warm-up prefix: the lead point
    simulates the prefix once and snapshots it, the measured point
    restores the snapshot and only simulates its tail — byte-identical
    to the cold run, gated >= 3x faster (it skips ~90% of the work)."""
    from repro.exp import ConfigVariant, SweepPoint, run_points
    from repro.exp.spec import resolve_defense, resolve_workload
    from repro.exp.checkpoints import CheckpointDB

    workload = resolve_workload(WORKLOAD)

    def point(label, max_insts, warmup=None):
        return SweepPoint(workload=workload,
                          defense=resolve_defense(DEFENSE),
                          variant=ConfigVariant.make(label, {}),
                          scale=PERF_SCALE, max_insts=max_insts,
                          warmup_insts=warmup)

    # Size the horizon from the workload itself so scale knobs cannot
    # push the warm-up boundary past the program's end.
    probe = run_points([point("probe", None)], cache=False)
    total = next(iter(probe.results)).insts
    horizon = int(total * 0.95)
    warmup = int(horizon * 0.9)
    lead = point("lead", warmup + max(1, (horizon - warmup) // 10),
                 warmup)
    measured = point("measured", horizon, warmup)

    cold_s = float("inf")
    cold = None
    for _ in range(ROUNDS):
        started = time.perf_counter()
        cold = run_points([point("measured", horizon)], cache=False)
        cold_s = min(cold_s, time.perf_counter() - started)
    cold_res = next(iter(cold.results))

    with tempfile.TemporaryDirectory() as tmp:
        ck = os.path.join(tmp, "ck.sqlite")
        seed = run_points([lead, measured], cache=False,
                          checkpoints=ck)
        seeded = {r.key: r for r in seed.results}
        assert seeded[lead.key].warm_insts == 0
        assert seeded[measured.key].warm_insts >= warmup
        warm_s = float("inf")
        warm = None
        for _ in range(ROUNDS):
            started = time.perf_counter()
            warm = run_points([measured], cache=False, checkpoints=ck)
            warm_s = min(warm_s, time.perf_counter() - started)
        stored = CheckpointDB(ck).stats()
    warm_res = next(iter(warm.results))

    # The speedup claim is only meaningful if warm == cold exactly.
    assert warm_res.cycles == cold_res.cycles
    assert warm_res.insts == cold_res.insts
    assert warm_res.stats == cold_res.stats
    assert warm.warm_insts() >= warmup

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    _update_payload("warm_start", {
        "bench": "warm_start",
        "workload": WORKLOAD,
        "defense": DEFENSE,
        "scale": PERF_SCALE,
        "total_insts": total,
        "horizon_insts": horizon,
        "warmup_insts": warmup,
        "checkpoints": stored["checkpoints"],
        "checkpoint_bytes": stored["checkpoint_bytes"],
        "cold_seconds": round(cold_s, 6),
        "warm_seconds": round(warm_s, 6),
        "speedup": round(speedup, 3),
        "rounds": ROUNDS,
    })
    print()
    print("warm start: %s/%s scale=%s warmup=%d/%d: cold %.3fs, warm "
          "%.3fs (%.1fx) -> %s"
          % (WORKLOAD, DEFENSE, PERF_SCALE, warmup, horizon, cold_s,
             warm_s, speedup, OUT_PATH))

    # Acceptance bar: restoring a 90% prefix must comfortably beat
    # re-simulating it.
    assert speedup >= 3.0, (
        "warm start only %.2fx faster than cold simulation" % speedup)


if __name__ == "__main__":  # pragma: no cover - manual invocation
    test_perf_smoke()
    test_perf_smoke_issue_stalls()
    test_warm_start_smoke()
