"""Perf smoke bench: scheduler work-count pins.

Four comparisons, all written to ``BENCH_perf.json``, one section
each (``perf_smoke``, ``issue_stall_skip``, ``stt_future``,
``invisispec_future``):

1. the event-driven scheduler vs the dense reference loop on one
   memory-bound sweep point (the fig. 6 ``mcf`` pointer chase, whose
   run is dominated by DRAM-latency stall cycles), checked
   byte-identical;
2. the same comparison on an MSHR-starved ``mcf`` point under a
   prefetcher-training hierarchy (MuonTrap) — the configuration the
   issue-side stall skips (STT taint, LSQ store-address waits,
   MSHR-backpressure retries; docs/performance.md) were built for;
3. the same comparison on the fig. 6 ``mcf`` point under STT-Future,
   the one section whose issue path runs the taint checks (the two
   above track no taint);
4. the same comparison on the fig. 6 ``mcf`` point under
   InvisiSpec-Future, the one section that runs the validation path
   (the visibility queue, and the ``validation-wait`` skips of a ROB
   head waiting on its validation).

The four scheduler comparisons are the repo's perf gate, and they gate
only on what is deterministic.  Each scheduler runs once; the dense
run is the byte-identity check.  The event path's ``PINNED_FIELDS``
must equal the section committed in ``BENCH_perf.json``: cycles,
instructions, ``skipped_cycles``, ``skipped_by_class`` and
``veto_counts`` (dense-stepped cycles by veto reason; dense steps are
pinned as ``cycles - skipped_cycles``); the issue stage's
``issue_evals`` (full issue attempts) and ``issue_replays`` (parked
attempts replayed; docs/performance.md, "Parked issue attempts");
``gc_collections``, the cyclic-collector passes started inside either
scheduler's ``run`` call, pinned at 0 because ``Simulator.run`` pauses
the collector (docs/performance.md, "Cyclic collector"); and ``stats``,
the ``STATS_PINNED`` counters, which move when a change moves FU,
memory or squash work.  A change that loses the parking or adds a
memory access shows up as a count drift, not as a timing.  The
IQ-sort count (``pipeline.sort_calls``) exists only under cProfile, so
it stays with simbench.  No time is gated here: wall-clock speed is
simbench's job.

A committed section that is missing, unreadable or recorded for
another point fails the test: the gate never goes quiet.

Run directly (CI runs every test here as a gating step):

    PYTHONPATH=src python -m pytest -q benchmarks/bench_perf_smoke.py

Knob: ``REPRO_BENCH_PERF_OUT`` (output path, default ``BENCH_perf.json``
in the repo root).  A run reads the committed section first and then
writes its payload, pass or fail, so after a change that moves the
counts on purpose, the failing run has already recorded the new pins:
review and commit the ``BENCH_perf.json`` diff.
"""

import gc
import json
import os

from repro.config import default_config
from repro.defenses import registry
from repro.sim.simulator import Simulator
from repro.workloads.spec import get_workload

PERF_SCALE = 0.25
DEFAULT_OUT = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir,
    "BENCH_perf.json"))
OUT_PATH = os.environ.get("REPRO_BENCH_PERF_OUT", DEFAULT_OUT)
#: What names a scheduler point: a committed section recorded for
#: another point pins nothing and fails the test.
IDENTITY_FIELDS = ("workload", "defense", "scale", "mshrs")
#: Event-path counts that are deterministic for a deterministic
#: simulation, pinned exactly against the committed section.
PINNED_FIELDS = ("cycles", "insts", "skipped_cycles", "skipped_by_class",
                 "veto_counts", "issue_evals", "issue_replays",
                 "gc_collections", "stats")
#: The event path's ``stats`` pin: FU grants per class, memory-side
#: work and squashed ops.
STATS_PINNED = ("fu.int.issued", "fu.fp.issued", "fu.muldiv.issued",
                "l2.misses", "l1d.mshr.allocs", "l1i.mshr.allocs",
                "l2.mshr.allocs", "squash.insts", "dram.accesses")

WORKLOAD = "mcf"
DEFENSE = "GhostMinion"


def _run(programs, dense, defense, cfg=None):
    """One scheduler's RunResult and the cyclic-collector passes
    started inside its ``run`` call."""
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    sim = Simulator(list(programs), registry[defense](),
                    cfg=None if cfg is None else cfg.copy())
    gc.callbacks.append(count)
    try:
        result = sim.run(dense=dense)
    finally:
        # Unhook before anything else allocates: the first allocation
        # after ``run`` may start the pass it deferred.
        gc.callbacks.remove(count)
    return result, len(passes)


def _update_payload(section, payload):
    """Merge one bench section into the output file (tests in this
    file can run in any subset/order)."""
    merged = {}
    try:
        with open(OUT_PATH, "r", encoding="utf-8") as handle:
            merged = json.load(handle)
    except (OSError, ValueError):
        pass
    if not isinstance(merged, dict):
        merged = {}
    merged[section] = payload
    with open(OUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _committed_section(section, payload):
    """The committed ``BENCH_perf.json`` section ``section``; fails when
    it is missing, unreadable or recorded for another point."""
    hint = ("; the current payload is in %s: review it and commit it "
            "as the %r section of %s" % (OUT_PATH, section, DEFAULT_OUT))
    try:
        with open(DEFAULT_OUT, "r", encoding="utf-8") as handle:
            committed = json.load(handle).get(section)
    except (OSError, ValueError, AttributeError) as exc:
        raise AssertionError("cannot read the committed %s (%s)%s"
                             % (DEFAULT_OUT, exc, hint)) from None
    assert isinstance(committed, dict), (
        "no committed %r section%s" % (section, hint))
    other = {key: (committed.get(key), payload.get(key))
             for key in IDENTITY_FIELDS
             if committed.get(key) != payload.get(key)}
    assert not other, ("the committed %r section was recorded for "
                       "another point (committed, current): %s%s"
                       % (section, other, hint))
    return committed


def _scheduler_smoke(section, defense, cfg=None, extra_payload=None):
    """One dense-vs-event scheduler comparison: assert byte-identity,
    merge a payload section into the output file and pin the event
    path's ``PINNED_FIELDS`` against the committed section.  Returns
    the event-scheduler RunResult."""
    programs = get_workload(WORKLOAD).build(PERF_SCALE)
    dense_res, dense_passes = _run(programs, True, defense, cfg)
    event_res, event_passes = _run(programs, False, defense, cfg)

    assert dense_res.cycles == event_res.cycles
    assert dense_res.stats.as_dict() == event_res.stats.as_dict()
    assert dense_res.arch_regs() == event_res.arch_regs()

    by_class = {cls: event_res.skipped_by_class[cls]
                for cls in sorted(event_res.skipped_by_class)}
    payload = {
        "bench": section,
        "workload": WORKLOAD,
        "defense": defense,
        "scale": PERF_SCALE,
        "cycles": event_res.cycles,
        "insts": event_res.insts,
        "skipped_cycles": event_res.skipped_cycles,
        "skipped_by_class": by_class,
        "veto_counts": {reason: event_res.veto_counts[reason]
                        for reason in sorted(event_res.veto_counts)},
        "issue_evals": sum(core.issue_evals for core in event_res.cores),
        "issue_replays": sum(core.issue_replays
                             for core in event_res.cores),
        "gc_collections": dense_passes + event_passes,
        "stats": {name: int(event_res.stats.get(name))
                  for name in STATS_PINNED},
    }
    payload.update(extra_payload or {})
    # Read the committed section before writing: by default the output
    # file is the committed one.  The payload is written either way, so
    # a failing run leaves it for review.
    try:
        committed = _committed_section(section, payload)
    finally:
        _update_payload(section, payload)
        print()
        print("%s: %s/%s scale=%s: %d/%d cycles skipped -> %s"
              % (section, WORKLOAD, defense, PERF_SCALE,
                 event_res.skipped_cycles, event_res.cycles, OUT_PATH))
        print("skipped by class: %s" % by_class)
    drift = {field: (committed.get(field), payload[field])
             for field in PINNED_FIELDS
             if committed.get(field) != payload[field]}
    assert not drift, (
        "%s: event-path counts differ from the committed %s "
        "(pinned, current): %s; the current counts are in %s, "
        "commit them if the change is intended"
        % (section, DEFAULT_OUT, drift, OUT_PATH))
    return event_res


def test_perf_smoke():
    _scheduler_smoke("perf_smoke", DEFENSE)


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
        "issue_stall_skip", "MuonTrap", cfg,
        extra_payload={"mshrs": {"l1d": cfg.l1d.mshrs,
                                 "l1i": cfg.l1i.mshrs,
                                 "l2": cfg.l2.mshrs}})
    # Non-vacuous: the new stall class must carry real weight here.
    assert event_res.skipped_by_class.get("mshr-backpressure", 0) > 0


def test_perf_smoke_stt():
    """The STT issue path: the fig. 6 ``mcf`` pointer chase under
    STT-Future, whose dependent loads wait on tainted addresses until
    their source loads commit.  Pins the work of the taint checks in
    issue and in the stall proof."""
    event_res = _scheduler_smoke("stt_future", "STT-Future")
    # Non-vacuous: taint blocking must carry real weight here.
    assert event_res.skipped_by_class.get("stt-taint", 0) > 0
    assert event_res.stats.get("stt.load_blocked_cycles") > 0


def test_perf_smoke_invisispec():
    """The InvisiSpec validation path: the fig. 6 ``mcf`` pointer chase
    under InvisiSpec-Future, whose invisible loads validate at their
    visibility point and hold commit until the validation returns.
    Pins the work of the visibility queue and of the stall proof's
    ``validation-wait`` decisions (its pinned ``veto_counts`` hold no
    ``validation-start``: between steps no queued load lies below its
    visibility point, so the stall proof no longer checks for one)."""
    event_res = _scheduler_smoke("invisispec_future", "InvisiSpec-Future")
    # Non-vacuous: validations must run and hold commit here.
    assert event_res.stats.get("ivs.validations") > 0
    assert event_res.skipped_by_class.get("validation-wait", 0) > 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    test_perf_smoke()
    test_perf_smoke_issue_stalls()
    test_perf_smoke_stt()
    test_perf_smoke_invisispec()
