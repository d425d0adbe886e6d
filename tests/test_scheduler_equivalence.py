"""Event-driven scheduler ≡ dense per-cycle loop, differentially.

The event-driven scheduler (`Simulator.run(dense=False)`, the default)
must be *observably pure* relative to the dense reference loop
(``REPRO_DENSE_LOOP=1`` / ``dense=True``): identical cycle counts, a
byte-identical stats dict (including per-cycle stall counters, which the
scheduler applies in bulk for skipped windows), and identical
architectural registers — for every defense and workload shape.
"""

import hashlib
import json

import pytest

from repro.config import default_config
from repro.defenses import registry
from repro.defenses.ghostminion import ghostminion, ghostminion_breakdown
from repro.sim.simulator import Simulator, dense_loop_forced
from repro.workloads.spec import get_workload

#: Three workload shapes: a DRAM-bound pointer chase (the scheduler's
#: target, long skippable stalls), a cache-friendly stream (almost no
#: skipping), and a 4-thread run where the threads interfere through
#: the shared L2/DRAM/directory (cross-core wakeups must be exact).
WORKLOADS = [("mcf", 0.04), ("hmmer", 0.05), ("canneal", 0.03)]


def _run(workload, scale, defense, dense, cfg_fn=None):
    programs = get_workload(workload).build(scale)
    cfg = None
    if cfg_fn is not None:
        cfg = cfg_fn(default_config(cores=len(programs)))
    return Simulator(programs, defense, cfg=cfg).run(dense=dense)


def assert_equivalent(workload, scale, defense, cfg_fn=None):
    ref = _run(workload, scale, defense, dense=True, cfg_fn=cfg_fn)
    evt = _run(workload, scale, defense, dense=False, cfg_fn=cfg_fn)
    assert ref.cycles == evt.cycles
    assert ref.finished == evt.finished
    assert ref.stats.as_dict() == evt.stats.as_dict()
    assert len(ref.cores) == len(evt.cores)
    for core in range(len(ref.cores)):
        assert ref.arch_regs(core) == evt.arch_regs(core)
    assert ref.skipped_cycles == 0
    return evt


@pytest.mark.parametrize("defense_name", sorted(registry))
def test_every_defense_matches_dense_loop(defense_name):
    for workload, scale in WORKLOADS:
        assert_equivalent(workload, scale, registry[defense_name]())


@pytest.mark.parametrize("workload,scale,defense", [
    ("mcf", 0.04, ghostminion(early_commit=True)),
    ("mcf", 0.04, ghostminion(full_strictness=True)),
    ("mcf", 0.04, ghostminion(strict_fu_order=True)),
    ("mcf", 0.04, ghostminion_breakdown("DMinion-Timeless")),
    # mcf has no non-pipelined ops; blackscholes' FP divides and square
    # roots are what actually block under §4.9.
    ("blackscholes", 0.05, ghostminion(strict_fu_order=True)),
], ids=["early-commit", "full-strictness", "strict-fu-order", "timeless",
        "strict-fu-order-blackscholes"])
def test_ghostminion_variants_match_dense_loop(workload, scale, defense):
    # These variants exercise the scheduler's trickiest stall analysis:
    # early-commit promotions, epoch timestamps, and the per-cycle
    # strict-order FU blocking counters.
    assert_equivalent(workload, scale, defense)


def _starved_mshrs(cfg):
    """One L1 MSHR per port + two shared ones: every parallel-miss
    window hits backpressure, so retrying loads and ifetches dominate."""
    cfg.l1d.mshrs = 1
    cfg.l1i.mshrs = 1
    cfg.l2.mshrs = 2
    return cfg


#: Issue-side stall-class stress matrix: MSHR-starved configs on
#: workloads with parallel misses (stream/random_access), stores whose
#: addresses resolve late (canneal's 4-thread mix), and taint chains
#: (mcf under STT).  Every point must both match the dense loop
#: byte-for-byte *and* actually exercise the advertised skip class —
#: equivalence over a never-firing path would be vacuous.
ISSUE_STALL_POINTS = [
    ("stream", 0.04, "Unsafe", "mshr-backpressure"),
    ("stream", 0.04, "MuonTrap", "mshr-backpressure"),
    ("random_access", 0.04, "GhostMinion", "mshr-backpressure"),
    ("random_access", 0.04, "InvisiSpec-Future", "mshr-backpressure"),
    ("mcf", 0.04, "STT-Future", "stt-taint"),
    ("mcf", 0.04, "STT-Spectre", "stt-taint"),
    ("canneal", 0.03, "Unsafe", "lsq-store-addr"),
    ("canneal", 0.03, "GhostMinion", "lsq-store-addr"),
    ("canneal", 0.03, "STT-Future", "lsq-store-addr"),
    ("canneal", 0.03, "MuonTrap-Flush", "lsq-store-addr"),
    ("canneal", 0.03, "InvisiSpec-Spectre", "lsq-store-addr"),
    ("pointer_chase", 0.05, "GhostMinion", "mshr-backpressure"),
]


@pytest.mark.parametrize(
    "workload,scale,defense_name,skip_class", ISSUE_STALL_POINTS,
    ids=["%s-%s" % (w, d) for w, _s, d, _c in ISSUE_STALL_POINTS])
def test_issue_stall_skips_match_dense_loop(workload, scale,
                                            defense_name, skip_class):
    evt = assert_equivalent(workload, scale, registry[defense_name](),
                            cfg_fn=_starved_mshrs)
    assert evt.skipped_by_class.get(skip_class, 0) > 0, (
        "point never exercised the %r stall class" % skip_class)


def test_issue_select_points_pinned():
    """Absolute numbers for the two issue-select stress points, pinned
    at the last commit with the per-cycle sort-and-scan issue stage.
    The matrices above only compare the current code with itself; these
    pins tie the wakeup-driven issue select to the scan it replaced on
    §4.9 blocking and on load replays."""
    strict = _run("blackscholes", 0.05, ghostminion(strict_fu_order=True),
                  dense=False)
    assert strict.cycles == 3184
    assert strict.stats.get("fu.fp.strict_blocked") == 28644
    starved = _run("pointer_chase", 0.05, registry["GhostMinion"](),
                   dense=False, cfg_fn=_starved_mshrs)
    assert starved.cycles == 11477
    assert starved.stats.get("mem.load_replays") == 126


def _stats_sha256(result):
    payload = json.dumps(result.stats.as_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


#: (workload, scale, defense, cfg_fn, cycles, stats SHA-256), recorded
#: at the last commit that scanned every MSHR file on each query and
#: probed the i-cache once per fetched instruction.
MEMORY_WAKEUP_PINS = [
    # Epoch timestamps: the fetch timestamp stays flat across a group.
    ("mcf", 0.04, lambda: ghostminion(full_strictness=True), None, 6590,
     "6ec333d5c70b469b5ca38d67226110fe243d338b21001d225bee4a3ba3f41962"),
    # The L0 i-filter overrides _probe_present.
    ("mcf", 0.04, lambda: registry["MuonTrap"](), None, 5545,
     "2ea00bd47fcf67d92615b2c4c2e7e67899f7c52c3f646db03a3386941a0ee639"),
    # Leapfrogs and timeleaps at both MSHR levels.
    ("mcf", 0.04, lambda: registry["GhostMinion"](), _starved_mshrs, 9255,
     "43d5734670446045dbdf903ec7ad3fbebd3c1bae7c909429e541804561bebb6e"),
]


@pytest.mark.parametrize(
    "workload,scale,defense_fn,cfg_fn,cycles,digest", MEMORY_WAKEUP_PINS,
    ids=["full-strictness", "muontrap", "starved-ghostminion"])
def test_memory_wakeup_points_pinned(workload, scale, defense_fn, cfg_fn,
                                     cycles, digest):
    """Absolute numbers for the points the cached MSHR wakeups and the
    once-per-line fetch probe touch hardest.  The matrices above only
    compare the current code with itself; these tie it to the
    scan-every-cycle code it replaced."""
    result = _run(workload, scale, defense_fn(), dense=False,
                  cfg_fn=cfg_fn)
    assert result.cycles == cycles
    assert _stats_sha256(result) == digest
    if cfg_fn is not None:
        assert result.stats.get("l1d.mshr.leapfrogs") > 0
        assert result.stats.get("l1d.mshr.timeleaps") > 0


def test_every_defense_survives_starved_mshrs():
    """The full defense registry over the 4-thread interference mix
    with starved MSHRs: the heaviest leapfrog/timeleap cascade traffic
    (this configuration caught a latent L1-victim-cancelled-by-L2-steal
    crash in the dense path)."""
    for defense_name in sorted(registry):
        assert_equivalent("canneal", 0.03, registry[defense_name](),
                          cfg_fn=_starved_mshrs)


def test_max_insts_cap_matches_dense_loop():
    programs = get_workload("mcf").build(0.05)
    ref = Simulator(programs, registry["Unsafe"]()).run(
        dense=True, max_insts=250)
    evt = Simulator(get_workload("mcf").build(0.05),
                    registry["Unsafe"]()).run(dense=False, max_insts=250)
    assert ref.insts == evt.insts == ref.stats.get("commit.insts")
    assert ref.cycles == evt.cycles
    assert ref.stats.as_dict() == evt.stats.as_dict()


def test_event_scheduler_actually_skips():
    """The equivalence above is vacuous if nothing ever skips: the
    memory-bound chase must spend most of its cycles fast-forwarded."""
    result = _run("mcf", 0.05, registry["GhostMinion"](), dense=False)
    assert result.skipped_cycles > result.cycles // 2


def test_ifetch_presence_poll_is_side_effect_free():
    """The fetch stage's per-cycle presence poll must not perturb any
    counter — the scheduler's stall analysis calls it while skipping.

    This pins an intentional artifact change (PR 2): GhostMinion's
    I-Minion probe no longer counts a Minion read per polled cycle, so
    the §6.5 IMinion *dynamic* power estimate now reflects real
    accesses only (orders of magnitude below the seed's poll-inflated
    numbers); the static-power anchors are unaffected.
    """
    from repro.config import default_config
    from repro.pipeline.program import ProgramBuilder

    b = ProgramBuilder("tiny")
    b.li(1, 1)
    b.halt()
    sim = Simulator(b.build(), ghostminion())
    sim.run()
    hierarchy = sim.cores[0].hierarchy
    before = sim.stats.as_dict()
    for _ in range(50):
        hierarchy.ifetch_probe(0, ts=10**9, cycle=sim.cycle)
        hierarchy.ifetch_would_hit(0, ts=10**9)
    assert sim.stats.as_dict() == before


def test_dense_loop_env_knob(monkeypatch):
    monkeypatch.setenv("REPRO_DENSE_LOOP", "1")
    assert dense_loop_forced()
    result = _run("mcf", 0.04, registry["Unsafe"](), dense=None)
    assert result.skipped_cycles == 0
    monkeypatch.setenv("REPRO_DENSE_LOOP", "0")
    assert not dense_loop_forced()
    monkeypatch.delenv("REPRO_DENSE_LOOP")
    assert not dense_loop_forced()
    result = _run("mcf", 0.04, registry["Unsafe"](), dense=None)
    assert result.skipped_cycles > 0


# -- checkpoint equivalence ------------------------------------------------
#
# `Simulator.run` must be splittable at any committed-instruction
# boundary *through a serialized checkpoint*: (warm-up → snapshot →
# restore → continue) is byte-identical to one cold run — cycles, every
# stats counter, architectural registers.  This is the snapshot/restore
# contract of docs/checkpoints.md, which the fuzz ``checkpoint`` oracle
# also checks on generated points.

CHECKPOINT_BOUNDARY = 300


def assert_checkpoint_equivalent(workload, scale, defense_fn,
                                 boundary=CHECKPOINT_BOUNDARY,
                                 cfg_fn=None):
    programs = get_workload(workload).build(scale)

    def make_sim():
        cfg = None
        if cfg_fn is not None:
            cfg = cfg_fn(default_config(cores=len(programs)))
        return Simulator(programs, defense_fn(), cfg=cfg)

    cold = make_sim().run()
    warm = make_sim()
    leg = warm.run(max_insts=boundary)
    assert not leg.finished, (
        "boundary %d is past the end of %s@%s — the checkpoint matrix "
        "would be vacuous" % (boundary, workload, scale))
    blob = warm.snapshot()
    resumed = Simulator.restore(blob).run()
    assert resumed.cycles == cold.cycles
    assert resumed.finished == cold.finished
    assert resumed.stats.as_dict() == cold.stats.as_dict()
    assert len(resumed.cores) == len(cold.cores)
    for core in range(len(cold.cores)):
        assert resumed.arch_regs(core) == cold.arch_regs(core)
    # The donor simulator is untouched by the snapshot: continuing it
    # matches too (snapshot is read-only).
    donor = warm.run()
    assert donor.cycles == cold.cycles
    assert donor.stats.as_dict() == cold.stats.as_dict()
    return blob


@pytest.mark.parametrize("defense_name", sorted(registry))
def test_every_defense_checkpoint_matches_cold(defense_name):
    assert_checkpoint_equivalent("mcf", 0.04,
                                 lambda: registry[defense_name]())


def test_checkpoint_matches_cold_under_starved_mshrs():
    """The multi-core interference mix with starved MSHRs: retrying
    loads, directory state and shared-MSHR quotas must all survive the
    round-trip mid-flight."""
    assert_checkpoint_equivalent("canneal", 0.03,
                                 lambda: registry["GhostMinion"](),
                                 cfg_fn=_starved_mshrs)


def test_checkpoint_restore_is_repeatable():
    """One blob, two restores: both continuations are identical (a
    blob is a value, not a one-shot handle)."""
    programs = get_workload("mcf").build(0.04)
    sim = Simulator(programs, registry["Unsafe"]())
    sim.run(max_insts=CHECKPOINT_BOUNDARY)
    blob = sim.snapshot()
    first = Simulator.restore(blob).run()
    second = Simulator.restore(blob).run()
    assert first.cycles == second.cycles
    assert first.stats.as_dict() == second.stats.as_dict()
    assert first.arch_regs() == second.arch_regs()


# --------------------------------------------------------------------------
# Observability parity: tracing attached == tracing off, byte for byte.
# The obs layer (docs/observability.md) promises emit hooks never touch
# simulated state; this matrix pins it across the defense registry.


def _run_traced(workload, scale, defense, dense=False, interval=0):
    from repro.obs import ObsConfig, build_tracer
    programs = get_workload(workload).build(scale)
    sim = Simulator(programs, defense)
    tracer = build_tracer(ObsConfig(metrics_interval=interval))
    sim.attach_obs(tracer)
    return sim.run(dense=dense), tracer


def assert_traced_equivalent(workload, scale, defense_fn, dense=False):
    ref = _run(workload, scale, defense_fn(), dense=dense)
    traced, tracer = _run_traced(workload, scale, defense_fn(),
                                 dense=dense, interval=500)
    assert ref.cycles == traced.cycles
    assert ref.finished == traced.finished
    assert ref.stats.as_dict() == traced.stats.as_dict()
    for core in range(len(ref.cores)):
        assert ref.arch_regs(core) == traced.arch_regs(core)
    assert tracer.summary()["events"] > 0
    return tracer


@pytest.mark.parametrize("defense_name", sorted(registry))
def test_every_defense_traced_matches_untraced(defense_name):
    assert_traced_equivalent("mcf", 0.04,
                             lambda: registry[defense_name]())


def test_traced_multicore_matches_untraced():
    # Cross-core wakeups with memory events firing on shared units.
    assert_traced_equivalent("canneal", 0.03,
                             lambda: registry["GhostMinion"]())


def test_traced_dense_loop_matches_traced_event():
    """The same run traced under both schedulers: identical outcome,
    and the event scheduler additionally emits skip events."""
    dense, _ = _run_traced("mcf", 0.04, registry["GhostMinion"](),
                           dense=True)
    event, tracer = _run_traced("mcf", 0.04, registry["GhostMinion"](),
                                dense=False)
    assert dense.cycles == event.cycles
    assert dense.stats.as_dict() == event.stats.as_dict()
    assert tracer.summary()["by_kind"].get("skip", 0) > 0


def test_traced_checkpoint_roundtrip_matches_cold():
    """Snapshotting a traced simulator detaches the tracer around the
    pickle (probes close over live objects) and reattaches it; the
    restored continuation still matches a cold untraced run."""
    from repro.obs import ObsConfig, build_tracer
    defense = registry["GhostMinion"]
    cold = _run("mcf", 0.04, defense(), dense=False)
    programs = get_workload("mcf").build(0.04)
    sim = Simulator(programs, defense())
    tracer = build_tracer(ObsConfig(metrics_interval=500))
    sim.attach_obs(tracer)
    sim.run(max_insts=CHECKPOINT_BOUNDARY)
    blob = sim.snapshot()
    assert sim._obs is tracer  # reattached after the pickle
    resumed = Simulator.restore(blob).run()
    assert resumed.cycles == cold.cycles
    assert resumed.stats.as_dict() == cold.stats.as_dict()
    # The restored simulator came back with no tracer attached.
    assert Simulator.restore(blob)._obs is None


# --------------------------------------------------------------------------
# Scheduler telemetry pins.


#: Scheduler telemetry beyond the single-core smoke points, recorded at
#: the last commit whose skip decision ran in a method of its own beside
#: the step loop: ``(cycles, skipped_cycles, skipped_by_class,
#: veto_counts)``.  A change to the loop that moves a dense step
#: between a veto and a skip (or a window between classes) shows here
#: even where cycles and stats stay put.
COHERENCE_TELEMETRY = (
    14540, 11583,
    {"commit-stall": 196, "dispatch-full": 10882, "fetch-stall": 439,
     "lsq-store-addr": 11130, "mem-wait": 11425},
    {"commit-ready": 1343, "dispatch-ready": 28, "fetch-ready": 9,
     "issue-ready": 28, "mem-event-due": 33, "writeback-due": 1253})
TRACED_TELEMETRY = (
    6590, 5618,
    {"dispatch-full": 4539, "fetch-stall": 464, "mem-wait": 5391},
    {"commit-ready": 361, "dispatch-ready": 51, "issue-ready": 48,
     "mem-event-due": 45, "writeback-due": 329})


def _telemetry(result):
    return (result.cycles, result.skipped_cycles,
            dict(result.skipped_by_class), dict(result.veto_counts))


def test_two_core_coherence_telemetry_pinned():
    """Two threads storing to shared lines under GhostMinion: every
    skip needs both cores' proofs merged, and the §4.6 coherence paths
    (denied Minion fills, commit refetches) stall commit."""
    from repro.exp.spec import resolve_workload
    programs = resolve_workload(
        "mixed(iters=120,threads=2,store_weight=1)").build(1.0)
    result = Simulator(programs, registry["GhostMinion"](),
                       cfg=default_config(cores=2)).run()
    assert result.stats.get("coh.commit_refetches") > 0
    assert _telemetry(result) == COHERENCE_TELEMETRY


def test_traced_telemetry_pinned():
    """A traced, sampled run: the same telemetry, one skip event per
    skipped window and one metrics sample per crossed grid point."""
    result, tracer = _run_traced("mcf", 0.04, registry["GhostMinion"](),
                                 interval=500)
    assert _telemetry(result) == TRACED_TELEMETRY
    assert tracer.summary()["by_kind"]["skip"] == 137
    assert len(tracer.sampler.samples) == 14
