"""Parked issue attempts are exact.

A candidate blocked by an LSQ store-address wait, an STT taint block or
a full L1-side MSHR file keeps an ``IssuePark``; while the versions it
recorded are current, ``HotCore._issue`` replays the recorded effects
instead of re-running the attempt (docs/performance.md, "Parked issue
attempts").  Turning park recording off must change nothing but the
work counters: cycles, every stats counter, architectural registers,
the dense-step count and the veto profile are all compared.
"""

import pytest

from repro.config import default_config
from repro.defenses import FIGURE_ORDER, registry
from repro.defenses.ghostminion import ghostminion
from repro.pipeline import hotcore
from repro.pipeline.program import ProgramBuilder
from repro.sim.simulator import Simulator
from repro.workloads.spec import get_workload

#: lbm is the kernel whose loads wait on older store addresses.
WORKLOADS = ("soplex", "milc", "astar", "mcf", "lbm")
SCALE = 0.05

DEFENSES = [(name, lambda name=name: registry[name]())
            for name in ["Unsafe"] + list(FIGURE_ORDER)] + [
    ("GhostMinion-EC", lambda: ghostminion(early_commit=True)),
    ("GhostMinion-FS", lambda: ghostminion(full_strictness=True)),
]


def _two_l1d_mshrs(cfg):
    cfg.l1d.mshrs = 2
    return cfg


CONFIGS = [("default", None), ("l1d-2-mshrs", _two_l1d_mshrs)]


def _sim(workload, defense, cfg_fn):
    programs = get_workload(workload).build(SCALE)
    cfg = None
    if cfg_fn is not None:
        cfg = cfg_fn(default_config(cores=len(programs)))
    return Simulator(programs, defense, cfg=cfg)


def _outcome(result):
    return (result.cycles, result.finished, result.stats.as_dict(),
            [result.arch_regs(core) for core in range(len(result.cores))],
            result.cycles - result.skipped_cycles,
            sorted(result.veto_counts.items()))


def _work(result):
    return (sum(core.issue_evals for core in result.cores),
            sum(core.issue_replays for core in result.cores))


def _no_parks(*_args):
    return None


@pytest.mark.parametrize("defense_fn", [fn for _name, fn in DEFENSES],
                         ids=[name for name, _fn in DEFENSES])
def test_parking_off_and_on_agree(defense_fn, monkeypatch):
    replays = 0
    for workload in WORKLOADS:
        for _label, cfg_fn in CONFIGS:
            parked = _sim(workload, defense_fn(), cfg_fn).run()
            with monkeypatch.context() as patch:
                patch.setattr(hotcore, "IssuePark", _no_parks)
                full = _sim(workload, defense_fn(), cfg_fn).run()
            assert _outcome(parked) == _outcome(full), (workload, _label)
            evals, parked_replays = _work(parked)
            full_evals, full_replays = _work(full)
            assert full_replays == 0
            # Each replay stands in for exactly one full attempt.
            assert evals + parked_replays == full_evals
            replays += parked_replays
    assert replays > 0  # non-vacuous: some attempt was replayed


def _forwarding_loop():
    """Each iteration stores to one address and loads it straight back:
    the load, ready in the cycle its store issues, waits one cycle on
    the in-flight store and then forwards from it."""
    b = ProgramBuilder("forwarding-loop")
    b.li(1, 0x300)
    b.li(4, 40)
    loop = b.here()
    b.add(2, 2, imm=3)
    b.store(1, 2)
    b.load(3, 1)
    b.add(5, 5, 3)
    b.sub(4, 4, imm=1)
    b.bnez(4, loop)
    b.halt()
    return b.build()


def test_wait_on_an_in_flight_store_parks_exactly(monkeypatch):
    """A load held by an issued, unfinished store to its own address
    must re-run once the store writes back: a park that outlived the
    store's writeback would wait past the forward."""
    parked = Simulator(_forwarding_loop(), registry["Unsafe"]()).run()
    with monkeypatch.context() as patch:
        patch.setattr(hotcore, "IssuePark", _no_parks)
        full = Simulator(_forwarding_loop(), registry["Unsafe"]()).run()
    assert _outcome(parked) == _outcome(full)
    assert parked.stats.get("lsq.forwards") > 0
    assert parked.stats.get("lsq.load_waits") > 0


def test_every_park_class_replays():
    """The matrix above is vacuous for a class that never parks: each
    of the three (MSHR-full retry, LSQ store-address wait, STT taint
    block) replays on at least one point."""
    seen = set()
    points = [("soplex", "GhostMinion", _two_l1d_mshrs),
              ("lbm", "Unsafe", None), ("astar", "STT-Future", None)]
    for workload, defense, cfg_fn in points:
        sim = _sim(workload, registry[defense](), cfg_fn)
        core = sim.cores[0]
        stats = sim.stats
        classes = {stats.handle("mem.load_retries"): "mshr-full",
                   stats.handle("lsq.load_waits"): "lsq-store-addr",
                   stats.handle("stt.load_blocked_cycles"): "stt-taint",
                   stats.handle("stt.branch_blocked_cycles"): "stt-taint",
                   stats.handle("stt.store_blocked_cycles"): "stt-taint",
                   stats.handle("stt.fu_blocked_cycles"): "stt-taint"}
        original = core._issue

        def spy(cycle, _core=core, _original=original):
            for di in _core.candidates:
                park = di.park
                if park is not None:
                    for handle in park.bumps:
                        if handle in classes:
                            seen.add(classes[handle])
            _original(cycle)

        core._issue = spy
        result = sim.run()
        assert result.finished
    assert seen == {"mshr-full", "lsq-store-addr", "stt-taint"}


def _parked_retry(core):
    """The oldest candidate parked on a full MSHR file, if current."""
    for di in core.candidates:
        park = di.park
        if park is not None and park.takes_slot \
                and core._park_current(park):
            return di
    return None


#: Each structure a retrying load's probe reads: the defense whose
#: hierarchy reads it, and how to put a line into it.
PROBE_STRUCTURES = {
    "l1d": ("Unsafe", lambda h, line, cycle: h.dport.cache.fill(line,
                                                                  cycle)),
    "dminion": ("GhostMinion", lambda h, line, cycle: h.dminion.fill(
        line, 0)),
    "l0d": ("MuonTrap", lambda h, line, cycle: h.l0d.fill(line, cycle)),
}


@pytest.mark.parametrize("structure", sorted(PROBE_STRUCTURES))
def test_a_probe_structure_change_ends_the_park(structure, monkeypatch):
    """Every structure a retrying load's probe reads is versioned: put
    a parked load's line into it between two cycles, and the load must
    hit next cycle exactly as a full attempt would.  The parked run
    picks the moments (up to ten); the unparked run repeats them."""
    defense, make_hit = PROBE_STRUCTURES[structure]

    def make():
        return _sim("soplex", registry[defense](), _two_l1d_mshrs)

    sim = make()
    hits = []
    for boundary in range(25, 3000, 25):
        sim.run(max_insts=boundary)
        load = _parked_retry(sim.cores[0])
        if load is not None and len(hits) < 10:
            hits.append((boundary, load.addr >> 6))
            make_hit(sim.cores[0].hierarchy, load.addr >> 6, sim.cycle)
    parked = sim.run()
    assert hits
    with monkeypatch.context() as patch:
        patch.setattr(hotcore, "IssuePark", _no_parks)
        sim = make()
        lines = dict(hits)
        for boundary in range(25, 3000, 25):
            sim.run(max_insts=boundary)
            if boundary in lines:
                make_hit(sim.cores[0].hierarchy, lines[boundary],
                         sim.cycle)
        full = sim.run()
    assert _outcome(parked) == _outcome(full)


def test_snapshot_while_a_load_is_parked_continues_identically():
    """Snapshot between two cycles while a load sits parked on a full
    MSHR file, restore, and continue: the park and the versions it
    names travel in the checkpoint, so the continuation matches the
    donor's (work counters included) and a cold run."""
    def make():
        return _sim("soplex", registry["GhostMinion"](), _two_l1d_mshrs)

    def parked_retries(core):
        return [di.seq for di in core.candidates
                if di.park is not None and di.park.takes_slot
                and di.park.retry_version
                == core.hierarchy.load_retry_version()]

    cold = make().run()
    sim = make()
    parked = []
    for boundary in range(50, cold.insts, 50):
        sim.run(max_insts=boundary)
        parked = parked_retries(sim.cores[0])
        if parked:
            break
    assert parked, "no load was ever parked at a snapshot boundary"
    restored = Simulator.restore(sim.snapshot())
    assert parked_retries(restored.cores[0]) == parked
    resumed = restored.run()
    donor = sim.run()
    assert _outcome(resumed) == _outcome(donor)
    assert _work(resumed) == _work(donor)
    assert resumed.cycles == cold.cycles
    assert resumed.stats.as_dict() == cold.stats.as_dict()
    assert resumed.arch_regs() == cold.arch_regs()
