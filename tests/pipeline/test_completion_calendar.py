"""Completion calendar: writeback and the stall proof, checked cycle by
cycle against a brute-force walk over every in-flight op.

``HotCore`` keeps every issued, unfinished op in one
``(done_cycle, seq, op)`` heap, ``completions``; a load waiting on a
memory request is keyed at the request's ``ready_cycle`` at issue.  A
leapfrog (REPLAY) or timeleap (postpone) moves a request after issue,
and the D-side MSHR file reports each such request in its ``moved``
list, which the core binds as ``_moved`` and writeback empties.  After
every dense step this test rebuilds the in-flight set from the ROB and
asserts:

1. the calendar holds exactly the in-flight ops; a fixed-latency op is
   keyed at its ``done_cycle``, and a load at its request's
   ``ready_cycle`` unless the request is in ``_moved``; a load whose
   request was marked REPLAY is in ``_moved``;
2. no squashed op survives in the calendar;
3. ``Core.next_event_cycle`` gives the outcome (type, reason, wake,
   bumps, classes) of a reference that walks every in-flight
   op and reads each load's request;
4. writeback serviced every op that was due when the step began: a
   fixed-latency op whose ``done_cycle`` had come is done, a load whose
   request had completed is done, and a load whose request was marked
   REPLAY went back to issue (``replays`` counted);
5. ``_moved`` is empty after every writeback.

The points cover MSHR-starved GhostMinion (load replays, and their
cascades from the L2 into the L1D entries waiting on it), a younger
load missing before an older one to the same line (timeleaps that
postpone a live load), a mispredict-heavy kernel (squashes of in-flight
ops) and §4.9 strict-FU blocking (long non-pipelined latencies).
"""

import pytest

from repro.config import default_config
from repro.defenses import registry
from repro.defenses.ghostminion import ghostminion
from repro.memory.request import ReqState
from repro.pipeline.isa import Op
from repro.pipeline.core import (
    SKIP_COMMIT_STALL,
    SKIP_VALIDATION_WAIT,
    ST_DONE,
    ST_EXECUTING,
    VETO_COMMIT_READY,
    VETO_MEM_EVENT_DUE,
    VETO_WRITEBACK_DUE,
    Core,
    StallVeto,
)
from repro.pipeline.program import ProgramBuilder
from repro.sim.simulator import Simulator
from repro.workloads.spec import get_workload


def _starved_mshrs(cfg):
    cfg.l1d.mshrs = 1
    cfg.l1i.mshrs = 1
    cfg.l2.mshrs = 2
    return cfg


def _starved_l2(cfg):
    # Roomy L1 files, one L2 entry: every load replay is a leapfrog of
    # the L2 entry cascading into the L1D entry waiting on it.
    cfg.l1d.mshrs = 4
    cfg.l1i.mshrs = 4
    cfg.l2.mshrs = 1
    return cfg


def _younger_load_first(scale):
    """A loop whose younger load misses on a line before the older load
    to the same line has its address (it waits on two divides), so the
    older load timeleaps the entry and postpones a live load."""
    b = ProgramBuilder("younger-load-first")
    b.li(10, max(1, int(800 * scale)))
    b.li(11, 0x100000)
    b.label("loop")
    b.li(1, 81)
    b.alu(Op.DIV, 1, 1, imm=3)
    b.alu(Op.DIV, 1, 1, imm=3)
    b.alu(Op.SUB, 3, 1, 1)
    b.alu(Op.ADD, 3, 3, 11)
    b.load(4, 3)              # older: its address waits on the divides
    b.load(5, 11, imm=8)      # younger, same line: issues first
    b.alu(Op.ADD, 11, 11, imm=4096)
    b.alu(Op.SUB, 10, 10, imm=1)
    b.bnez(10, "loop")
    b.halt()
    return [b.build()]


#: (workload or program factory, scale, defense factory, config hook,
#: stats that must fire)
POINTS = {
    "starved-replays": ("pointer_chase", 0.05,
                        lambda: registry["GhostMinion"](), _starved_mshrs,
                        ("mem.load_replays", "gm.timeleap_loads")),
    "starved-cascades": ("pointer_chase", 0.05,
                         lambda: registry["GhostMinion"](), _starved_l2,
                         ("mem.load_replays", "l2.mshr.leapfrogs")),
    "live-timeleaps": (_younger_load_first, 0.05,
                       lambda: registry["GhostMinion"](), None,
                       ("gm.timeleap_loads",)),
    "mispredicts": ("sjeng", 0.05, lambda: registry["GhostMinion"](),
                    None, ("squash.insts",)),
    "strict-fu": ("blackscholes", 0.05,
                  lambda: ghostminion(strict_fu_order=True), None,
                  ("fu.fp.strict_blocked",)),
}


def _in_flight(core):
    """Every issued, unfinished op, oldest first (brute force)."""
    return [di for di in core.rob if di.state == ST_EXECUTING]


def _reference_outcome(core, cycle):
    """The stall proof with its writeback section as a walk over every
    in-flight op; the sections after writeback are shared code."""
    wake = core.hierarchy.next_event_cycle()
    if wake <= cycle:
        return VETO_MEM_EVENT_DUE
    head_bump = head_class = None
    if core.rob:
        head = core.rob[0]
        if head.state == ST_DONE and not head.squashed:
            if head.commit_stall_until > cycle:
                wake = min(wake, head.commit_stall_until)
                head_bump = core._h_commit_stall
                head_class = SKIP_COMMIT_STALL
            elif (core._validation_on and head.instr.is_load
                    and head.memreq is not None
                    and head.memreq.needs_validation
                    and not head.validated
                    and head.validation_done_cycle is not None
                    and cycle < head.validation_done_cycle):
                wake = min(wake, head.validation_done_cycle)
                head_bump = core._h_ivs_stall
                head_class = SKIP_VALIDATION_WAIT
            else:
                return VETO_COMMIT_READY
    in_flight = False
    for di in _in_flight(core):
        if di.squashed:
            return VETO_WRITEBACK_DUE
        if di.instr.is_load and di.memreq is not None:
            if di.memreq.state is not ReqState.READY:
                return VETO_WRITEBACK_DUE
            ready = di.memreq.ready_cycle
        else:
            ready = di.done_cycle
        if ready <= cycle:
            return VETO_WRITEBACK_DUE
        wake = min(wake, ready)
        in_flight = True
    return core._stall_proof(cycle, wake, head_bump, head_class, in_flight)


def _summary(outcome):
    if isinstance(outcome, str):
        return ("veto", outcome)
    if type(outcome) is StallVeto:
        return ("veto", outcome.reason)
    return ("proof", outcome.wake, list(outcome.bumps),
            set(outcome.classes))


def _check_structures(core):
    moved = core._moved
    # 1. exactly the in-flight ops, each at its key
    assert sorted(entry[1] for entry in core.completions) == sorted(
        di.seq for di in _in_flight(core))
    for key, seq, di in core.completions:
        assert seq == di.seq
        req = di.memreq
        if req is None:
            assert key == di.done_cycle, di
        elif not any(req is other for other in moved):
            assert req.state is ReqState.READY, di  # a REPLAY is reported
            assert key == req.ready_cycle, di  # so is a postpone
    # 2. nothing squashed survives
    assert not any(entry[2].squashed for entry in core.completions)


@pytest.fixture
def writebacks_empty_moved(monkeypatch):
    """5. Every writeback leaves ``_moved`` empty; counts the calls
    that found it non-empty."""
    seen = []
    writeback = Core._writeback

    def checked(core, cycle):
        seen.append(bool(core._moved))
        writeback(core, cycle)
        assert not core._moved

    monkeypatch.setattr(Core, "_writeback", checked)
    return seen


@pytest.mark.parametrize("point", sorted(POINTS))
def test_calendar_matches_brute_force_every_cycle(point,
                                                  writebacks_empty_moved):
    workload, scale, make_defense, cfg_fn, must_fire = POINTS[point]
    programs = (workload(scale) if callable(workload)
                else get_workload(workload).build(scale))
    cfg = None
    if cfg_fn is not None:
        cfg = cfg_fn(default_config(cores=len(programs)))
    sim = Simulator(programs, make_defense(), cfg=cfg)
    core = sim.cores[0]
    squashed_in_flight = replays_seen = postponed_in_flight = proofs = 0
    result = None
    while result is None or not result.finished:
        cycle = sim.cycle
        due = [di for di in _in_flight(core)
               if (di.done_cycle if di.memreq is None
                   else di.memreq.ready_cycle) <= cycle
               and (di.memreq is None
                    or di.memreq.state is ReqState.READY)]
        replaying = [(di, di.replays) for di in _in_flight(core)
                     if di.memreq is not None
                     and di.memreq.state is ReqState.REPLAY]
        before = _in_flight(core)
        keyed = [(di, di.memreq, di.memreq.ready_cycle) for di in before
                 if di.memreq is not None]
        result = sim.run(max_cycles=cycle + 1, dense=True)
        # 4. writeback serviced everything due at the top of the step
        for di in due:
            assert di.squashed or di.state == ST_DONE, di
        for di, replays in replaying:
            assert di.squashed or di.replays == replays + 1, di
        replays_seen += len(replaying)
        squashed_in_flight += sum(1 for di in before if di.squashed)
        postponed_in_flight += sum(
            1 for di, req, ready in keyed
            if di.state == ST_EXECUTING and not di.squashed
            and di.memreq is req and req.ready_cycle > ready)
        if core.halted:
            continue
        _check_structures(core)
        # 3. the stall proof agrees with the brute-force walk
        outcome = _summary(core.next_event_cycle(sim.cycle))
        assert outcome == _summary(_reference_outcome(core, sim.cycle))
        proofs += outcome[0] == "proof"
    for name in must_fire:
        assert result.stats.get(name) > 0, name
    # Non-vacuous: each point exercises what it is here for.
    assert proofs > 0
    if point.startswith("starved-"):
        assert replays_seen > 0
        assert any(writebacks_empty_moved)
    if point == "starved-cascades":
        assert result.stats.get("l1d.mshr.leapfrogs") == 0
    if point == "mispredicts":
        assert squashed_in_flight > 0
    if point == "live-timeleaps":
        assert postponed_in_flight > 0
        assert any(writebacks_empty_moved)


def test_moved_list_is_shared_after_restore():
    """A restored core still reads the list its D-side MSHR file
    appends to (the pickle memo keeps one list, not two), and runs on
    like the machine it was taken from."""
    workload, scale, make_defense, cfg_fn, _ = POINTS["starved-cascades"]
    programs = get_workload(workload).build(scale)

    def machine():
        return Simulator(programs, make_defense(),
                         cfg=cfg_fn(default_config(cores=len(programs))))

    sim = machine()
    sim.run(max_insts=400)
    restored = Simulator.restore(sim.snapshot())
    for machine_ in (sim, restored):
        core = machine_.cores[0]
        assert core._moved is core.hierarchy.dport.mshrs.moved
        assert core._moved is not None
    assert restored.cores[0]._moved is not sim.cores[0]._moved
    cold = machine().run()
    warm = restored.run()
    assert warm.cycles == cold.cycles
    assert warm.stats.get("mem.load_replays") \
        == cold.stats.get("mem.load_replays") > 0
