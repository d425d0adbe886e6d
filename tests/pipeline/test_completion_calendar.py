"""Completion calendar: writeback and the stall proof, checked cycle by
cycle against a brute-force walk over every in-flight op.

``HotCore`` keeps the ops whose completion cycle is fixed at issue (ALU
ops, stores, forwarded loads) in one ``(done_cycle, seq, op)`` heap,
``completions``, and the loads waiting on a memory request in a short
``inflight_loads`` list that writeback polls (REPLAY and timeleap move
a load's completion after issue).  After every dense step this test
rebuilds the in-flight set from the ROB and asserts:

1. the calendar holds exactly the in-flight non-memory ops, and its
   head is their minimum ``done_cycle``; the load list holds exactly
   the in-flight loads;
2. no squashed op survives in either structure;
3. ``Core.next_event_cycle`` gives the outcome (type, reason, wake,
   bumps, replays, classes) of a reference that walks every in-flight
   op, as the stall proof did before the calendar;
4. writeback serviced every op that was due when the step began: a
   calendar op whose ``done_cycle`` had come is done, and a load whose
   request was marked REPLAY went back to issue (``replays`` counted).

The points cover MSHR-starved GhostMinion (load replays and timeleaps),
a mispredict-heavy kernel (squashes of in-flight ops) and §4.9
strict-FU blocking (long non-pipelined latencies).
"""

import pytest

from repro.config import default_config
from repro.defenses import registry
from repro.defenses.ghostminion import ghostminion
from repro.memory.request import ReqState
from repro.pipeline.core import (
    SKIP_COMMIT_STALL,
    SKIP_VALIDATION_WAIT,
    ST_DONE,
    ST_EXECUTING,
    VETO_COMMIT_READY,
    VETO_MEM_EVENT_DUE,
    VETO_WRITEBACK_DUE,
    StallVeto,
)
from repro.sim.simulator import Simulator
from repro.workloads.spec import get_workload


def _starved_mshrs(cfg):
    cfg.l1d.mshrs = 1
    cfg.l1i.mshrs = 1
    cfg.l2.mshrs = 2
    return cfg


#: (workload, scale, defense factory, config hook, stats that must fire)
POINTS = {
    "starved-replays": ("pointer_chase", 0.05,
                        lambda: registry["GhostMinion"](), _starved_mshrs,
                        ("mem.load_replays", "gm.timeleap_loads")),
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
            len(outcome.replays), set(outcome.classes))


def _check_structures(core):
    in_flight = _in_flight(core)
    fixed = [di for di in in_flight if di.memreq is None]
    loads = [di for di in in_flight if di.memreq is not None]
    # 1. exactly the in-flight ops, head = brute-force minimum
    assert sorted(core.completions) == sorted(
        (di.done_cycle, di.seq, di) for di in fixed)
    if fixed:
        assert core.completions[0][0] == min(di.done_cycle for di in fixed)
    assert sorted(core.inflight_loads, key=lambda d: d.seq) == loads
    # 2. nothing squashed survives
    assert not any(entry[2].squashed for entry in core.completions)
    assert not any(di.squashed for di in core.inflight_loads)


@pytest.mark.parametrize("point", sorted(POINTS))
def test_calendar_matches_brute_force_every_cycle(point):
    workload, scale, make_defense, cfg_fn, must_fire = POINTS[point]
    programs = get_workload(workload).build(scale)
    cfg = None
    if cfg_fn is not None:
        cfg = cfg_fn(default_config(cores=len(programs)))
    sim = Simulator(programs, make_defense(), cfg=cfg)
    core = sim.cores[0]
    squashed_in_flight = replays_seen = proofs = 0
    result = None
    while result is None or not result.finished:
        cycle = sim.cycle
        due = [di for di in _in_flight(core) if di.memreq is None
               and di.done_cycle <= cycle]
        replaying = [(di, di.replays) for di in _in_flight(core)
                     if di.memreq is not None
                     and di.memreq.state is ReqState.REPLAY]
        before = _in_flight(core)
        result = sim.run(max_cycles=cycle + 1, dense=True)
        # 4. writeback serviced everything due at the top of the step
        for di in due:
            assert di.squashed or di.state == ST_DONE, di
        for di, replays in replaying:
            assert di.squashed or di.replays == replays + 1, di
        replays_seen += len(replaying)
        squashed_in_flight += sum(1 for di in before if di.squashed)
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
    if point == "starved-replays":
        assert replays_seen > 0
    if point == "mispredicts":
        assert squashed_in_flight > 0
