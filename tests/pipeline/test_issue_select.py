"""Issue select: the wakeup-maintained candidate list, checked cycle by
cycle against a brute-force rebuild from the issue queue.

``HotCore`` keeps ``pending`` counts and ``consumers`` lists on each
``DynInst`` and one seq-ordered ``candidates`` list instead of sorting
and scanning the whole IQ every cycle.  After every dense step this test
rebuilds what the old scan looked at from the ROB's waiting IQ ops,
using ``DynInst.operands_ready`` as the reference predicate, and asserts
the incremental state matches, the IQ occupancy count included.
The points cover §4.9 strict-FU blocking (non-pipelined FP ops),
MSHR-starved load replays, and STT taint blocking.
"""

import pytest

from repro.config import default_config
from repro.defenses import registry
from repro.defenses.ghostminion import ghostminion
from repro.pipeline.core import ST_DONE, ST_WAITING
from repro.sim.simulator import Simulator
from repro.workloads.spec import get_workload


def _starved_mshrs(cfg):
    cfg.l1d.mshrs = 1
    cfg.l1i.mshrs = 1
    cfg.l2.mshrs = 2
    return cfg


#: (workload, scale, defense factory, config hook, stat that must fire)
POINTS = {
    "strict-fu": ("blackscholes", 0.05,
                  lambda: ghostminion(strict_fu_order=True), None,
                  "fu.fp.strict_blocked"),
    "starved-replays": ("pointer_chase", 0.05,
                        lambda: registry["GhostMinion"](), _starved_mshrs,
                        "mem.load_replays"),
    "stt-taint": ("mcf", 0.04, lambda: registry["STT-Future"](), None,
                  "stt.load_blocked_cycles"),
}


def _unfinished_producers(di):
    return sum(1 for producer, _value in di.operands
               if producer is not None and producer.state != ST_DONE)


def _check_core(core):
    candidates = core.candidates
    # 1. strictly seq-ordered
    for older, younger in zip(candidates, candidates[1:]):
        assert older.seq < younger.seq
    # 2. the IQ count equals the waiting IQ ops of the ROB
    waiting = [di for di in core.rob
               if di.instr.needs_iq and di.state == ST_WAITING]
    assert core.iq == len(waiting)
    # 3. equal to the brute-force set the old sort-and-scan acted on,
    #    rebuilt from those waiting IQ ops
    expected = [di for di in waiting
                if not di.squashed
                and (di.operands_ready() or not di.instr.pipelined)]
    assert candidates == expected
    # 4. every wakeup count equals its unfinished producers
    for di in core.rob:
        assert di.pending == _unfinished_producers(di), di
    # 5. nothing squashed lingers in the issue structures
    assert not any(di.squashed for di in candidates)
    assert not any(di.squashed for di in waiting)


@pytest.mark.parametrize("point", sorted(POINTS))
def test_candidate_list_matches_brute_force_every_cycle(point):
    workload, scale, make_defense, cfg_fn, must_fire = POINTS[point]
    programs = get_workload(workload).build(scale)
    cfg = None
    if cfg_fn is not None:
        cfg = cfg_fn(default_config(cores=len(programs)))
    sim = Simulator(programs, make_defense(), cfg=cfg)
    result = None
    while result is None or not result.finished:
        result = sim.run(max_cycles=sim.cycle + 1, dense=True)
        for core in sim.cores:
            _check_core(core)
    assert result.stats.get(must_fire) > 0, (
        "point never exercised %r" % must_fire)
    reference = Simulator(get_workload(workload).build(scale),
                          make_defense(), cfg=cfg).run(dense=True)
    assert result.cycles == reference.cycles
    assert result.stats.as_dict() == reference.stats.as_dict()
