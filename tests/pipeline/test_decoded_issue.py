"""The lean per-instruction path: decoded issue facts on ``Instr`` and
taint containers only under STT (the one port rule is in test_fu.py).

* every ``Instr`` records its op's ``EVALUATE`` entry and FU class
  index once, and the issue stage reads those instead of probing the
  tables per op;
* without taint tracking every op holds the shared, immutable empty
  taint containers; under STT each renamed op owns its containers, so
  no two live ops can see each other's taint.
"""

import pytest

from repro.defenses import registry
from repro.pipeline import hotcore
from repro.pipeline.isa import EVALUATE, FU_CLASS, FU_CLASSES, Instr, Op
from repro.sim.simulator import Simulator
from repro.workloads.spec import get_workload


def _instr(op):
    target = 0 if op in (Op.BEQZ, Op.BNEZ, Op.JMP, Op.CALL) else None
    return Instr(op, rd=1, rs1=2, rs2=3, target=target)


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.value)
def test_decoded_facts_match_the_tables(op):
    instr = _instr(op)
    assert instr.evaluator is EVALUATE.get(op)
    assert FU_CLASSES[instr.fu_index] == FU_CLASS[op] == instr.fu_class


def _run_checking(defense, workload, scale, check):
    sim = Simulator(get_workload(workload).build(scale), defense)
    checked = 0
    result = None
    while result is None or not result.finished:
        result = sim.run(max_cycles=sim.cycle + 1, dense=True)
        checked += check(sim)
    return checked


@pytest.mark.parametrize("defense", ["STT-Spectre", "STT-Future"])
def test_stt_ops_own_their_taint_containers(defense):
    def check(sim):
        seen = {}
        tainted = 0
        for di in (di for core in sim.cores for di in core.rob):
            assert isinstance(di.operand_taints, list)
            assert isinstance(di.taint_srcs, set)
            assert len(di.operand_taints) == len(di.operands)
            containers = [di.operand_taints, di.taint_srcs]
            containers.extend(di.operand_taints)
            for container in containers:
                owner = seen.setdefault(id(container), di)
                assert owner is di, (
                    "%r and %r share a taint container" % (owner, di))
            tainted += bool(di.taint_srcs)
        return tainted

    # some live op must carry taint, or the check proves nothing
    assert _run_checking(registry[defense](), "mcf", 0.04, check) > 0


@pytest.mark.parametrize("defense", ["Unsafe", "GhostMinion"])
def test_untainted_ops_share_the_empty_containers(defense):
    def check(sim):
        count = 0
        for core in sim.cores:
            for di in list(core.rob) + list(core.fetch_queue):
                assert di.operand_taints is hotcore._NO_TAINTS
                assert di.taint_srcs is hotcore._NO_TAINT_SRCS
                count += 1
        return count

    assert _run_checking(registry[defense](), "mcf", 0.02, check) > 0


def test_committed_stt_ops_hold_the_shared_empty_taints():
    """``_commit`` gives a committed op back the shared empty taint
    containers: nothing reads its taint once it has left the ROB, and
    a live taint set would keep every load it names alive."""
    seen = {}

    def check(sim):
        for core in sim.cores:
            for di in core.rob:
                seen[id(di)] = di
        return 0

    _run_checking(registry["STT-Future"](), "mcf", 0.04, check)
    committed = [di for di in seen.values() if di.committed]
    assert committed
    for di in committed:
        assert di.operand_taints is hotcore._NO_TAINTS
        assert di.taint_srcs is hotcore._NO_TAINT_SRCS
