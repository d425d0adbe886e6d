"""The lean per-instruction path: decoded issue facts on ``Instr`` and
STT taint as its youngest root (the one port rule is in test_fu.py).

* every ``Instr`` records its op's ``EVALUATE`` entry and FU class
  index once, and the issue stage reads those instead of probing the
  tables per op;
* under STT each renamed op holds the youngest root of taint of its
  first operand (``taint0``) and of all its operands (``taint_root``),
  and a root at or above the taint frontier marks the operand unsafe.
  Dense-stepped runs check both against a brute-force walk of the
  producer chains after every step;
* ``_oldest_unresolved``, the head of the seq-ordered queue of
  unresolved branches, is the oldest unresolved branch in the ROB
  after every step, under every figure defense.
"""

import pytest

from repro.defenses import FIGURE_ORDER, registry
from repro.pipeline.isa import EVALUATE, FU_CLASS, FU_CLASSES, Instr, Op
from repro.sim.simulator import Simulator
from repro.workloads.spec import get_workload

INF = float("inf")


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


def _oldest_unresolved_in_rob(core):
    return min((di.seq for di in core.rob
                if di.instr.is_branch and not di.resolved), default=INF)


def _unsafe_reachable(core, spectre):
    """For each live ROB op, whether it or a producer reachable from it
    is an uncommitted load that is still unsafe: under ``spectre`` one
    with an unresolved branch older than it, otherwise any."""
    oldest = _oldest_unresolved_in_rob(core)
    reach = {}
    for di in core.rob:  # seq order: every producer comes first
        unsafe = di.instr.is_load and (di.seq > oldest or not spectre)
        # A committed producer is not in ``reach``: it and its own
        # (older, committed) producers are safe.
        reach[di] = unsafe or any(reach.get(producer, False)
                                  for producer, _value in di.operands)
    return reach


@pytest.mark.parametrize("workload", ["mcf", "soplex", "astar"])
@pytest.mark.parametrize("defense", ["STT-Spectre", "STT-Future"])
def test_youngest_taint_root_matches_the_producer_chains(defense,
                                                         workload):
    spectre = defense == "STT-Spectre"

    def check(sim):
        tainted = 0
        for core in sim.cores:
            frontier = core._taint_frontier()
            reach = _unsafe_reachable(core, spectre)
            for di in core.rob:
                producers = [producer for producer, _value in di.operands
                             if producer is not None]
                first = di.operands[0][0] if di.operands else None
                assert (di.taint0 >= frontier) == reach.get(first, False), di
                assert (di.taint_root >= frontier) == any(
                    reach.get(producer, False) for producer in producers), di
                tainted += di.taint_root >= frontier
        return tainted

    # some live op must be tainted, or the check proves nothing
    assert _run_checking(registry[defense](), workload, 0.03, check) > 0


@pytest.mark.parametrize("defense", ["Unsafe"] + list(FIGURE_ORDER))
def test_oldest_unresolved_is_the_oldest_unresolved_rob_branch(defense):
    def check(sim):
        unresolved = 0
        for core in sim.cores:
            oldest = _oldest_unresolved_in_rob(core)
            assert core._oldest_unresolved == oldest
            unresolved += oldest != INF
        return unresolved

    assert _run_checking(registry[defense](), "mcf", 0.03, check) > 0
