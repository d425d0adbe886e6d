"""The seq-ordered load queues against a brute-force LQ walk.

``HotCore.awaiting_validation`` (InvisiSpec) and
``HotCore.awaiting_promotion`` (§4.10 early commit) replace a per-cycle
walk over the whole load queue: a load is queued once, when it
completes, and leaves when it reaches its visibility point.  These
tests step the core densely and, after every step, compare each queue
with the list the old walk would have built from the LQ, and check
that every validation starts exactly at the visibility point the old
walk used (``spectre``: below the oldest unresolved branch;
``future``: inside the first ``2 * commit_width`` ROB entries).
"""

import pytest

from repro.defenses import registry
from repro.defenses.ghostminion import ghostminion
from repro.pipeline.core import ST_DONE
from repro.sim.simulator import Simulator
from repro.workloads.spec import get_workload

MAX_CYCLES = 400_000
KERNELS = [("mcf", 0.05), ("libquantum", 0.05), ("astar", 0.03)]


def _visible(core, di):
    """The old LQ walk's visibility test for ``di``."""
    if core._spectre_validation:
        return di.seq < core._oldest_unresolved
    window = {op.seq for op in list(core.rob)[:2 * core._commit_width]}
    return di.seq in window


def _awaiting_validation(core):
    """Brute force: the done LQ loads still to validate, seq-ordered."""
    return sorted((di for di in core.lq
                   if di.state == ST_DONE and di.memreq is not None
                   and di.memreq.needs_validation and not di.validated
                   and di.validation_done_cycle is None),
                  key=lambda di: di.seq)


def _awaiting_promotion(core):
    """Brute force: the done LQ loads still to promote, seq-ordered."""
    return sorted((di for di in core.lq
                   if di.state == ST_DONE and di.memreq is not None
                   and not di.forwarded and not di.promoted),
                  key=lambda di: di.seq)


def _seqs(ops):
    return [di.seq for di in ops]


def _step_all(sim, check):
    core = sim.cores[0]
    cycle = 0
    while not core.halted and cycle < MAX_CYCLES:
        core.step(cycle)
        cycle += 1
        check(core)
    assert core.halted


@pytest.mark.parametrize("workload,scale", KERNELS,
                         ids=[kernel for kernel, _ in KERNELS])
@pytest.mark.parametrize("defense", ["InvisiSpec-Spectre",
                                     "InvisiSpec-Future"])
def test_visibility_queue_matches_the_lq_walk(defense, workload, scale):
    sim = Simulator(get_workload(workload).build(scale), registry[defense]())
    core = sim.cores[0]
    hierarchy = core.hierarchy
    validate = hierarchy.validate
    early = []

    def checked_validate(req, ts, cycle):
        # Every validation starts at the load's visibility point: at
        # the ROB head (commit) or where the old walk saw it visible.
        (di,) = [op for op in core.lq if op.memreq is req]
        assert _visible(core, di), (
            "load #%d validated before its visibility point" % di.seq)
        if di is not core.rob[0]:
            early.append(di.seq)
        return validate(req, ts, cycle)

    hierarchy.validate = checked_validate

    def check(core):
        awaiting = core.awaiting_validation
        assert _seqs(awaiting) == _seqs(_awaiting_validation(core))
        # Nothing visible is left waiting after the step.
        assert not [di.seq for di in awaiting if _visible(core, di)]

    _step_all(sim, check)
    # Non-vacuous: loads validated at their visibility point, not only
    # at commit.
    assert early
    assert not core.awaiting_promotion


@pytest.mark.parametrize("workload,scale", KERNELS,
                         ids=[kernel for kernel, _ in KERNELS])
def test_promotion_queue_matches_the_lq_walk(workload, scale):
    sim = Simulator(get_workload(workload).build(scale),
                    ghostminion(early_commit=True))
    core = sim.cores[0]
    hierarchy = core.hierarchy
    commit_load = hierarchy.commit_load
    early = []

    def checked_commit_load(req, ts, cycle):
        # Only a live load moves its line: at the ROB head (commit) or,
        # promoted early, once every older branch has resolved.
        (di,) = [op for op in core.lq if op.memreq is req]
        if di is not core.rob[0]:
            assert di.seq < core._oldest_unresolved, (
                "load #%d promoted behind an unresolved branch" % di.seq)
            early.append(di.seq)
        return commit_load(req, ts, cycle)

    hierarchy.commit_load = checked_commit_load

    def check(core):
        awaiting = core.awaiting_promotion
        assert _seqs(awaiting) == _seqs(_awaiting_promotion(core))
        # Nothing promotable is left waiting after the step.
        assert not awaiting or awaiting[0].seq >= core._oldest_unresolved

    _step_all(sim, check)
    # Non-vacuous: loads were promoted before reaching the ROB head.
    assert early
    assert not core.awaiting_validation
