"""A run allocates no reference cycles, so ``Simulator.run`` pauses the
cyclic collector for its body.

The machine is freed by refcounting (``Simulator.release`` breaks its
wiring cycles; ``consumers`` lists are dropped at wakeup and squash),
so a collector pass inside a run could only scan live state.  These
tests pin both halves: with the collector disabled, ``gc.collect()``
finds nothing after any part of a run or after release, and no
collector pass starts while ``run`` is on the stack, whatever state
the caller left the collector in.
"""

import gc
import sys

import pytest

from repro.config import default_config
from repro.defenses import registry
from repro.obs import ObsConfig, build_tracer
from repro.pipeline.hotcore import DynInst
from repro.sim.simulator import Simulator
from repro.workloads.spec import get_workload

#: name -> (workload, scale, MSHR-starved): astar squashes thousands of
#: wrong-path ops, soplex parks and replays thousands of issue
#: attempts, and mcf with 2-entry L1 MSHR files lives on backpressure
#: retries.
POINTS = {
    "squash-heavy": ("astar", 0.05, False),
    "replay-heavy": ("soplex", 0.03, False),
    "mshr-starved": ("mcf", 0.05, True),
}
#: Committed-instruction caps the run is split at before it runs out.
SPLITS = (300, 900)


@pytest.fixture
def no_gc():
    """The collector disabled, and every object alive before the test
    frozen out of its passes (``gc.collect()`` then scans only what the
    test allocates)."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()


def _machine(point, defense, tlb, tracer=None):
    workload, scale, starved = POINTS[point]
    programs = get_workload(workload).build(scale)
    cfg = default_config(cores=len(programs))
    cfg.model_tlb = tlb
    if starved:
        cfg.l1d.mshrs = 2
        cfg.l1i.mshrs = 2
        cfg.l2.mshrs = 4
    sim = Simulator(programs, registry[defense](), cfg=cfg)
    if tracer is not None:
        sim.attach_obs(tracer)
    return sim


def _assert_no_garbage(sim, dense):
    """Split the run at SPLITS, run it out, release it: the collector
    finds nothing at any step."""
    assert gc.collect() == 0, "building the machine"
    for cap in SPLITS:
        sim.run(max_insts=cap, dense=dense)
        assert gc.collect() == 0, "run to %d instructions" % cap
    result = sim.run(dense=dense)
    assert result.finished
    assert gc.collect() == 0, "uncapped run"
    sim.release()
    del sim, result
    assert gc.collect() == 0, "released machine"


@pytest.mark.parametrize("dense,tlb", [(False, False), (True, True)],
                         ids=["event", "dense-tlb"])
@pytest.mark.parametrize("point", sorted(POINTS))
@pytest.mark.parametrize("defense", list(registry))
def test_run_makes_no_cyclic_garbage(no_gc, defense, point, dense, tlb):
    _assert_no_garbage(_machine(point, defense, tlb), dense)


@pytest.mark.parametrize("dense,tlb", [(False, True), (True, False)],
                         ids=["event-tlb", "dense"])
@pytest.mark.parametrize("point", sorted(POINTS))
def test_run_makes_no_cyclic_garbage_other_modes(no_gc, point, dense,
                                                 tlb):
    _assert_no_garbage(_machine(point, "GhostMinion", tlb), dense)


def test_traced_run_makes_no_cyclic_garbage(no_gc):
    # The tracer's metrics probes close over the machine: release must
    # disarm the hooks, or machine and tracer keep each other alive.
    tracer = build_tracer(ObsConfig(metrics_interval=200))
    _assert_no_garbage(
        _machine("mshr-starved", "GhostMinion", False, tracer), False)
    assert tracer.sampler.samples
    del tracer
    assert gc.collect() == 0, "released machine and its tracer"


def _live_ops():
    return [obj for obj in gc.get_objects() if type(obj) is DynInst]


@pytest.mark.parametrize("workload,defense", [("gamess", "Unsafe"),
                                              ("soplex", "STT-Future")])
def test_committed_ops_die_with_their_last_reader(no_gc, workload,
                                                  defense):
    """Mid-run, only ops in flight and the committed producers they
    still name are alive: a committed op drops its own operands and
    rename checkpoint, so no chain of committed ops grows with the
    run along loop-carried dependencies.  soplex keeps a committed CALL
    (a branch that writes a register) named, so its rename checkpoint
    is checked too."""
    programs = get_workload(workload).build(1.0)
    cfg = default_config(cores=len(programs))
    sim = Simulator(programs, registry[defense](), cfg=cfg)
    before = len(_live_ops())
    result = sim.run(max_insts=10000)
    assert not result.finished and result.insts >= 10000
    # Each field is cleared at commit: a committed op still named by a
    # younger one names nothing itself.
    committed = [di for di in _live_ops() if di.committed]
    assert committed
    assert not [di for di in committed
                if di.operands or di.rename_ckpt is not None]
    # In flight: the ROB plus a fetch queue of two fetch groups.  Each
    # names at most max_srcs producers (a rename checkpoint names only
    # ops that shared the ROB with its branch).
    max_srcs = max(len(instr.srcs) for program in programs
                   for instr in program.instrs)
    in_flight = cfg.core.rob_entries + 2 * cfg.core.fetch_width
    bound = in_flight * (1 + max_srcs)
    assert len(_live_ops()) - before <= bound < result.insts // 10


def _in_run():
    """Whether ``Simulator.run`` is on the caller's stack."""
    frame = sys._getframe(1)
    while frame is not None:
        if frame.f_code is Simulator.run.__code__:
            return True
        frame = frame.f_back
    return False


@pytest.fixture
def eager_gc():
    """The collector enabled with a tiny gen-0 threshold, so that any
    stretch of allocation left unpaused starts a pass."""
    enabled = gc.isenabled()
    thresholds = gc.get_threshold()
    gc.enable()
    gc.set_threshold(20)
    try:
        yield
    finally:
        gc.set_threshold(*thresholds)
        if not enabled:
            gc.disable()


def test_no_collector_pass_starts_inside_run(eager_gc):
    passes = []

    def record(phase, info):
        if phase == "start":
            passes.append(_in_run())

    sim = _machine("squash-heavy", "GhostMinion", False)
    gc.callbacks.append(record)
    try:
        sim.run(max_insts=300)
        sim.run()
        # non-vacuous: the same threshold starts passes outside run
        garbage = [[] for _ in range(1000)]
    finally:
        gc.callbacks.remove(record)
    del garbage
    assert passes, "no collector pass started at all"
    assert not any(passes), (
        "%d collector passes started inside Simulator.run" % sum(passes))


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_callers_collector_state(enabled):
    was = gc.isenabled()
    sim = _machine("squash-heavy", "Unsafe", False)
    core = sim.cores[0]
    step = core.step
    seen = []

    def watched(cycle):
        seen.append(gc.isenabled())
        step(cycle)

    core.step = watched
    (gc.enable if enabled else gc.disable)()
    try:
        assert sim.run(max_insts=100).insts >= 100
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen and not any(seen)


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_collector_state_when_it_raises(enabled):
    was = gc.isenabled()
    sim = _machine("squash-heavy", "Unsafe", False)

    def boom(cycle):
        raise RuntimeError("stepping failed")

    (gc.enable if enabled else gc.disable)()
    try:
        sim.cores[0].step = boom
        with pytest.raises(RuntimeError, match="stepping failed"):
            sim.run()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
