"""A finished machine is freed by refcounting, not by the cycle collector.

The machine graph holds wiring cycles (``SharedMemory.hierarchies``
against each hierarchy's ``shared``, the bound fill actions of
in-flight MSHR entries, in-flight ops' ``consumers``, an attached
tracer whose metrics probes close over the machine).
``Simulator.release`` breaks them, and the engine calls it once its
record of a point is taken.  With the collector disabled, the machine
must be gone as soon as the last reference to its result is.
"""

import gc
import weakref

import pytest

from repro.config import default_config
from repro.defenses import registry
from repro.exp.engine import run_points
from repro.exp.spec import SweepPoint, resolve_workload
from repro.obs import ObsConfig
from repro.sim import simulator
from repro.sim.simulator import Simulator
from repro.workloads.spec import get_workload


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("defense", ["Unsafe", "GhostMinion", "MuonTrap",
                                     "STT-Future", "InvisiSpec-Future"])
@pytest.mark.parametrize("max_insts", [None, 700])
def test_released_simulator_is_freed_by_refcount(no_gc, defense,
                                                 max_insts):
    programs = get_workload("mcf").build(0.03)
    cfg = default_config(cores=len(programs))
    cfg.model_tlb = True
    sim = Simulator(programs, registry[defense](), cfg=cfg)
    result = sim.run(max_insts=max_insts)
    regs = result.arch_regs()
    sim.release()
    # what the record reads stays readable
    assert result.arch_regs() == regs
    assert result.stats.get("commit.insts") == result.insts > 0
    shared = weakref.ref(sim.shared)
    hierarchy = weakref.ref(sim.cores[0].hierarchy)
    del sim, result
    assert shared() is None
    assert hierarchy() is None


@pytest.mark.parametrize("policy", ["cold", "traced"])
def test_engine_releases_each_machine(no_gc, monkeypatch, tmp_path,
                                      policy):
    # Records a weakref to the shared memory of every machine the engine
    # builds.
    made = []
    build_shared = simulator.SharedMemory

    def recording_shared(*args, **kwargs):
        shared = build_shared(*args, **kwargs)
        made.append(weakref.ref(shared))
        return shared

    monkeypatch.setattr(simulator, "SharedMemory", recording_shared)
    obs = None
    if policy == "traced":
        # the metrics sampler's probes close over the machine
        obs = ObsConfig(sinks=(), out=str(tmp_path / "trace.json"),
                        metrics_interval=200)
    point = SweepPoint(workload=resolve_workload("mcf"),
                       defense=registry["GhostMinion"](), scale=0.05,
                       max_insts=800)
    for _ in range(2):
        report = run_points([point], cache=False, obs=obs)
        result = next(iter(report.results))
        assert result.insts > 0
        assert (result.metrics is not None) == (obs is not None)
        del report
    assert len(made) == 2
    assert [ref() for ref in made] == [None] * len(made)
