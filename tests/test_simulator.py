"""Top-level simulator and runner."""

import pytest

from repro.config import default_config
from repro.defenses import FIGURE_ORDER, registry
from repro.pipeline.isa import Op
from repro.pipeline.program import ProgramBuilder
from repro.sim.runner import (
    compare_defenses,
    normalised_times,
    run_program,
    run_workload,
)
from repro.sim.simulator import Simulator
from repro.workloads.spec import get_workload


def tiny_program(value=5, name="tiny"):
    b = ProgramBuilder(name)
    b.li(1, value)
    b.li(2, 0)
    b.label("loop")
    b.alu(Op.ADD, 2, 2, 1)
    b.alu(Op.SUB, 1, 1, imm=1)
    b.bnez(1, "loop")
    b.halt()
    return b.build()


def test_single_core_run():
    sim = Simulator(tiny_program(), registry["Unsafe"]())
    result = sim.run()
    assert result.finished
    assert result.insts > 0
    assert 0 < result.ipc <= 8
    assert result.arch_regs()[2] == 15


def test_run_leaves_the_clock_where_a_raise_stopped_it():
    """``run`` keeps the clock in a local; a run that raises must still
    leave ``sim.cycle`` at the cycle it was stepping."""
    sim = Simulator(get_workload("mcf").build(0.04), registry["Unsafe"]())
    core = sim.cores[0]
    step = core.step
    stopped = []

    def step_until_200(cycle):
        if cycle >= 200:
            stopped.append(cycle)
            raise RuntimeError("stepping failed")
        step(cycle)

    core.step = step_until_200
    with pytest.raises(RuntimeError, match="stepping failed"):
        sim.run()
    assert sim.cycle == stopped[0]


def test_multicore_runs_to_completion():
    programs = [tiny_program(3 + i, "t%d" % i) for i in range(4)]
    sim = Simulator(programs, registry["GhostMinion"]())
    result = sim.run()
    assert result.finished
    assert len(result.cores) == 4
    for i, core in enumerate(result.cores):
        assert core.halted
        assert core.regs[2] == sum(range(1, 4 + i))


def test_core_count_mismatch_rejected():
    cfg = default_config(cores=2)
    with pytest.raises(ValueError):
        Simulator(tiny_program(), registry["Unsafe"](), cfg=cfg)


def test_shared_memory_between_cores():
    """A store by core 0 is observed by core 1 (after invalidation)."""
    b0 = ProgramBuilder("writer")
    b0.li(1, 0x1000)
    b0.li(2, 99)
    b0.store(1, 2)
    b0.li(3, 200)
    b0.label("spin")
    b0.alu(Op.SUB, 3, 3, imm=1)
    b0.bnez(3, "spin")
    b0.halt()
    b1 = ProgramBuilder("reader")
    b1.li(3, 300)
    b1.label("spin")
    b1.alu(Op.SUB, 3, 3, imm=1)
    b1.bnez(3, "spin")
    b1.load(4, None, imm=0x1000)
    b1.halt()
    sim = Simulator([b0.build(), b1.build()], registry["GhostMinion"]())
    result = sim.run()
    assert result.finished
    assert result.cores[1].regs[4] == 99


def test_run_workload_by_name():
    result = run_workload("hmmer", "Unsafe", scale=0.05)
    assert result.finished and result.insts > 100


def test_run_workload_unknown_defense():
    with pytest.raises(KeyError):
        run_workload("hmmer", "NotADefense", scale=0.05)


def test_compare_and_normalise():
    results = compare_defenses(["hmmer"], ["Unsafe", "GhostMinion"],
                               scale=0.05)
    table = normalised_times(results)
    assert "GhostMinion" in table["hmmer"]
    assert table["hmmer"]["GhostMinion"] > 0.5


def test_normalise_requires_baseline():
    results = compare_defenses(["hmmer"], ["GhostMinion"], scale=0.05)
    with pytest.raises(KeyError):
        normalised_times(results)


def test_simulator_does_not_mutate_programs():
    """Programs are built once per workload and shared across defenses
    (and across the engine's worker payloads), so simulation must never
    mutate Program state."""
    import copy
    spec = get_workload("hmmer")
    programs = spec.build(0.05)
    snapshot = copy.deepcopy(programs)
    first = run_program(list(programs), "GhostMinion")
    second = run_program(list(programs), "Unsafe")
    third = run_program(list(programs), "GhostMinion")
    assert programs[0].instrs == snapshot[0].instrs
    assert programs[0].memory == snapshot[0].memory
    # reuse gives the same timing as a fresh build
    fresh = run_program(spec.build(0.05), "GhostMinion")
    assert first.cycles == third.cycles == fresh.cycles
    assert second.finished and first.finished


def test_compare_defenses_reuses_programs(monkeypatch):
    """compare_defenses builds each workload's programs once, not once
    per (workload, defense) pair."""
    from repro.workloads.spec import WorkloadSpec
    builds = []
    original = WorkloadSpec.build

    def counting_build(self, scale=1.0):
        builds.append((self.name, scale))
        return original(self, scale)

    monkeypatch.setattr(WorkloadSpec, "build", counting_build)
    compare_defenses(["hmmer"], ["Unsafe", "GhostMinion", "MuonTrap"],
                     scale=0.05)
    assert builds == [("hmmer", 0.05)]


def test_registry_covers_all_figure_bars():
    assert set(FIGURE_ORDER) <= set(registry)
    assert "Unsafe" in registry
    for name in FIGURE_ORDER:
        assert registry[name]().name == name
