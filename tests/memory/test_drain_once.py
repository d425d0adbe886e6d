"""Drain once per cycle.

``HotCore.step`` drains its hierarchy once, before commit; the access
paths called inside the step (``_access``, ``ifetch_probe``) and the
parked issue path then skip the drain.  That is exact only because no
stage of a step allocates or postpones an L1-side MSHR entry so that it
falls due in the cycle the stage runs: a second drain in the same cycle
would find nothing.  These tests repeat the drain after every stage of
every dense step, for every registered hierarchy, and fail the moment a
stage leaves an entry due at the current cycle.
"""

import pytest

from repro.config import default_config
from repro.defenses import HIERARCHIES, registry
from repro.defenses.ghostminion import ghostminion
from repro.memory.hierarchy import BaseHierarchy
from repro.sim.simulator import Simulator
from repro.workloads.spec import get_workload

#: The stages of ``HotCore.step``, in order.
STAGES = ("_commit", "_writeback", "_issue_ready_validations",
          "_early_commit_promotions", "_issue", "_dispatch", "_fetch")


def _starved(cfg):
    """Few MSHRs: full files, leapfrogs, timeleaps and cascades."""
    cfg.l1d.mshrs = 1
    cfg.l1i.mshrs = 1
    cfg.l2.mshrs = 2
    return cfg


def _with_tlb(cfg):
    cfg = _starved(cfg)
    cfg.model_tlb = True
    return cfg


#: (id, defense factory, workload, scale, cfg_fn).  Together they cover
#: every registered hierarchy class (pinned below).
POINTS = [
    ("Unsafe", lambda: registry["Unsafe"](), "mcf", 0.04, _starved),
    ("GhostMinion", lambda: registry["GhostMinion"](), "mcf", 0.04,
     _starved),
    ("GhostMinion-EC", lambda: ghostminion(early_commit=True), "mcf",
     0.04, _starved),
    ("GhostMinion-FS", lambda: ghostminion(full_strictness=True), "mcf",
     0.04, _starved),
    ("GhostMinion-timeless",
     lambda: registry["GhostMinion[DMinion-Timeless]"](), "mcf", 0.04,
     _starved),
    ("GhostMinion-TLB", lambda: registry["GhostMinion"](), "mcf", 0.04,
     _with_tlb),
    ("GhostMinion-4-threads", lambda: registry["GhostMinion"](),
     "canneal", 0.03, _starved),
    ("MuonTrap", lambda: registry["MuonTrap"](), "mcf", 0.04, _starved),
    ("MuonTrap-Flush", lambda: registry["MuonTrap-Flush"](), "mcf", 0.04,
     _starved),
    ("InvisiSpec-Spectre", lambda: registry["InvisiSpec-Spectre"](),
     "mcf", 0.04, _starved),
    ("InvisiSpec-Future", lambda: registry["InvisiSpec-Future"](),
     "canneal", 0.03, _starved),
    ("STT-Spectre", lambda: registry["STT-Spectre"](), "mcf", 0.04,
     _starved),
]


def _build(defense, workload, scale, cfg_fn):
    programs = get_workload(workload).build(scale)
    cfg = cfg_fn(default_config(cores=len(programs)))
    return Simulator(programs, defense, cfg=cfg)


def _instrument(sim):
    """Wrap every stage of every core: after a stage runs at ``cycle``,
    no L1-side MSHR entry of a hierarchy that has drained this cycle may
    be due at ``cycle``; then drain each such hierarchy again.  (In a
    multi-core run the cores step in turn, and a core's hierarchy
    drains at the start of its own step.)  Returns the per-stage check
    counts."""
    hierarchies = [core.hierarchy for core in sim.cores]
    checks = dict.fromkeys(STAGES, 0)

    def check(stage, cycle):
        for hierarchy in hierarchies:
            if hierarchy._drained_cycle != cycle:
                continue
            for port in (hierarchy.dport, hierarchy.iport):
                due = [entry for entry in port.mshrs.entries
                       if entry.ready_cycle <= cycle]
                assert not due, (
                    "%s at cycle %d left %d %s MSHR entr%s due in the "
                    "same cycle" % (stage, cycle, len(due),
                                    port.mshrs.name,
                                    "y" if len(due) == 1 else "ies"))
            hierarchy.drain(cycle)
        checks[stage] += 1

    for core in sim.cores:
        for stage in STAGES:
            original = getattr(core, stage)

            def wrapped(cycle, _original=original, _stage=stage):
                _original(cycle)
                check(_stage, cycle)

            setattr(core, stage, wrapped)
    return checks


@pytest.mark.parametrize("defense_fn,workload,scale,cfg_fn",
                         [point[1:] for point in POINTS],
                         ids=[point[0] for point in POINTS])
def test_no_stage_makes_a_fill_due_in_its_own_cycle(defense_fn, workload,
                                                    scale, cfg_fn):
    plain = _build(defense_fn(), workload, scale, cfg_fn).run()
    sim = _build(defense_fn(), workload, scale, cfg_fn)
    checks = _instrument(sim)
    result = sim.run()
    # The repeated drains found nothing, so they changed nothing.
    assert result.cycles == plain.cycles
    assert result.stats.as_dict() == plain.stats.as_dict()
    # Non-vacuous: the stages that allocate (issue, fetch) ran, with
    # the MSHR files under pressure.
    assert checks["_issue"] > 0 and checks["_fetch"] > 0
    assert sum(result.stats.get(name) for name in (
        "l1d.mshr_retry_full", "l1i.mshr_retry_full",
        "l2.mshr.retry_full")) > 0


def test_points_cover_every_registered_hierarchy():
    covered = {point[1]().hierarchy_cls for point in POINTS}
    registered = {HIERARCHIES.entry(name).factory for name in HIERARCHIES}
    assert registered <= covered


def test_check_catches_a_same_cycle_fill(monkeypatch):
    """The check is not vacuous: an L2 access that reports its data
    ready in the requesting cycle allocates an L1 entry due at once,
    and the stage that made it fails."""
    def instant(self, req, start, train):
        return req.issue_cycle, 3, None

    monkeypatch.setattr(BaseHierarchy, "_l2_access", instant)
    sim = _build(registry["Unsafe"](), "mcf", 0.04, _starved)
    _instrument(sim)
    with pytest.raises(AssertionError, match="same cycle"):
        sim.run()
