"""The stall taxonomy: runtime behaviour stays inside the documented
sets.

``Core.next_event_cycle`` names every outcome — skippable stall
classes and veto reasons — from the taxonomy in
``src/repro/pipeline/core.py``.  The code-vs-docs half of the old
sync (the tables in docs/performance.md) is enforced by the
``docs-sync`` check (src/repro/lintkit/docs_sync.py, run by
tests/test_lint.py); what remains here is the runtime half a static
pass cannot see: no simulation outcome may leave the documented sets.
"""

import pytest

from repro.config import default_config
from repro.defenses import registry
from repro.pipeline.core import SKIP_CLASSES, VETO_REASONS, StallProof, \
    StallVeto
from repro.sim.simulator import Simulator
from repro.workloads.spec import get_workload

def _starved(cfg):
    cfg.l1d.mshrs = 1
    cfg.l1i.mshrs = 1
    cfg.l2.mshrs = 2
    return cfg


#: Points chosen to reach every stage of the analysis: taint blocking
#: (STT), validation stalls (InvisiSpec), commit-move stalls + temporal
#: order (GhostMinion), MSHR starvation, multi-thread store traffic.
COVERAGE_POINTS = [
    ("mcf", 0.04, "GhostMinion", False),
    ("mcf", 0.04, "STT-Future", True),
    ("hmmer", 0.05, "InvisiSpec-Future", False),
    ("canneal", 0.03, "Unsafe", True),
    ("canneal", 0.03, "MuonTrap", True),
]


@pytest.mark.parametrize(
    "workload,scale,defense,starved", COVERAGE_POINTS,
    ids=["%s-%s%s" % (w, d, "-starved" if s else "")
         for w, _sc, d, s in COVERAGE_POINTS])
def test_runtime_outcomes_stay_inside_taxonomy(workload, scale, defense,
                                               starved):
    programs = get_workload(workload).build(scale)
    cfg = default_config(cores=len(programs))
    if starved:
        cfg = _starved(cfg)
    sim = Simulator(programs, registry[defense](), cfg=cfg)
    result = sim.run()
    undocumented_vetoes = set(sim.veto_counts) - VETO_REASONS
    assert not undocumented_vetoes
    undocumented_skips = set(result.skipped_by_class) - SKIP_CLASSES
    assert not undocumented_skips
    # Telemetry is runtime-only: the canonical stats payload must not
    # grow taxonomy keys.
    for name in result.stats.as_dict():
        assert name not in SKIP_CLASSES and name not in VETO_REASONS


def test_next_event_cycle_returns_taxonomy_outcomes():
    """Direct contract check: every outcome is a StallVeto carrying a
    documented reason or a StallProof whose classes are documented."""
    programs = get_workload("mcf").build(0.04)
    sim = Simulator(programs, registry["STT-Future"]())
    core = sim.cores[0]
    seen_veto = seen_proof = False
    while not core.halted and sim.cycle < 50_000:
        core.step(sim.cycle)
        sim.cycle += 1
        outcome = core.next_event_cycle(sim.cycle)
        if isinstance(outcome, StallVeto):
            seen_veto = True
            assert outcome.reason in VETO_REASONS
        else:
            seen_proof = True
            assert isinstance(outcome, StallProof)
            assert set(outcome.classes) <= SKIP_CLASSES
            assert outcome.wake > sim.cycle
            # Consume the proof as the scheduler would (including the
            # shared-L2 wakeup source), so the walk stays faithful to a
            # real event-driven run.
            wake = min(outcome.wake, sim.shared.next_event_cycle())
            if wake != float("inf") and int(wake) > sim.cycle:
                skipped = int(wake) - sim.cycle
                for handle in outcome.bumps:
                    sim.stats.add(handle, skipped)
                for replay in outcome.replays:
                    replay(sim.cycle, skipped)
                sim.cycle = int(wake)
    assert core.halted
    assert seen_veto and seen_proof
