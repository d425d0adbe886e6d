"""GhostMinion reproduction: a strictness-ordered cache system for
Spectre mitigation (Ainsworth, MICRO 2021), on a pure-Python
out-of-order timing simulator.

Quickstart::

    from repro import run_workload
    result = run_workload("mcf", "GhostMinion")
    print(result.cycles, result.ipc)

Public surface:

* ``repro.core`` -- Strictness/Temporal Order + the TimeGuarded Minion;
* ``repro.pipeline`` -- the out-of-order core substrate and mini-ISA;
* ``repro.memory`` -- caches, MSHRs, DRAM, prefetcher, coherence;
* ``repro.defenses`` -- GhostMinion and all baselines of figs. 6-8;
* ``repro.workloads`` -- synthetic SPEC2006/SPEC2017/Parsec suites;
* ``repro.attacks`` -- Spectre / SpectreRewind / Speculative-Interference
  gadgets run on the simulator;
* ``repro.sim`` / ``repro.analysis`` -- drivers, stats, power, reports;
* ``repro.exp`` -- the experiment engine: declarative sweeps, parallel
  execution and the on-disk result cache (see docs/experiments.md);
* ``repro.registry`` -- the component registry: spec strings
  (``"MuonTrap(flush=True)"``), plugins and introspection over
  defenses, workloads, predictors and hierarchies (see
  docs/components.md).

docs/architecture.md maps these subsystems on one page (with the flow
of a sweep point through the stack); docs/performance.md documents the
event-driven scheduler and its stall taxonomy.
"""

from repro.config import SystemConfig, default_config
from repro.defenses import registry as defenses, FIGURE_ORDER
from repro.exp import ResultSet, Sweep, run_sweep
from repro.exp.spec import resolve_defense, resolve_workload
from repro.registry import component_registry
from repro.sim.runner import (
    compare_defenses,
    default_scale,
    normalised_times,
    run_program,
    run_workload,
)
from repro.sim.simulator import RunResult, Simulator

__version__ = "1.0.0"

__all__ = [
    "SystemConfig",
    "default_config",
    "default_scale",
    "defenses",
    "FIGURE_ORDER",
    "ResultSet",
    "Sweep",
    "run_sweep",
    "run_workload",
    "run_program",
    "resolve_defense",
    "resolve_workload",
    "component_registry",
    "compare_defenses",
    "normalised_times",
    "Simulator",
    "RunResult",
    "__version__",
]
