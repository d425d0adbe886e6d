"""Cycle-domain metrics: periodic sampling of simulator probes.

A :class:`MetricsSampler` owns a list of named probes — zero-argument
callables closed over live simulator state — and records one row per
``interval`` cycles.  The simulator drives it through
``Tracer.on_cycle``: once per simulated cycle on the dense path, and
once after every bulk skip-window jump on the event-driven path.  A
jump past several due points records a single row at the landing cycle
(nothing changed inside the window — that is what the stall proof
proved), so the series stays truthful under cycle skipping.

The builtin probe catalogue (:func:`default_probes`) is documented in
``docs/observability.md``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

Probe = Callable[[int], float]


class MetricsSampler:
    """Sample registered probes into a time series every ``interval``
    cycles."""

    def __init__(self, interval: int = 1000) -> None:
        if interval <= 0:
            raise ValueError("metrics interval must be positive, got %r"
                             % (interval,))
        self.interval = interval
        self.names: List[str] = []
        self._probes: List[Probe] = []
        self.samples: List[List[float]] = []
        self._next_due = 0
        #: True while the sampler takes the builtin catalogue
        #: (:func:`default_probes`), which ``Simulator.attach_obs``
        #: binds to each machine it attaches to; binding custom probes
        #: clears it.
        self.defaults = True

    def bind(self, probes: Sequence[Tuple[str, Probe]],
             defaults: bool = False) -> None:
        """Install the probe list (replacing any previous one);
        ``defaults`` marks it as the builtin catalogue."""
        self.names = [name for name, _probe in probes]
        self._probes = [probe for _name, probe in probes]
        self.defaults = defaults

    def on_cycle(self, cycle: int) -> None:
        if cycle < self._next_due:
            return
        row: List[float] = [float(cycle)]
        for probe in self._probes:
            row.append(float(probe(cycle)))
        self.samples.append(row)
        # Next due point on the interval grid strictly after `cycle`
        # (a skip-window jump may have crossed several grid points —
        # they collapse into this one sample).
        self._next_due = cycle - (cycle % self.interval) + self.interval

    def series(self) -> Dict[str, object]:
        """JSON-able view: column names + rows (cycle first)."""
        return {
            "interval": self.interval,
            "columns": ["cycle"] + list(self.names),
            "samples": [list(row) for row in self.samples],
        }


def default_probes(sim) -> List[Tuple[str, Probe]]:
    """The builtin probe catalogue over a :class:`Simulator`.

    ===================  =================================================
    name                 meaning
    ===================  =================================================
    ``ipc``              committed instructions per cycle so far
    ``rob_occupancy``    in-flight ROB entries summed over cores
    ``mshr_occupancy``   allocated MSHRs (all L1 files + shared L2)
    ``l1d_misses``       cumulative L1-D misses (all cores)
    ``l2_misses``        cumulative shared-L2 misses
    ``skip_fraction``    fraction of elapsed cycles the scheduler skipped
    ===================  =================================================
    """
    cores = sim.cores
    stats = sim.stats
    shared = sim.shared

    def ipc(cycle: int) -> float:
        if cycle <= 0:
            return 0.0
        return sum(core.committed_insts for core in cores) / cycle

    def rob_occupancy(cycle: int) -> float:
        return float(sum(len(core.rob) for core in cores))

    def mshr_occupancy(cycle: int) -> float:
        total = shared.l2_mshrs.occupancy()
        for hierarchy in shared.hierarchies:
            total += hierarchy.dport.mshrs.occupancy()
            total += hierarchy.iport.mshrs.occupancy()
        return float(total)

    def l1d_misses(cycle: int) -> float:
        return stats.get("l1d.misses")

    def l2_misses(cycle: int) -> float:
        return stats.get("l2.misses")

    def skip_fraction(cycle: int) -> float:
        if cycle <= 0:
            return 0.0
        return sim.skipped_cycles / cycle

    return [
        ("ipc", ipc),
        ("rob_occupancy", rob_occupancy),
        ("mshr_occupancy", mshr_occupancy),
        ("l1d_misses", l1d_misses),
        ("l2_misses", l2_misses),
        ("skip_fraction", skip_fraction),
    ]


__all__ = ["MetricsSampler", "Probe", "default_probes"]
