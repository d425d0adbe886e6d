"""Functional-unit pool with non-pipelined occupancy and the §4.9
strictness-ordered issue policy.

Pipelined ops consume an issue *port* of their class for one cycle;
non-pipelined ops (DIV/REM/FDIV/FSQRT) additionally occupy a unit for
their full latency — the structural hazard SpectreRewind exploits.

``strict_order=True`` implements the paper's fix: a non-pipelined unit
"may only be issued a speculative operation once all previous speculative
operations in timestamp order, that may use the same unit, have issued".
The scheduler walks candidates oldest-first, so the rule reduces to: once
an older op of a class fails to issue, younger ops of that class are
blocked this cycle (per-class blocking flags, reset each cycle).
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.stats import Stats
from repro.config import CoreConfig
from repro.pipeline.isa import FU_CLASSES, FU_INDEX

_UNBLOCKED = (False,) * len(FU_CLASSES)


class FUPool:
    """Issue ports + non-pipelined unit occupancy for one core.

    Per-class state is kept in lists indexed by ``Instr.fu_index`` (the
    order of :data:`repro.pipeline.isa.FU_CLASSES`).  The port rule is
    one count per class, the ports still free this cycle: a pipelined
    op takes one with :meth:`grant`, a non-pipelined one through
    :meth:`try_issue`, which also checks unit occupancy and §4.9
    blocking.  The string-keyed :meth:`try_issue`, :meth:`busy_units`
    and :meth:`ports` are the API for attacks and tests.
    """

    CLASSES = FU_CLASSES

    def __init__(self, cfg: CoreConfig, stats: Optional[Stats] = None,
                 strict_order: bool = False) -> None:
        self.stats = stats if stats is not None else Stats()
        self._counts = self.stats._values
        self.strict_order = strict_order or cfg.strict_fu_order
        ports = {"int": cfg.int_alus, "fp": cfg.fp_alus,
                 "muldiv": cfg.muldiv_units}
        self._ports: List[int] = [ports[name] for name in FU_CLASSES]
        #: Ports still free this cycle, per class.
        self._free: List[int] = list(self._ports)
        # busy-until cycle per non-pipelined unit instance.
        self._busy_until: List[List[int]] = [
            [0] * count for count in self._ports]
        self._blocked: List[bool] = [False] * len(FU_CLASSES)
        self._cycle = -1
        # Per-class stat slots, interned once.
        handle = self.stats.handle
        self._h_strict_blocked = [handle("fu.%s.strict_blocked" % name)
                                  for name in FU_CLASSES]
        self._h_issued = [handle("fu.%s.issued" % name)
                          for name in FU_CLASSES]
        self._h_nonpipelined = [handle("fu.%s.nonpipelined_issued" % name)
                                for name in FU_CLASSES]
        self._h_hazard = [handle("fu.%s.structural_hazard" % name)
                          for name in FU_CLASSES]

    def begin_cycle(self, cycle: int) -> None:
        """Free every port and clear the strict-order blocking flags.

        The core's issue stage calls this once per cycle before its
        first grant; :meth:`try_issue` also calls it on its first call
        in a new cycle.  Resets in place (no per-cycle allocation).
        """
        self._cycle = cycle
        self._free[:] = self._ports
        self._blocked[:] = _UNBLOCKED

    def grant(self, cls: int) -> bool:
        """Grant a pipelined op of class index ``cls`` an issue port in
        the current cycle (see :meth:`begin_cycle`); True on success."""
        free = self._free
        if free[cls]:
            free[cls] -= 1
            self._counts[self._h_issued[cls]] += 1
            return True
        return False

    def try_issue(self, fu_class: str, cycle: int, latency: int,
                  pipelined: bool) -> bool:
        """Attempt to issue one op; True on success.

        Callers must walk candidates in timestamp order within a cycle
        for ``strict_order`` to be meaningful (the core's scheduler does).
        """
        if cycle != self._cycle:
            self.begin_cycle(cycle)
        cls = FU_INDEX[fu_class]
        if pipelined:
            return self.grant(cls)
        if self.strict_order and self._blocked[cls]:
            self._counts[self._h_strict_blocked[cls]] += 1
            return False
        if self._free[cls]:
            # Non-pipelined: need a unit instance free for the whole
            # latency.
            units = self._busy_until[cls]
            for idx, busy_until in enumerate(units):
                if busy_until <= cycle:
                    units[idx] = cycle + latency
                    self._free[cls] -= 1
                    self._counts[self._h_issued[cls]] += 1
                    self._counts[self._h_nonpipelined[cls]] += 1
                    return True
            self._counts[self._h_hazard[cls]] += 1
        if self.strict_order:
            self._blocked[cls] = True
        return False

    # -- introspection (attacks + tests) -----------------------------------

    def busy_units(self, fu_class: str, cycle: int) -> int:
        return sum(1 for busy in self._busy_until[FU_INDEX[fu_class]]
                   if busy > cycle)

    def ports(self, fu_class: str) -> int:
        return self._ports[FU_INDEX[fu_class]]
