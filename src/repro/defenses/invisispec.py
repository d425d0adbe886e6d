"""InvisiSpec baseline (Yan et al., MICRO 2018) — section 6.1.

Speculative loads are *invisible*: they obtain data without filling any
cache (buffered in the load queue).  At the load's **visibility point**
the line is made visible:

* loads that originally hit the L1 simply *expose* (no timing cost);
* loads that missed must **validate** — refetch the line through the
  (now fillable) hierarchy — and, crucially, the instruction may not
  commit until the validation completes.  This commit-critical-path
  revalidation is where InvisiSpec's overhead comes from (§6.1), in
  contrast to GhostMinion's MuonTrap-like commit move which is off the
  critical path.

Variants: **InvisiSpec-Spectre** reaches visibility when all older
branches have resolved; **InvisiSpec-Future** only at the commit point.
The core drives both via ``Defense.validation_mode``; the hierarchy here
provides invisible access plus the ``validate`` entry point.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.stats import Stats
from repro.config import SystemConfig
from repro.defenses.base import Defense
from repro.memory.hierarchy import BaseHierarchy, FillFn, L1Port, SharedMemory
from repro.memory.request import MemRequest


class InvisiSpecHierarchy(BaseHierarchy):
    """Invisible speculative loads + validation refetches."""

    # InvisiSpec allocates its load buffer in program order and has no
    # Temporal-Order MSHR machinery.
    temporal_order = False
    # Invisible accesses must not train the prefetcher (no visible
    # side effects); validations — non-speculative — do, via refetch().
    speculative_prefetcher_training = False

    def __init__(self, core_id: int, cfg: SystemConfig,
                 shared: SharedMemory, stats: Stats) -> None:
        super().__init__(core_id, cfg, shared, stats)
        self._h_exposures = stats.handle("ivs.exposures")
        self._h_invisible_misses = stats.handle("ivs.invisible_misses")
        self._h_validations = stats.handle("ivs.validations")

    # Validation completion times live on the load-queue entries (the
    # core blocks commit on them), so the base next_event_cycle — L1
    # MSHR completions — already covers every timing source here.

    def _probe(self, port: L1Port, req: MemRequest, cycle: int
               ) -> Optional[int]:
        ready = super()._probe(port, req, cycle)
        if ready is not None and req.speculative and port is self.dport:
            # An L1 hit was already globally visible: exposure, not
            # validation, at the visibility point.
            req.invisible = True
            req.needs_validation = False
            self._counts[self._h_exposures] += 1
        return ready

    def _fill_targets(self, port: L1Port, req: MemRequest
                      ) -> List[Tuple[FillFn, Optional[int]]]:
        if req.speculative and port is self.dport:
            # Invisible: the data is buffered per load-queue entry; no
            # cache anywhere changes state.
            req.invisible = True
            req.needs_validation = True
            self._counts[self._h_invisible_misses] += 1
            return []
        return super()._fill_targets(port, req)

    def _fills_l2(self, req: MemRequest) -> bool:
        # Invisible loads change no cache state anywhere.
        return not (req.speculative and req.kind == "load")

    def validate(self, req: MemRequest, ts: int, cycle: int) -> int:
        """Make a missed invisible load visible; returns completion cycle.

        The caller (the core) blocks the load's commit until then.
        """
        self._counts[self._h_validations] += 1
        return self.refetch(req.addr, ts, cycle)


def invisispec(future: bool = True) -> Defense:
    """InvisiSpec-Future (default) or InvisiSpec-Spectre."""
    return Defense(
        name="InvisiSpec-Future" if future else "InvisiSpec-Spectre",
        hierarchy_cls=InvisiSpecHierarchy,
        validation_mode="future" if future else "spectre",
    )
