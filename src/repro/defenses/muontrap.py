"""MuonTrap baseline (Ainsworth & Jones, ISCA 2020) — section 6.1.

MuonTrap hides speculative fills in an **L0 filter cache** in front of
the L1, accessed *serially*: an L0 miss adds a cycle to every L1 access,
which is exactly why the paper moves GhostMinion next to the L1 with
parallel access.  Two variants:

* **MuonTrap** (base): a cross-process defence — the L0 is *not* cleared
  on misspeculation, so transiently fetched lines remain usable by the
  same process (this is why mcf shows no overhead under it, §6.1);
* **MuonTrap-Flush**: the whole L0 is flushed on every squash
  (timing-invariant, but loses all speculative *and* committed-resident
  L0 contents — unlike GhostMinion's timestamp-bounded wipe).

Neither variant TimeGuards reads/fills or touches MSHR ordering, so both
remain vulnerable to backwards-in-time attacks — visible in the security
benches, not in performance.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.stats import Stats
from repro.config import SystemConfig
from repro.defenses.base import Defense
from repro.memory.cache import SetAssocCache
from repro.memory.hierarchy import (
    BaseHierarchy,
    FillFn,
    L1Port,
    SharedMemory,
)
from repro.memory.request import MemRequest

L0_ACCESS_CYCLES = 1


class MuonTrapHierarchy(BaseHierarchy):
    """L0 filter caches (I and D) in front of the L1s."""

    def __init__(self, core_id: int, cfg: SystemConfig,
                 shared: SharedMemory, stats: Stats,
                 flush_on_squash: bool = False,
                 l0_size_bytes: int = 2048, l0_assoc: int = 4) -> None:
        super().__init__(core_id, cfg, shared, stats)
        self.flush_on_squash = flush_on_squash
        num_sets = max(1, (l0_size_bytes // 64) // l0_assoc)
        self.l0d = SetAssocCache(num_sets, l0_assoc, "l0d", stats)
        self.l0i = SetAssocCache(num_sets, l0_assoc, "l0i", stats)
        # Interned miss handles for the stall-proof dry-run below.
        self._h_l0d_misses = stats.handle("l0d.misses")
        self._h_l0i_misses = stats.handle("l0i.misses")

    # The L0 filter caches are plain tag stores with no cycle-based
    # state of their own, so the base next_event_cycle (L1-side MSHR
    # completions) remains the only autonomous wakeup source; the
    # _probe_present override below is already side-effect-free
    # (``contains`` probes), as the scheduler's stall analysis requires.

    def _l0_for(self, port: L1Port) -> SetAssocCache:
        return self.l0d if port is self.dport else self.l0i

    # -- serial L0 -> L1 probe -------------------------------------------

    def _probe(self, port: L1Port, req: MemRequest, cycle: int
               ) -> Optional[int]:
        l0 = self._l0_for(port)
        if l0.lookup(req.line, cycle):
            req.hit_level = 0
            return cycle + L0_ACCESS_CYCLES
        if port.cache.lookup(req.line, cycle):
            req.hit_level = 1
            # Serial access: the L0 lookup happened first.
            return cycle + L0_ACCESS_CYCLES + port.latency
        return None

    def _probe_present(self, port: L1Port, line: int, ts: int) -> bool:
        return (self._l0_for(port).contains(line)
                or port.cache.contains(line))

    def _probe_stall_bumps(self, port: L1Port, line: int, ts: int):
        # Pure mirror of the serial L0 -> L1 probe's miss path for the
        # scheduler's MSHR-backpressure dry-run.
        l0 = self._l0_for(port)
        if l0.contains(line) or port.cache.contains(line):
            return None
        h_l0 = (self._h_l0d_misses if l0 is self.l0d
                else self._h_l0i_misses)
        return [h_l0, port.h_misses]

    def load_retry_version(self) -> int:
        # The serial probe reads the L0 before the L1.
        return super().load_retry_version() + self.l0d.version

    # -- L0 miss latency also applies on the miss path --------------------

    def _l2_access(self, req: MemRequest, start: int, train: bool):
        return super()._l2_access(req, start + L0_ACCESS_CYCLES, train)

    def _l2_access_lookahead(self, port: L1Port) -> int:
        return super()._l2_access_lookahead(port) + L0_ACCESS_CYCLES

    def _fills_l2(self, req: MemRequest) -> bool:
        # Speculative lines live in the L0 filter cache only until commit.
        return not req.speculative

    # -- fills: speculative data only enters the L0 -----------------------

    def _fill_targets(self, port: L1Port, req: MemRequest
                      ) -> List[Tuple[FillFn, Optional[int]]]:
        if not req.speculative:
            return super()._fill_targets(port, req)
        if port is self.dport:
            return [(self._fill_l0d, None)]
        return [(self._fill_l0i, None)]

    def _fill_l0d(self, line: int, cycle: int, _ts: int) -> None:
        self.l0d.fill(line, cycle)
        self.shared.directory.on_fill(self.core_id, line)

    def _fill_l0i(self, line: int, cycle: int, _ts: int) -> None:
        self.l0i.fill(line, cycle)

    # -- commit: promote to the L1 ----------------------------------------

    def commit_load(self, req: Optional[MemRequest], ts: int, cycle: int
                    ) -> int:
        if req is None:
            return 0
        self.drain(cycle)
        line = req.line
        if self.l0d.invalidate(line):
            victim = self.dport.cache.fill(line, cycle)
            self._handle_l1_victim(victim, cycle)
            self.shared.directory.on_fill(self.core_id, line)
        return 0

    def commit_ifetch(self, addr: int, ts: int, cycle: int) -> None:
        line = addr >> 6
        if self.l0i.invalidate(line):
            self.iport.cache.fill(line, cycle)

    # -- squash ------------------------------------------------------------

    def squash(self, ts: int, cycle: int) -> None:
        if self.flush_on_squash:
            self.l0d.invalidate_all()
            self.l0i.invalidate_all()
            # In-flight speculative fills must not repopulate the L0
            # after the flush (§6.1: MuonTrap-Flush "clears" transient
            # data as comprehensively as GhostMinion for plain Spectre).
            fill_fns = {self._fill_l0d, self._fill_l0i}
            self.dport.mshrs.drop_fills_above(-1, fill_fns)
            self.iport.mshrs.drop_fills_above(-1, fill_fns)

    # -- coherence ----------------------------------------------------------

    def invalidate_line(self, line: int) -> None:
        super().invalidate_line(line)
        self.l0d.invalidate(line)


def muontrap(flush: bool = False, l0_size_bytes: Optional[int] = None,
             l0_assoc: Optional[int] = None) -> Defense:
    """MuonTrap baseline; ``flush=True`` gives MuonTrap-Flush.

    ``l0_size_bytes``/``l0_assoc`` re-size the filter cache; they fold
    into the hierarchy kwargs (and hence cache digests) only when
    given, so default constructions keep their historical digests.
    """
    kwargs = dict(flush_on_squash=flush)
    if l0_size_bytes is not None:
        kwargs["l0_size_bytes"] = l0_size_bytes
    if l0_assoc is not None:
        kwargs["l0_assoc"] = l0_assoc
    return Defense(
        name="MuonTrap-Flush" if flush else "MuonTrap",
        hierarchy_cls=MuonTrapHierarchy,
        hierarchy_kwargs=kwargs,
    )
