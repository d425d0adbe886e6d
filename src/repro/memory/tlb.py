"""Address translation: two-level TLB with a TLB GhostMinion (§4.9).

The paper's "Address translation" paragraph: *"GhostMinions should also
be attached to TLBs and page table walker caches.  Behaviour is similar
to those developed here, without coherence protection."*

Model: a set-associative L1 TLB backed by a larger L2 TLB backed by a
fixed-latency page-table walk.  Speculative walks fill a TimeGuarded
TLB-Minion (reusing :class:`repro.core.ghostminion.Minion` keyed by
virtual page number); committed translations move into the real TLBs,
and the TLB-Minion is wiped on squash — so transient page-table walks
leave no trace an attacker could time.

Translation is off by default (``SystemConfig.model_tlb``) so the
headline figures match the paper's (which does not model TLB effects
either); the TLB ablation bench turns it on.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.stats import Stats
from repro.config import TLBConfig
from repro.core.ghostminion import Minion
from repro.memory.cache import SetAssocCache


class TranslationResult:
    """Outcome of one translation: extra latency plus provenance."""

    __slots__ = ("latency", "level", "filled_minion")

    def __init__(self, latency: int, level: str,
                 filled_minion: bool = False) -> None:
        self.latency = latency
        self.level = level          # 'minion' | 'l1' | 'l2' | 'walk'
        self.filled_minion = filled_minion


class TLBHierarchy:
    """L1 TLB + L2 TLB + walker, with an optional TLB-Minion."""

    def __init__(self, cfg: TLBConfig, stats: Optional[Stats] = None,
                 minion: bool = True, name: str = "dtlb") -> None:
        self.cfg = cfg
        self.name = name
        self.stats = stats if stats is not None else Stats()
        self._counts = self.stats._values
        self.page_shift = cfg.page_bits
        l1_sets = max(1, cfg.l1_entries // cfg.l1_assoc)
        l2_sets = max(1, cfg.l2_entries // cfg.l2_assoc)
        self.l1 = SetAssocCache(l1_sets, cfg.l1_assoc,
                                name + ".l1", self.stats)
        self.l2 = SetAssocCache(l2_sets, cfg.l2_assoc,
                                name + ".l2", self.stats)
        minion_sets = max(1, cfg.minion_entries // cfg.minion_assoc)
        self.minion = (Minion(minion_sets, cfg.minion_assoc,
                              name + ".minion", self.stats)
                       if minion else None)
        self._h_translations = self.stats.handle(name + ".translations")
        self._h_walks = self.stats.handle(name + ".walks")

    def vpn_of(self, addr: int) -> int:
        return addr >> self.page_shift

    # ------------------------------------------------------------------

    def translate(self, addr: int, ts: int, cycle: int,
                  speculative: bool = True) -> TranslationResult:
        """Translate ``addr``; returns the added latency.

        Speculative misses fill only the TLB-Minion; non-speculative
        misses fill the real TLBs directly.
        """
        vpn = self.vpn_of(addr)
        self._counts[self._h_translations] += 1
        if self.minion is not None and speculative:
            if self.minion.read(vpn, ts) == "hit":
                return TranslationResult(0, "minion")
        if self.l1.lookup(vpn, cycle):
            return TranslationResult(0, "l1")
        if self.l2.lookup(vpn, cycle):
            latency = self.cfg.l2_latency
            self._fill(vpn, ts, cycle, speculative, "l2")
            return TranslationResult(latency, "l2")
        latency = self.cfg.l2_latency + self.cfg.walk_latency
        self._counts[self._h_walks] += 1
        filled = self._fill(vpn, ts, cycle, speculative, "walk")
        return TranslationResult(latency, "walk", filled_minion=filled)

    def _fill(self, vpn: int, ts: int, cycle: int, speculative: bool,
              source: str) -> bool:
        if speculative and self.minion is not None:
            outcome = self.minion.fill(vpn, ts)
            return outcome.filled
        self._fill_real(vpn, cycle, source)
        return False

    def _fill_real(self, vpn: int, cycle: int, source: str) -> None:
        self.l1.fill(vpn, cycle)
        if source == "walk":
            self.l2.fill(vpn, cycle)

    # ------------------------------------------------------------------

    def commit_translation(self, addr: int, ts: int, cycle: int) -> None:
        """Commit move: promote the Minion's translation to the TLBs."""
        if self.minion is None:
            return
        vpn = self.vpn_of(addr)
        entry = self.minion.take_for_commit(vpn, ts)
        if entry is not None:
            self._fill_real(vpn, cycle, "walk")

    def squash(self, ts: int) -> None:
        """Wipe transient translations above the squash point."""
        if self.minion is not None:
            self.minion.wipe_above(ts)
