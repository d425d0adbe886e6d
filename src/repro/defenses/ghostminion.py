"""The GhostMinion defense: Minions next to each L1 plus Temporal-Order
MSHR mechanisms (section 4).

Feature flags reproduce every configuration of the fig. 9 breakdown:

========================  =========================================
``dminion``               data-side Minion with TimeGuarding
``iminion``               instruction-side Minion
``timeless``              DMinion-Timeless: wipe-on-squash only, no
                          timestamps (vulnerable to backwards-in-time
                          attacks; the fig. 9 strawman)
``coherence_ext``         §4.6 Shared/Invalid rule + commit replay
``prefetch_ext``          §4.7 commit-time prefetcher training
``async_reload``          §6.4 asynchronous reload of lines lost
                          before commit
========================  =========================================
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.stats import Stats
from repro.config import SystemConfig
from repro.core.ghostminion import Minion
from repro.defenses.base import Defense
from repro.memory.hierarchy import (
    BaseHierarchy,
    FillFn,
    L1Port,
    SharedMemory,
)
from repro.memory.mshr import MSHREntry
from repro.memory.request import MemRequest


class GhostMinionHierarchy(BaseHierarchy):
    """Per-core hierarchy with D/I Minions and TimeGuarded MSHRs."""

    def __init__(self, core_id: int, cfg: SystemConfig,
                 shared: SharedMemory, stats: Stats,
                 dminion: bool = True, iminion: bool = True,
                 timeless: bool = False, coherence_ext: bool = True,
                 prefetch_ext: bool = True,
                 async_reload: Optional[bool] = None) -> None:
        super().__init__(core_id, cfg, shared, stats)
        self.dminion_enabled = dminion
        self.iminion_enabled = iminion
        self.timeless = timeless
        self.coherence_ext = coherence_ext
        self.prefetch_ext = prefetch_ext
        if async_reload is None:
            async_reload = cfg.minion_d.async_reload
        self.async_reload = async_reload
        # Temporal-Order MSHR mechanisms only make sense with timestamps.
        self.temporal_order = dminion and not timeless
        # §4.7: with the prefetcher extension, speculative accesses no
        # longer train the (non-speculative) L2 prefetcher.
        self.speculative_prefetcher_training = not prefetch_ext
        rob = cfg.core.rob_entries
        mcfg_d, mcfg_i = cfg.minion_d, cfg.minion_i
        self.dminion = Minion(mcfg_d.num_sets, mcfg_d.assoc, "dminion",
                              stats, timeless=timeless, rob_entries=rob
                              ) if dminion else None
        self.iminion = Minion(mcfg_i.num_sets, mcfg_i.assoc, "iminion",
                              stats, timeless=timeless, rob_entries=rob
                              ) if iminion else None
        self._h_timeguard_loads = stats.handle("gm.timeguard_loads")
        self._h_iprefetches = stats.handle("gm.iprefetches")
        self._h_fill_denied = stats.handle("coh.minion_fill_denied")
        self._h_commit_replays = stats.handle("coh.commit_replays")
        self._h_commit_refetches = stats.handle("coh.commit_refetches")
        self._h_async_reloads = stats.handle("dminion.async_reloads")

    def _tlb_minion_enabled(self) -> bool:
        # §4.9: GhostMinions attach to TLBs too (when the TLB is
        # modelled): speculative walks fill a TimeGuarded TLB-Minion.
        return True

    # ------------------------------------------------------------------
    # §4.7: fetch-directed instruction prefetching into the I-Minion
    # ------------------------------------------------------------------

    def ifetch(self, addr: int, ts: int, cycle: int):
        req = super().ifetch(addr, ts, cycle)
        if (req is not None and self.iminion is not None
                and self.cfg.iprefetch_into_minion):
            self._iprefetch_next(addr + 64, ts, cycle)
        return req

    def _iprefetch_next(self, addr: int, ts: int, cycle: int) -> None:
        """Prefetch the next instruction line into the I-Minion,
        timestamped to the triggering instruction (§4.7): only
        instructions at equal-or-higher timestamps can observe it."""
        line = addr >> 6
        if (self.iminion.get(line) is not None
                or self.iport.cache.contains(line)
                or self.iport.mshrs.find(line) is not None
                or self.iport.mshrs.full()):
            return
        result = self.shared.access(
            line, cycle + self.iport.latency, ts, True, 0,
            self.temporal_order, False, fill_l2=False, core=self.core_id)
        if result is None:
            return
        ready, _level, l2_entry = result
        entry = self.iport.mshrs.allocate(line, ts, ready,
                                          core=self.core_id)
        if l2_entry is not None:
            l2_entry.dependents.append((self.iport.mshrs, entry))
        entry.fill_actions.append((self._fill_iminion, None))
        self._counts[self._h_iprefetches] += 1

    # ------------------------------------------------------------------
    # probes: Minion accessed in parallel with the L1 (§4.3)
    # ------------------------------------------------------------------

    def _minion_for(self, port: L1Port) -> Optional[Minion]:
        if port is self.dport:
            return self.dminion
        return self.iminion

    def _probe(self, port: L1Port, req: MemRequest, cycle: int
               ) -> Optional[int]:
        minion = self._minion_for(port)
        if minion is not None:
            outcome = minion.read(req.line, req.ts)
            if outcome == "hit":
                req.hit_level = 0
                return cycle + port.latency
            if outcome == "timeguard":
                self._counts[self._h_timeguard_loads] += 1
                # The line is invisible at this timestamp; the access
                # proceeds as a miss, but it must not *refetch over* the
                # younger line (handled by the fill rule).
        if port.cache.lookup(req.line, cycle):
            req.hit_level = 1
            return cycle + port.latency
        return None

    def _probe_present(self, port: L1Port, line: int, ts: int) -> bool:
        # Pure presence poll (fetch-stage spin / scheduler stall
        # analysis): must not count Minion reads, unlike the real access
        # path through ``_probe``.
        minion = self._minion_for(port)
        if minion is not None and minion.probe(line, ts):
            return True
        return port.cache.contains(line)

    def load_retry_version(self) -> int:
        # _probe reads the D-Minion's lines and timestamps too.
        version = super().load_retry_version()
        if self.dminion is not None:
            version += self.dminion.version
        return version

    def _probe_stall_bumps(self, port: L1Port, line: int, ts: int):
        # Pure mirror of _probe's miss path for the scheduler's
        # MSHR-backpressure dry-run: the Minion read outcome decides
        # which counters a retrying access bumps each cycle.
        bumps = []
        minion = self._minion_for(port)
        if minion is not None:
            outcome = minion.probe_outcome(line, ts)
            if outcome == "hit":
                return None
            if outcome == "timeguard":
                bumps.append(minion.h_timeguard_blocks)
                bumps.append(self._h_timeguard_loads)
            else:
                bumps.append(minion.h_misses)
        if port.cache.contains(line):
            return None
        bumps.append(port.h_misses)
        return bumps

    # ------------------------------------------------------------------
    # Temporal-Order MSHR mechanisms
    # ------------------------------------------------------------------

    def _leapfrog_victim(self, port: L1Port, req: MemRequest
                         ) -> Optional[MSHREntry]:
        if not self.temporal_order:
            return None
        return port.mshrs.leapfrog_victim(req.ts, self.core_id)

    def _fills_l2(self, req: MemRequest) -> bool:
        # §4.2: the non-speculative hierarchy never sees speculative
        # state changes — speculative misses bypass the L2 and land in
        # the Minion only (when the relevant Minion exists).
        if not req.speculative:
            return True
        if req.kind == "ifetch":
            return self.iminion is None
        return self.dminion is None

    # ------------------------------------------------------------------
    # fills: speculative data goes to the Minion only (§4.2)
    # ------------------------------------------------------------------

    def _fill_targets(self, port: L1Port, req: MemRequest
                      ) -> List[Tuple[FillFn, Optional[int]]]:
        minion = self._minion_for(port)
        if minion is None or not req.speculative:
            return super()._fill_targets(port, req)
        if (port is self.dport and self.coherence_ext
                and not self.shared.directory.minion_fill_allowed(
                    self.core_id, req.line)):
            # §4.6: no Shared Minion copy while a remote core holds the
            # line modified: the data passes through uncached and the
            # load refetches coherently at commit.
            self._counts[self._h_fill_denied] += 1
            req.uncached = True
            return []
        if port is self.dport:
            return [(self._fill_dminion, None)]
        return [(self._fill_iminion, None)]

    def _fill_dminion(self, line: int, cycle: int, ts: int) -> None:
        version = self.shared.directory.version(line)
        outcome = self.dminion.fill(line, ts, version=version, src_level=3)
        if outcome.filled:
            self.shared.directory.on_fill(self.core_id, line)

    def _fill_iminion(self, line: int, cycle: int, ts: int) -> None:
        self.iminion.fill(line, ts)

    # ------------------------------------------------------------------
    # commit: free-slotting (fig. 3) + extensions
    # ------------------------------------------------------------------

    def commit_load(self, req: Optional[MemRequest], ts: int, cycle: int
                    ) -> int:
        if req is None:
            return 0
        if self.dtlb is not None:
            self.dtlb.commit_translation(req.addr, ts, cycle)
        if self.dminion is None:
            return 0
        self.drain(cycle)
        line = req.line
        entry = self.dminion.take_for_commit(line, ts)
        if entry is not None:
            victim = self.dport.cache.fill(line, cycle)
            self._handle_l1_victim(victim, cycle)
            self.shared.directory.on_fill(self.core_id, line)
            extra = 0
            if (self.coherence_ext
                    and entry.version != self.shared.directory.version(line)):
                # §4.6: the speculatively forwarded copy went stale; the
                # load is replayed non-speculatively before commit.
                self._counts[self._h_commit_replays] += 1
                extra = self.refetch(req.addr, ts, cycle) - cycle
            if self.prefetch_ext and entry.src_level >= 2:
                self.shared.train_commit(req.pc, line, cycle)
            return max(0, extra)
        if self.dport.cache.contains(line):
            return 0
        if req.uncached and self.coherence_ext:
            # Denied a Minion copy while remote-modified: gain the
            # coherent copy now, non-speculatively, off the critical
            # path unless the value is needed (we charge the L2 path).
            self._counts[self._h_commit_refetches] += 1
            return self.refetch(req.addr, ts, cycle) - cycle
        if self.async_reload:
            # §6.4: reload lost lines in the background (no commit stall).
            self._counts[self._h_async_reloads] += 1
            self.refetch(req.addr, ts, cycle)
        return 0

    def commit_ifetch(self, addr: int, ts: int, cycle: int) -> None:
        if self.iminion is None:
            return
        entry = self.iminion.take_for_commit(addr >> 6, ts)
        if entry is not None:
            self.iport.cache.fill(addr >> 6, cycle)

    # ------------------------------------------------------------------
    # squash: single-cycle timestamp-bounded wipe (§4.2)
    # ------------------------------------------------------------------

    def squash(self, ts: int, cycle: int) -> None:
        # The fill functions squash-time fill dropping targets, built
        # per squash: kept on the hierarchy, this set of its own bound
        # methods would be a reference cycle.
        minion_fills = {self._fill_dminion, self._fill_iminion}
        if self.dminion is not None:
            self.dminion.wipe_above(ts)
            self.dport.mshrs.drop_fills_above(ts, minion_fills)
        if self.iminion is not None:
            self.iminion.wipe_above(ts)
            self.iport.mshrs.drop_fills_above(ts, minion_fills)
        if self.temporal_order:
            # In-flight entries from squashed instructions sit above the
            # squash point in the timestamp window: stealable/restartable
            # by any future request (see MSHRFile.mark_squashed_above).
            self.dport.mshrs.mark_squashed_above(ts, self.core_id)
            self.iport.mshrs.mark_squashed_above(ts, self.core_id)
            self.shared.l2_mshrs.mark_squashed_above(ts, self.core_id)
        if self.dtlb is not None:
            self.dtlb.squash(ts)

    # ------------------------------------------------------------------
    # coherence (§4.6)
    # ------------------------------------------------------------------

    def invalidate_line(self, line: int) -> None:
        super().invalidate_line(line)
        if self.dminion is not None:
            self.dminion.invalidate(line)

    def _on_own_store(self, line: int, ts: int, cycle: int) -> None:
        if self.coherence_ext and self.dminion is not None:
            # A store upgrade needs exclusivity; the Minion may only hold
            # Shared copies, so our own speculative copy is invalidated.
            self.dminion.invalidate(line)


def ghostminion(dminion: bool = True, iminion: bool = True,
                timeless: bool = False, coherence_ext: bool = True,
                prefetch_ext: bool = True,
                async_reload: Optional[bool] = None,
                strict_fu_order: bool = False,
                early_commit: bool = False,
                full_strictness: bool = False) -> Defense:
    """The full GhostMinion defense (figs. 6-8 configuration).

    ``early_commit=True`` gives the §4.10 Early Commit variant (promote
    loads at branch resolution instead of retirement);
    ``full_strictness=True`` gives §4.10's Full Strictness Order variant
    (one timestamp per speculation epoch rather than per instruction).
    """
    name = "GhostMinion"
    if early_commit:
        name = "GhostMinion-EC"
    if full_strictness:
        name = "GhostMinion-FS"
    return Defense(
        name=name,
        hierarchy_cls=GhostMinionHierarchy,
        hierarchy_kwargs=dict(
            dminion=dminion, iminion=iminion, timeless=timeless,
            coherence_ext=coherence_ext, prefetch_ext=prefetch_ext,
            async_reload=async_reload),
        strict_fu_order=strict_fu_order,
        train_predictor_at_commit=True,
        early_commit=early_commit,
        epoch_timestamps=full_strictness,
    )


def ghostminion_breakdown(which: str) -> Defense:
    """The fig. 9 breakdown configurations by bar name."""
    configs = {
        "DMinion-Timeless": dict(dminion=True, iminion=False, timeless=True,
                                 coherence_ext=False, prefetch_ext=False),
        "DMinion": dict(dminion=True, iminion=False, timeless=False,
                        coherence_ext=False, prefetch_ext=False),
        "IMinion": dict(dminion=False, iminion=True, timeless=False,
                        coherence_ext=False, prefetch_ext=False),
        "Coherence": dict(dminion=True, iminion=False, timeless=False,
                          coherence_ext=True, prefetch_ext=False),
        "Prefetcher": dict(dminion=True, iminion=False, timeless=False,
                           coherence_ext=False, prefetch_ext=True),
        "All": dict(dminion=True, iminion=True, timeless=False,
                    coherence_ext=True, prefetch_ext=True),
    }
    if which not in configs:
        raise KeyError("unknown breakdown config %r" % which)
    defense = ghostminion(**configs[which])
    defense.name = "GhostMinion[%s]" % which
    return defense
