"""Per-core memory hierarchy and the shared L2/DRAM system.

:class:`BaseHierarchy` implements the **unsafe baseline**: speculative
loads fill the L1 and L2 directly, the prefetcher trains on speculative
accesses, and nothing is cleaned on a squash.  Defenses subclass it and
override the hook methods (``_probe``, ``_fill_targets``,
``_leapfrog_victim``, ``commit_load``, ``squash`` ...); see
``repro.defenses``.

Timing model: a request computes its completion cycle at access time and
registers MSHR occupancy at each level it misses in.  Completion times are
*mutable* (see :mod:`repro.memory.request`) so GhostMinion's leapfrogging
and timeleaping can cancel or postpone in-flight requests.  Fills are
applied when MSHR entries drain at their completion cycle; every public
entry point drains first, so the visible cache state is always up to date.
A hierarchy drains at most once per cycle: nothing allocates or
postpones an MSHR entry so that it falls due in the cycle it is touched,
so a second drain in the same cycle would find nothing (pinned stage by
stage for every registered hierarchy in ``tests/memory/test_drain_once.py``).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.analysis.stats import Stats
from repro.config import SystemConfig
from repro.memory.cache import SetAssocCache
from repro.memory.coherence import Directory
from repro.memory.dram import DRAM
from repro.memory.mshr import MSHREntry, MSHRFile
from repro.memory.prefetcher import StridePrefetcher
from repro.memory.request import MemRequest
from repro.memory.tlb import TLBHierarchy

FillFn = Callable[[int, int, int], None]


class LoadBlockProof:
    """Proof that a load/ifetch would hit MSHR backpressure this cycle
    — and every cycle until the next memory-system event.

    Produced by the side-effect-free dry-runs
    :meth:`BaseHierarchy.load_block_proof` /
    :meth:`BaseHierarchy.ifetch_block_proof` for the event-driven
    scheduler.  ``bumps`` is the list of interned stat slot *handles*
    (see :meth:`repro.analysis.stats.Stats.handle`) the retrying
    access would bump once per cycle; ``replays`` is a tuple of
    ``fn(cycle, k)`` callables that reproduce the non-counter
    side effects of ``k`` back-to-back retries (today: prefetcher
    training) and are invoked once when a skip window is committed.
    ``wake`` caps the skip window: the first cycle at which the retry
    might stop blocking.  For L2-side backpressure this is *earlier*
    than the next L2 completion, because the dense retry path drains
    the L2 MSHRs at its access cycle ``cycle + L1 latency`` — a slot
    frees (and the load allocates) that many cycles before the entry's
    ready cycle.
    """

    __slots__ = ("bumps", "replays", "wake")

    def __init__(self, bumps: List[int], replays: Tuple = (),
                 wake: float = float("inf")) -> None:
        self.bumps = bumps
        self.replays = replays
        self.wake = wake


class SharedMemory:
    """The shared part of the machine: L2, its MSHRs, DRAM, directory,
    and the L2 stride prefetcher."""

    def __init__(self, cfg: SystemConfig, stats: Stats) -> None:
        self.cfg = cfg
        self.stats = stats
        self._counts = self.stats._values
        self.l2 = SetAssocCache(cfg.l2.num_sets, cfg.l2.assoc, "l2", stats)
        self.l2_mshrs = MSHRFile(cfg.l2.mshrs, "l2.mshr", stats)
        self.dram = DRAM(cfg.dram, stats)
        self.directory = Directory(cfg.cores, stats)
        self.prefetcher = (StridePrefetcher(cfg.prefetcher_rpt_entries,
                                            stats=stats)
                           if cfg.l2_prefetcher else None)
        self.hierarchies: List["BaseHierarchy"] = []
        # §4.9 cross-thread contention: macro-level per-core quota on the
        # shared MSHRs (the simplest "predict utilisation per thread"
        # allocation the paper suggests).
        self._mshr_quota = (max(1, cfg.l2.mshrs // max(1, cfg.cores))
                            if cfg.l2_mshr_partitioning and cfg.cores > 1
                            else None)
        self._last_drain = -1
        # Hot-path counters interned once; see repro.analysis.stats.
        self._h_l2_misses = stats.handle("l2.misses")
        self._h_demand_promotions = stats.handle("pf.demand_promotions")
        self._h_quota_retry = stats.handle("l2.mshr.quota_retry")
        self._h_retry_full = stats.handle("l2.mshr.retry_full")
        self._h_pf_trains = stats.handle("pf.trains")
        self._h_pf_commit_notifies = stats.handle("pf.commit_notifies")
        self._h_pf_dropped_full = stats.handle("pf.dropped_full")
        self._h_pf_issued = stats.handle("pf.issued")

    def _over_quota(self, core: int) -> bool:
        if self._mshr_quota is None:
            return False
        held = sum(1 for e in self.l2_mshrs.entries
                   if e.core == core and not e.prefetch)
        return held >= self._mshr_quota

    def register(self, hierarchy: "BaseHierarchy") -> None:
        self.hierarchies.append(hierarchy)

    # -- completion -----------------------------------------------------

    def next_event_cycle(self) -> float:
        """Earliest cycle at which shared state can change on its own:
        the next L2 MSHR completion (``inf`` when nothing is in flight).
        DRAM, the directory and the prefetcher hold no cycle-based state,
        so in-flight misses are the only autonomous wakeup source."""
        return self.l2_mshrs.next_ready_cycle()

    def drain(self, cycle: int) -> None:
        if self._last_drain >= cycle:
            return
        self._last_drain = cycle
        for entry in self.l2_mshrs.drain(cycle):
            self._apply_fills(entry, cycle)

    def _apply_fills(self, entry: MSHREntry, cycle: int) -> None:
        for fill_fn, fill_ts in entry.fill_actions:
            ts = entry.ts if fill_ts is None else fill_ts
            fill_fn(entry.line, cycle, ts)

    def _fill_l2(self, line: int, cycle: int, _ts: int) -> None:
        self.l2.fill(line, cycle)

    # -- access paths ----------------------------------------------------

    def access(self, line: int, start: int, ts: int, speculative: bool,
               pc: int, temporal_order: bool, train: bool,
               fill_l2: bool = True, core: int = 0
               ) -> Optional[Tuple[int, int, Optional[MSHREntry]]]:
        """Access the L2 for a line needed at an L1 at cycle ``start``.

        Returns ``(cycle data reaches the L1, hit level, l2 entry)`` or
        ``None`` when the L2 MSHRs exert backpressure (the L1 must
        retry).  ``fill_l2=False`` keeps the access invisible to the
        non-speculative hierarchy (GhostMinion/MuonTrap/InvisiSpec
        speculative misses bypass the L2 on their way to the L1-side
        structure).
        """
        self.drain(start)
        lat = self.cfg.l2.latency
        if train and self.prefetcher is not None:
            self._train_prefetcher(pc, line, start, speculative)
        if self.l2.lookup(line, start):
            return start + lat, 2, None
        entry = self.l2_mshrs.find(line)
        if entry is not None:
            if fill_l2 and not entry.has_fill(self._fill_l2):
                entry.fill_actions.append((self._fill_l2, None))
            if entry.prefetch:
                # Prefetches are non-speculative actions (trained on
                # committed or architecturally harmless streams), so a
                # demand may freely observe their progress: promote the
                # entry without restarting it.
                entry.prefetch = False
                entry.ts = ts
                entry.core = core
                self._counts[self._h_demand_promotions] += 1
            elif temporal_order and (entry.squashed or (
                    entry.core == core and entry.ts > ts)):
                # Timeleap: restart the in-flight request as if issued
                # by the older load (§4.5).  Squashed-transient entries
                # sit above the window and always restart.
                dram_lat = self.dram.access(line, speculative)
                self.l2_mshrs.timeleap(entry, ts, start + lat + dram_lat)
                entry.core = core
                return entry.ready_cycle, 3, entry
            return max(entry.ready_cycle, start + lat), 3, entry
        if self._over_quota(core):
            self._counts[self._h_quota_retry] += 1
            return None
        victim = None
        if self.l2_mshrs.full():
            if temporal_order:
                victim = self.l2_mshrs.leapfrog_victim(ts, core)
            if victim is None:
                self._counts[self._h_retry_full] += 1
                return None
        dram_lat = self.dram.access(line, speculative)
        ready = start + lat + dram_lat
        if victim is not None:
            entry = self.l2_mshrs.steal(victim, line, ts, ready, core=core)
        else:
            entry = self.l2_mshrs.allocate(line, ts, ready, core=core)
        if fill_l2:
            entry.fill_actions.append((self._fill_l2, None))
        return ready, 3, entry

    def access_block_proof(self, line: int, ts: int, pc: int, cycle: int,
                           lookahead: int, speculative: bool,
                           temporal_order: bool, train: bool, core: int):
        """Side-effect-free dry-run of :meth:`access` for the scheduler.

        Returns ``(bump_handles, replays, wake)`` when an access to
        ``line`` would *provably* hit L2-MSHR backpressure (quota or
        full file) this cycle and on every subsequent cycle before
        ``wake`` — or ``None`` when the access might succeed (or the
        block is not provable), in which case the scheduler must step
        densely.

        ``lookahead`` is how far ahead of the core's cycle the dense
        retry path accesses the L2 (the L1 latency, plus the L0 cycle
        under MuonTrap): :meth:`access` drains completions up to its
        ``start`` cycle, so a pending L2 entry frees its slot
        ``lookahead`` cycles *before* its ready cycle.  ``wake`` is
        therefore ``next_ready_cycle() - lookahead``; a proof is only
        issued when that lies strictly in the future.

        The proof's stability rests on the skip-window invariant: no
        fill drains, no commit/squash runs and no other core acts
        before the window's wake cycle, so cache contents, MSHR
        occupancy and the per-core quota are all frozen.  The one
        mutable participant is the stride prefetcher, which the dense
        loop would train once per retry cycle; that is handled by a
        replay callable (see :meth:`_replay_trains`), and cases where
        repeated training could *issue* a prefetch (new MSHR state
        mid-window) return ``None`` instead.
        """
        if self.l2.contains(line):
            return None  # L2 hit: the access would complete
        if self.l2_mshrs.find(line) is not None:
            return None  # would attach / promote / timeleap: progress
        wake = self.l2_mshrs.next_ready_cycle() - lookahead
        if wake <= cycle:
            return None  # dense's drain-ahead would free a slot now
        if self._over_quota(core):
            retry_bump = self._h_quota_retry
        elif self.l2_mshrs.full():
            if temporal_order and \
                    self.l2_mshrs.leapfrog_victim(ts, core) is not None:
                return None  # would steal a slot: progress
            retry_bump = self._h_retry_full
        else:
            return None  # a free slot: the access would allocate
        bumps = [self._h_l2_misses, retry_bump]
        replays: Tuple = ()
        if train and self.prefetcher is not None:
            entry = self.prefetcher.peek(pc)
            if entry is None or entry.last_line != line:
                return None  # first-touch training: step densely once
            # Repeated same-line training decays confidence, so a
            # prediction can only fire on the window's first train
            # (confidence 3 -> 2).  With a full MSHR file every fired
            # prefetch is provably dropped (deterministic counter
            # bumps); otherwise it could allocate -> not skippable.
            if entry.confidence >= 3 and entry.stride != 0 \
                    and not self.l2_mshrs.full():
                return None
            replays = (lambda start, k: self._replay_trains(
                pc, line, speculative, start, k),)
        return bumps, replays, wake

    def _replay_trains(self, pc: int, line: int, speculative: bool,
                       cycle: int, k: int) -> None:
        """Reproduce ``k`` back-to-back retry-cycle prefetcher trains.

        Real :meth:`StridePrefetcher.train` calls are made until the
        RPT entry reaches its same-line fixed point (stride 0,
        confidence 0 — at most four calls), then the remaining
        ``k - steps`` trains collapse to a bulk ``pf.trains`` bump.
        Any predictions fired by the real calls go through
        :meth:`_issue_prefetch` exactly as in the dense loop;
        :meth:`access_block_proof` only emits this replay when every
        such prefetch is provably dropped or skipped.
        """
        steps = 0
        while steps < k:
            entry = self.prefetcher.peek(pc)
            if entry is not None and entry.last_line == line \
                    and entry.stride == 0 and entry.confidence == 0:
                break
            for pf_line in self.prefetcher.train(pc, line):
                self._issue_prefetch(pf_line, cycle, speculative)
            steps += 1
        if steps < k:
            self._counts[self._h_pf_trains] += k - steps

    def timeleap_restart(self, line: int, start: int, ts: int,
                         speculative: bool, core: int = 0) -> int:
        """Restart an in-flight line for an older requester (§4.5).

        Returns the new cycle at which data reaches the L1.
        """
        self.drain(start)
        lat = self.cfg.l2.latency
        if self.l2.contains(line):
            return start + lat
        entry = self.l2_mshrs.find(line)
        if entry is not None:
            dram_lat = self.dram.access(line, speculative)
            self.l2_mshrs.timeleap(entry, ts, start + lat + dram_lat)
            entry.core = core
            return entry.ready_cycle
        # The L2 portion already completed (and was perhaps evicted);
        # model a fresh L2-side access without new allocation.
        dram_lat = self.dram.access(line, speculative)
        return start + lat + dram_lat

    def refetch(self, line: int, start: int, core_id: int) -> Tuple[int, int]:
        """Non-speculative eager refetch (validation, async reload,
        coherence replay).  Fills the L2 immediately and returns
        ``(cycle data reaches the L1, hit level)``.

        Modelled without MSHR occupancy: these events are rare and the
        eager fill avoids backpressure deadlocks (DESIGN.md).
        """
        self.drain(start)
        lat = self.cfg.l2.latency
        if self.prefetcher is not None:
            self._train_prefetcher(0, line, start, False)
        if self.l2.lookup(line, start):
            return start + lat, 2
        dram_lat = self.dram.access(line, False)
        self.l2.fill(line, start)
        return start + lat + dram_lat, 3

    # -- prefetching ------------------------------------------------------

    def _train_prefetcher(self, pc: int, line: int, cycle: int,
                          speculative: bool) -> None:
        predictions = self.prefetcher.train(pc, line)
        for pf_line in predictions:
            self._issue_prefetch(pf_line, cycle, speculative)

    def train_commit(self, pc: int, line: int, cycle: int) -> None:
        """GhostMinion prefetcher extension (§4.7): commit-time
        notification of a committed memory access."""
        if self.prefetcher is None:
            return
        self.drain(cycle)
        self._counts[self._h_pf_commit_notifies] += 1
        self._train_prefetcher(pc, line, cycle, False)

    def _issue_prefetch(self, line: int, cycle: int,
                        speculative: bool) -> None:
        if line < 0:
            return
        if self.l2.contains(line) or self.l2_mshrs.find(line) is not None:
            return
        if self.l2_mshrs.full():
            self._counts[self._h_pf_dropped_full] += 1
            return
        dram_lat = self.dram.access(line, speculative)
        ready = cycle + self.cfg.l2.latency + dram_lat
        entry = self.l2_mshrs.allocate(line, 0, ready, prefetch=True)
        entry.fill_actions.append((self._fill_l2, None))
        self._counts[self._h_pf_issued] += 1

    # -- coherence --------------------------------------------------------

    def store_commit(self, core_id: int, line: int, cycle: int) -> None:
        """A store commits on ``core_id``: upgrade + remote invalidations."""
        victims = self.directory.on_store_commit(core_id, line)
        for hierarchy in self.hierarchies:
            if hierarchy.core_id in victims:
                hierarchy.invalidate_line(line)
        # Write-allocate into the L2 so later reads hit.
        self.l2.fill(line, cycle, dirty=True)


class L1Port:
    """One L1 cache plus its MSHR file (instruction or data side)."""

    def __init__(self, cache: SetAssocCache, mshrs: MSHRFile,
                 latency: int, name: str, stats: Stats) -> None:
        self.cache = cache
        self.mshrs = mshrs
        self.latency = latency
        self.name = name
        # Public: the block-proof dry-runs and defense overrides emit
        # these handles instead of re-interning names per cycle.
        self.h_misses = stats.handle(cache.name + ".misses")
        self.h_mshr_retry_full = stats.handle(
            cache.name + ".mshr_retry_full")


class BaseHierarchy:
    """Unsafe-baseline per-core hierarchy; defenses subclass this."""

    #: Enable Temporal-Order MSHR mechanisms (leapfrog/timeleap).
    temporal_order = False
    #: Train the L2 prefetcher on speculative demand accesses.
    speculative_prefetcher_training = True

    def __init__(self, core_id: int, cfg: SystemConfig,
                 shared: SharedMemory, stats: Stats) -> None:
        self.core_id = core_id
        self.cfg = cfg
        self.shared = shared
        self.stats = stats
        self._counts = self.stats._values
        self.dport = L1Port(
            SetAssocCache(cfg.l1d.num_sets, cfg.l1d.assoc, "l1d", stats),
            MSHRFile(cfg.l1d.mshrs, "l1d.mshr", stats),
            cfg.l1d.latency, "d", stats)
        self.iport = L1Port(
            SetAssocCache(cfg.l1i.num_sets, cfg.l1i.assoc, "l1i", stats),
            MSHRFile(cfg.l1i.mshrs, "l1i.mshr", stats),
            cfg.l1i.latency, "i", stats)
        # Optional address translation (§4.9); the unsafe baseline fills
        # the real TLBs speculatively (no Minion).
        self.dtlb = (TLBHierarchy(cfg.tlb, stats,
                                  minion=self._tlb_minion_enabled())
                     if cfg.model_tlb else None)
        self._h_loads_issued = stats.handle("mem.loads_issued")
        self._h_ifetches_issued = stats.handle("mem.ifetches_issued")
        self._h_stores_committed = stats.handle("mem.stores_committed")
        self._h_refetches = stats.handle("mem.refetches")
        self._h_timeleap_loads = stats.handle("gm.timeleap_loads")
        self._h_leapfrog_loads = stats.handle("gm.leapfrog_loads")
        #: The last cycle :meth:`drain` ran at (see the module doc).
        self._drained_cycle = -1
        #: Set by each :meth:`load` that returns None: the stat handles
        #: the retry bumped when it was an L1-side full-file retry with
        #: no data TLB (a replayable retry, see
        #: :meth:`load_retry_version`), else None.
        self.retry_bumps: Optional[List[int]] = None
        shared.register(self)

    def _tlb_minion_enabled(self) -> bool:
        """Hook: whether speculative translations are Minion-buffered."""
        return False

    # ------------------------------------------------------------------
    # public API used by the core
    # ------------------------------------------------------------------

    def drain(self, cycle: int) -> None:
        # Runs once per core per dense cycle and on the entry points
        # called outside the step loop: each MSHR file, the shared L2's
        # included, is only entered when its earliest completion is due
        # (unrolled: the port-tuple loop cost ~0.1 us more per call).
        # Skipping the shared drain leaves its ``_last_drain`` guard
        # behind, which is exact: an L2 entry always comes due after
        # the cycle it is allocated or restarted in, so a later drain
        # up to this cycle finds nothing either.
        self._drained_cycle = cycle
        shared = self.shared
        if shared.l2_mshrs._next_ready <= cycle:
            shared.drain(cycle)
        mshrs = self.dport.mshrs
        if mshrs._next_ready <= cycle:
            for entry in mshrs.drain(cycle):
                shared._apply_fills(entry, cycle)
        mshrs = self.iport.mshrs
        if mshrs._next_ready <= cycle:
            for entry in mshrs.drain(cycle):
                shared._apply_fills(entry, cycle)

    def next_event_cycle(self) -> float:
        """Earliest cycle at which this hierarchy can change state on its
        own (``inf`` when idle): the next L1-side MSHR completion.

        The event-driven scheduler takes the minimum over every core's
        hierarchy plus :meth:`SharedMemory.next_event_cycle`; subclasses
        that add their own cycle-based timing state must override and
        fold their wakeups into the minimum.  (Minions, L0 filter caches
        and TLB-Minions are timestamp-ordered, not cycle-timed, so the
        defenses shipped here need no extra sources.)
        """
        dready = self.dport.mshrs._next_ready
        iready = self.iport.mshrs._next_ready
        return dready if dready <= iready else iready

    def load(self, addr: int, ts: int, cycle: int, speculative: bool = True,
             pc: int = 0) -> Optional[MemRequest]:
        """Issue a data load.  Returns a request handle, or ``None`` when
        MSHR backpressure means the core must retry next cycle."""
        self._counts[self._h_loads_issued] += 1
        return self._access(self.dport, "load", addr, ts, cycle,
                            speculative, pc)

    def ifetch(self, addr: int, ts: int, cycle: int
               ) -> Optional[MemRequest]:
        """Issue an instruction-line fetch (always speculative)."""
        self._counts[self._h_ifetches_issued] += 1
        return self._access(self.iport, "ifetch", addr, ts, cycle,
                            True, addr)

    def ifetch_probe(self, addr: int, ts: int, cycle: int) -> bool:
        """Presence check for the fetch stage (no side effects besides
        draining due fills, which inside a step have drained already)."""
        if self._drained_cycle != cycle:
            self.drain(cycle)
        return self._probe_present(self.iport, addr >> 6, ts)

    def ifetch_would_hit(self, addr: int, ts: int) -> bool:
        """Pure form of :meth:`ifetch_probe`: no drain, no counters.

        Used by the event-driven scheduler's stall analysis, which runs
        only when every due fill has already drained.
        """
        return self._probe_present(self.iport, addr >> 6, ts)

    def load_retry_version(self) -> int:
        """Version of everything a replayable load retry reads.

        A :meth:`load` that set :attr:`retry_bumps` returns None again,
        with the same bumps, while this value is unchanged: the retry
        reads only the D-side L1 cache, its MSHR file and the
        occupants' timestamps, each of which counts its own changes.
        Hierarchies whose ``_probe`` reads another structure (a Minion,
        an L0) add its version; the core parks a retrying load on this
        value instead of calling :meth:`load` again (docs/performance.md,
        "Parked issue attempts").  Like the scheduler's dry-runs, this
        relies on ``_probe``'s miss path changing nothing but the
        counters :meth:`_probe_stall_bumps` names.
        """
        port = self.dport
        return port.cache.version + port.mshrs.version

    # ------------------------------------------------------------------
    # MSHR-backpressure dry-runs (event-driven scheduler)
    # ------------------------------------------------------------------

    def load_block_proof(self, addr: int, ts: int, pc: int, cycle: int
                         ) -> Optional[LoadBlockProof]:
        """Side-effect-free dry-run of :meth:`load` for the scheduler.

        Returns a :class:`LoadBlockProof` when issuing this load now
        would *provably* return ``None`` (MSHR backpressure) — and
        keep doing so, with an identical per-cycle side-effect set,
        until the next MSHR completion anywhere in the hierarchy.
        Returns ``None`` whenever the load might succeed or the block
        is not provable; the scheduler then steps densely, which is
        always safe.

        Must be kept in lockstep with :meth:`load`/:meth:`_access`;
        subclasses that add impure probe or leapfrog behaviour must
        override :meth:`_probe_stall_bumps` (or this method) so the
        dry-run stays side-effect-free.
        """
        if self.dtlb is not None:
            # Translation has per-cycle state of its own (TLB fills,
            # recency); retries under a modelled TLB step densely.
            return None
        port = self.dport
        line = addr >> 6
        probe_bumps = self._probe_stall_bumps(port, line, ts)
        if probe_bumps is None:
            return None  # the L1-side probe would hit: load completes
        if port.mshrs.find(line) is not None:
            return None  # would attach (or timeleap): progress
        bumps = [self._h_loads_issued] + probe_bumps
        if port.mshrs.full():
            req = MemRequest("load", addr, ts, self.core_id, 0, True, pc)
            if self._leapfrog_victim(port, req) is not None:
                return None  # would steal a slot: progress
            bumps.append(port.h_mshr_retry_full)
            return LoadBlockProof(bumps)
        shared = self.shared.access_block_proof(
            line, ts, pc, cycle, self._l2_access_lookahead(port), True,
            self.temporal_order, self.speculative_prefetcher_training,
            self.core_id)
        if shared is None:
            return None
        shared_bumps, replays, wake = shared
        return LoadBlockProof(bumps + shared_bumps, replays, wake)

    def ifetch_block_proof(self, addr: int, ts: int, cycle: int
                           ) -> Optional[LoadBlockProof]:
        """Side-effect-free dry-run of :meth:`ifetch`, as
        :meth:`load_block_proof` (instruction fetches never translate
        through the data TLB and never train the L2 prefetcher)."""
        port = self.iport
        line = addr >> 6
        probe_bumps = self._probe_stall_bumps(port, line, ts)
        if probe_bumps is None:
            return None
        if port.mshrs.find(line) is not None:
            return None
        bumps = [self._h_ifetches_issued] + probe_bumps
        if port.mshrs.full():
            req = MemRequest("ifetch", addr, ts, self.core_id, 0, True)
            if self._leapfrog_victim(port, req) is not None:
                return None
            bumps.append(port.h_mshr_retry_full)
            return LoadBlockProof(bumps)
        shared = self.shared.access_block_proof(
            line, ts, addr, cycle, self._l2_access_lookahead(port), True,
            self.temporal_order, False, self.core_id)
        if shared is None:
            return None
        shared_bumps, replays, wake = shared
        return LoadBlockProof(bumps + shared_bumps, replays, wake)

    def _l2_access_lookahead(self, port: L1Port) -> int:
        """How far ahead of the core's cycle a retrying access reaches
        the L2 (``start - cycle`` in :meth:`_access`): the dense path
        drains L2 completions up to that cycle, so the block proofs
        must wake that many cycles early.  Kept in lockstep with
        :meth:`_l2_access` overrides (MuonTrap adds its L0 cycle)."""
        return port.latency

    def _probe_stall_bumps(self, port: L1Port, line: int, ts: int
                           ) -> Optional[List[int]]:
        """Pure companion to :meth:`_probe` for the stall dry-runs.

        ``None`` when :meth:`_probe` would hit (the access would
        complete without MSHR pressure); otherwise the stat slot
        handles the probe's miss path bumps once per retry cycle.
        Defense hierarchies with extra probe structures override this
        alongside :meth:`_probe`.
        """
        if port.cache.contains(line):
            return None
        return [port.h_misses]

    def store_commit(self, addr: int, ts: int, cycle: int) -> None:
        """A store retires: functional memory is updated by the core; here
        we update caches and coherence.  Stores are off the critical path
        (paper footnote 7) so this never stalls commit."""
        self.drain(cycle)
        line = addr >> 6
        self._counts[self._h_stores_committed] += 1
        self._on_own_store(line, ts, cycle)
        self.shared.store_commit(self.core_id, line, cycle)
        victim = self.dport.cache.fill(line, cycle, dirty=True)
        self._handle_l1_victim(victim, cycle)
        self.shared.directory.on_fill(self.core_id, line)

    def commit_load(self, req: Optional[MemRequest], ts: int, cycle: int
                    ) -> int:
        """A load retires; returns extra commit-stall cycles (0 here)."""
        return 0

    def commit_ifetch(self, addr: int, ts: int, cycle: int) -> None:
        """An instruction retires (I-Minion commit move hook)."""

    def squash(self, ts: int, cycle: int) -> None:
        """Misspeculation detected at timestamp ``ts``: the unsafe
        baseline cleans nothing."""

    def invalidate_line(self, line: int) -> None:
        """Inbound coherence invalidation."""
        self.dport.cache.invalidate(line)
        self.shared.directory.on_evict(self.core_id, line)

    # ------------------------------------------------------------------
    # the shared miss path
    # ------------------------------------------------------------------

    def _access(self, port: L1Port, kind: str, addr: int, ts: int,
                cycle: int, speculative: bool, pc: int
                ) -> Optional[MemRequest]:
        if self._drained_cycle != cycle:
            # Inside a step the core has drained this cycle already
            # (see the module doc: a second drain would find nothing).
            self.drain(cycle)
        req = MemRequest(kind, addr, ts, self.core_id, cycle, speculative,
                         pc)
        xlat_extra = 0
        if self.dtlb is not None and port is self.dport:
            xlat_extra = self.dtlb.translate(
                addr, ts, cycle, speculative).latency
        ready = self._probe(port, req, cycle)
        if ready is not None:
            req.mark_ready(ready + xlat_extra)
            return req
        line = req.line
        entry = port.mshrs.find(line)
        if entry is not None:
            if self.temporal_order and not entry.prefetch \
                    and (entry.squashed or entry.ts > ts):
                new_ready = self.shared.timeleap_restart(
                    line, cycle + port.latency, ts, speculative,
                    core=self.core_id)
                port.mshrs.timeleap(entry, ts, new_ready)
                self._counts[self._h_timeleap_loads] += 1
            port.mshrs.attach(entry, req)
            req.mark_ready(entry.ready_cycle)
            req.hit_level = 3
            return req
        victim = None
        if port.mshrs.full():
            victim = self._leapfrog_victim(port, req)
            if victim is None:
                self._counts[port.h_mshr_retry_full] += 1
                if port is self.dport and self.dtlb is None:
                    # Nothing here changed state: the probe missed, and
                    # its pure companion names the counters it bumped.
                    self.retry_bumps = (
                        [self._h_loads_issued]
                        + self._probe_stall_bumps(port, line, ts)
                        + [port.h_mshr_retry_full])
                else:
                    self.retry_bumps = None
                return None
        train = (self.speculative_prefetcher_training and port is self.dport)
        result = self._l2_access(req, cycle + port.latency + xlat_extra,
                                 train)
        if result is None:
            self.retry_bumps = None
            return None
        ready, level, l2_entry = result
        if victim is not None and victim not in port.mshrs.entries:
            # The L2 access just leapfrogged/timelept an entry whose
            # dependent cascade cancelled our chosen victim: its slot
            # is already free, so a plain allocation suffices.
            victim = None
        if victim is not None:
            entry = port.mshrs.steal(victim, line, ts, ready,
                                     core=self.core_id)
            self._counts[self._h_leapfrog_loads] += 1
        else:
            entry = port.mshrs.allocate(line, ts, ready,
                                        core=self.core_id)
        if l2_entry is not None:
            l2_entry.dependents.append((port.mshrs, entry))
        port.mshrs.attach(entry, req)
        for fill_fn, fill_ts in self._fill_targets(port, req):
            entry.fill_actions.append((fill_fn, fill_ts))
        req.mark_ready(ready)
        req.hit_level = level
        return req

    def _l2_access(self, req: MemRequest, start: int, train: bool
                   ) -> Optional[Tuple[int, int, Optional[MSHREntry]]]:
        return self.shared.access(req.line, start, req.ts, req.speculative,
                                  req.pc, self.temporal_order, train,
                                  fill_l2=self._fills_l2(req),
                                  core=self.core_id)

    def _fills_l2(self, req: MemRequest) -> bool:
        """Whether this request's data may be installed in the L2.

        The unsafe baseline installs everything; speculation-hiding
        defenses keep speculative data out of the non-speculative
        hierarchy entirely.
        """
        return True

    def refetch(self, addr: int, ts: int, cycle: int) -> int:
        """Non-speculative eager refetch into the L1 (validation, async
        reload, coherence replay).  Returns the completion cycle."""
        self.drain(cycle)
        line = addr >> 6
        self._counts[self._h_refetches] += 1
        if self.dport.cache.lookup(line, cycle):
            return cycle + self.dport.latency
        ready, _level = self.shared.refetch(line, cycle + self.dport.latency,
                                            self.core_id)
        victim = self.dport.cache.fill(line, cycle)
        self._handle_l1_victim(victim, cycle)
        self.shared.directory.on_fill(self.core_id, line)
        return ready

    def _handle_l1_victim(self, victim: Optional[int], cycle: int) -> None:
        if victim is None:
            return
        self.shared.l2.fill(victim, cycle)
        self.shared.directory.on_evict(self.core_id, victim)

    # ------------------------------------------------------------------
    # defense hooks (unsafe defaults)
    # ------------------------------------------------------------------

    def _probe(self, port: L1Port, req: MemRequest, cycle: int
               ) -> Optional[int]:
        """L1-side lookup; returns the hit-ready cycle or None on miss."""
        if port.cache.lookup(req.line, cycle):
            req.hit_level = 1
            return cycle + port.latency
        return None

    def _probe_present(self, port: L1Port, line: int, ts: int) -> bool:
        """Would a ``ts``-timestamped access to ``line`` hit the L1 side?

        Contract for every override (plugin hierarchies included):

        * **side-effect-free** — no counters, no recency updates, no
          fills: the fetch stage polls it every cycle a core waits on
          an instruction line, and the event scheduler's stall
          analysis calls it while deciding whether to skip;
        * **monotone in** ``ts`` **within a cycle** — if it returns
          True at ``ts`` it returns True at every ``ts' >= ts`` until
          the next drain or fill.  The fetch stage relies on this to
          probe each instruction line once per fetch group: fetch
          timestamps never decrease within a group, so later
          instructions on an already-present line skip the probe.
        """
        return port.cache.contains(line)

    def _leapfrog_victim(self, port: L1Port, req: MemRequest
                         ) -> Optional[MSHREntry]:
        """Unsafe baseline never leapfrogs: full MSHRs mean retry."""
        return None

    def _fill_targets(self, port: L1Port, req: MemRequest
                      ) -> List[Tuple[FillFn, Optional[int]]]:
        """Unsafe baseline: every load fills the L1 (speculatively)."""
        if port is self.dport:
            return [(self._fill_l1d, None)]
        return [(self._fill_l1i, None)]

    def _fill_l1d(self, line: int, cycle: int, _ts: int) -> None:
        victim = self.dport.cache.fill(line, cycle)
        self._handle_l1_victim(victim, cycle)
        self.shared.directory.on_fill(self.core_id, line)

    def _fill_l1i(self, line: int, cycle: int, _ts: int) -> None:
        self.iport.cache.fill(line, cycle)

    def _on_own_store(self, line: int, ts: int, cycle: int) -> None:
        """Hook: a store by this core commits to ``line``."""
