"""Miss-status-handling registers with Temporal-Order support.

GhostMinion propagates timestamp metadata into the MSHRs at every cache
level (fig. 2) so that:

* **leapfrogging** (fig. 5): when the file is full and a request with an
  *older* timestamp arrives, it steals the entry of the youngest-timestamp
  occupant, whose attached requests must replay;
* **timeleaping** (section 4.5): when a request finds an in-flight entry
  for the same line at a *younger* timestamp, the entry is restarted at
  each level so its timing matches "as if only the older request ran".

Each entry carries a list of *fill actions* — (cache-like object, line,
timestamp) tuples the hierarchy applies when the entry completes.  On a
squash, pending fills into a GhostMinion with timestamps above the squash
point are dropped, which is observationally identical to the hardware's
wipe-by-timestamp (DESIGN.md note 3).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.analysis.stats import Stats
from repro.memory.request import MemRequest

# Timestamp given to prefetch-allocated entries: any demand request may
# leapfrog a prefetch, and a prefetch never leapfrogs anything.
PREFETCH_TS = float("inf")

#: ``MSHRFile._next_ready`` of a file with no entries.
_IDLE = float("inf")


class MSHREntry:
    """One in-flight miss.

    ``dependents`` links a lower-level (e.g. L2) entry to the upper-level
    (L1) entries waiting on it, as ``(mshr_file, entry)`` pairs: stealing
    or timeleaping the lower entry cascades to them (the paper's
    "cascading leapfrogs ... in multiple different cache levels").
    """

    __slots__ = ("line", "ts", "ready_cycle", "requests", "fill_actions",
                 "prefetch", "dependents", "core", "squashed")

    def __init__(self, line: int, ts, ready_cycle: int,
                 prefetch: bool = False, core: int = 0) -> None:
        self.line = line
        self.ts = ts
        self.ready_cycle = ready_cycle
        self.requests: List[MemRequest] = []
        # (fill_fn, ts_or_None) pairs applied on completion; None means
        # "use the entry's timestamp at completion time".
        self.fill_actions: List[tuple] = []
        self.prefetch = prefetch
        self.dependents: List[tuple] = []
        # Timestamps are only ordered within a thread (§3): comparisons
        # are restricted to entries allocated by the same core.
        self.core = core
        # A squashed allocator leaves the entry logically *above* the
        # squash point in the timestamp window: stealable by anyone.
        self.squashed = False

    def attach(self, req: MemRequest) -> None:
        self.requests.append(req)
        if not self.prefetch and req.core_id == self.core \
                and req.ts < self.ts:
            self.ts = req.ts

    def stealable_by(self, ts, core: int) -> bool:
        """May a request at (ts, core) leapfrog this entry?"""
        if self.prefetch or self.squashed:
            return True
        return self.core == core and self.ts > ts

    def add_fill(self, fill_fn: Callable[[int, int, float], None],
                 ts=None) -> None:
        """Register a completion fill; ``fill_fn(line, cycle, ts)``."""
        self.fill_actions.append((fill_fn, ts))

    def has_fill(self, fill_fn) -> bool:
        return any(fn is fill_fn for fn, _ts in self.fill_actions)


class MSHRFile:
    """Fixed-size MSHR file for one cache level.

    ``_next_ready`` is the earliest ``ready_cycle`` over ``entries``
    (``inf`` when the file is idle), kept current by every method that
    mutates the file — :meth:`allocate`, :meth:`drain`, :meth:`steal`
    and its :meth:`_cancel` cascade, :meth:`timeleap` and the dependent
    entries it postpones — so the per-cycle drain and wakeup queries
    cost one comparison instead of a scan.  For that to hold,
    ``entries`` and the entries' ``ready_cycle`` are only ever mutated
    inside this class.

    ``version`` is bumped by the same methods, and by :meth:`attach`
    and :meth:`mark_squashed_above`: every change to the occupants or
    to the fields a leapfrog-victim search reads.  Parked load retries
    compare it (see ``BaseHierarchy.load_retry_version``).
    """

    def __init__(self, size: int, name: str, stats: Optional[Stats] = None
                 ) -> None:
        if size < 1:
            raise ValueError("MSHR file needs at least one entry")
        self.size = size
        self.name = name
        self.stats = stats if stats is not None else Stats()
        self._counts = self.stats._values
        #: Dormant tracing hook (``Simulator.attach_obs``); every use is
        #: behind an is-not-None guard (the ``obs-guards`` lint contract).
        self._obs = None
        self.entries: List[MSHREntry] = []
        self._next_ready = _IDLE
        self.version = 0
        self._h_allocs = self.stats.handle(name + ".allocs")
        self._h_leapfrogs = self.stats.handle(name + ".leapfrogs")
        self._h_victim_replays = self.stats.handle(
            name + ".leapfrog_victim_replays")
        self._h_timeleaps = self.stats.handle(name + ".timeleaps")
        self._h_squash_marked = self.stats.handle(name + ".squash_marked")
        self._h_squash_dropped = self.stats.handle(
            name + ".squash_dropped_fills")

    # -- queries --------------------------------------------------------

    def find(self, line: int) -> Optional[MSHREntry]:
        for entry in self.entries:
            if entry.line == line:
                return entry
        return None

    def full(self) -> bool:
        return len(self.entries) >= self.size

    def occupancy(self) -> int:
        return len(self.entries)

    def earliest_free_cycle(self) -> int:
        """When the next entry frees, for full-file queueing delays."""
        return self._next_ready if self.entries else 0

    def next_ready_cycle(self) -> float:
        """Earliest pending completion (``inf`` when the file is idle).

        The event-driven scheduler uses this as a wakeup source: no fill
        from this file can change machine state before that cycle.
        """
        return self._next_ready

    def _refresh(self) -> None:
        """Recompute ``_next_ready`` after an entry left the file or an
        entry's ``ready_cycle`` changed."""
        entries = self.entries
        self._next_ready = (min(entry.ready_cycle for entry in entries)
                            if entries else _IDLE)

    # -- allocation -----------------------------------------------------

    def allocate(self, line: int, ts, ready_cycle: int,
                 prefetch: bool = False, core: int = 0) -> MSHREntry:
        if self.full():
            raise RuntimeError("%s: allocate on full MSHR file" % self.name)
        entry = MSHREntry(line, ts, ready_cycle, prefetch=prefetch,
                          core=core)
        self.entries.append(entry)
        self.version += 1
        if ready_cycle < self._next_ready:
            self._next_ready = ready_cycle
        self._counts[self._h_allocs] += 1
        if self._obs is not None:
            # Allocation sites do not pass the current cycle; the event
            # is stamped with the completion-due cycle, which keeps it
            # ordered just before the matching mshr-fill.
            self._obs.emit_mem(self.name, "mshr-alloc", line, ready_cycle)
        return entry

    def attach(self, entry: MSHREntry, req: MemRequest) -> None:
        """Attach ``req`` to ``entry``, one of this file's occupants
        (which may lower the entry's timestamp)."""
        entry.attach(req)
        self.version += 1

    # -- Temporal-Order mechanisms (GhostMinion) --------------------------

    def leapfrog_victim(self, ts, core: int = 0) -> Optional[MSHREntry]:
        """Youngest-timestamp entry strictly younger than ``ts``.

        Prefetch and squashed-transient entries count as infinitely
        young (always stealable); otherwise only same-core entries are
        comparable (no cross-thread Temporal Order, §4.9).  Returns None
        when every occupant is at-or-before ``ts`` — then waiting is
        safe, because all occupants are visible to the requester.
        """
        candidates = [e for e in self.entries if e.stealable_by(ts, core)]
        if not candidates:
            return None
        return max(candidates,
                   key=lambda e: (PREFETCH_TS
                                  if e.prefetch or e.squashed else e.ts))

    def steal(self, victim: MSHREntry, line: int, ts, ready_cycle: int,
              core: int = 0) -> MSHREntry:
        """Leapfrog: cancel ``victim`` and reuse its slot (fig. 5).

        Cancellation cascades to upper-level entries waiting on the
        victim (their attached loads replay too).
        """
        self._cancel(victim)
        self.entries.remove(victim)
        self._refresh()
        self._counts[self._h_leapfrogs] += 1
        return self.allocate(line, ts, ready_cycle, core=core)

    def _cancel(self, entry: MSHREntry) -> None:
        for req in entry.requests:
            req.mark_replay()
            self._counts[self._h_victim_replays] += 1
        for dep_file, dep_entry in entry.dependents:
            if dep_entry in dep_file.entries:
                dep_file.entries.remove(dep_entry)
                dep_file.version += 1
                dep_file._refresh()
                dep_file._cancel(dep_entry)

    def timeleap(self, entry: MSHREntry, ts, ready_cycle: int) -> None:
        """Restart ``entry`` for an older-timestamp requester (§4.5).

        The entry's timestamp drops to the older request's and its
        completion is recomputed as if freshly issued; every attached
        (younger) request legitimately observes the new timing, and
        upper-level entries waiting on this one are postponed with it.
        """
        entry.ts = ts
        entry.ready_cycle = ready_cycle
        entry.prefetch = False
        entry.squashed = False
        self.version += 1
        self._refresh()
        for req in entry.requests:
            req.postpone(ready_cycle)
        for dep_file, dep_entry in entry.dependents:
            if dep_entry in dep_file.entries:
                if dep_entry.ready_cycle < ready_cycle:
                    dep_entry.ready_cycle = ready_cycle
                    dep_file._refresh()
                for req in dep_entry.requests:
                    req.postpone(ready_cycle)
        self._counts[self._h_timeleaps] += 1

    def mark_squashed_above(self, ts, core: int) -> int:
        """Squash support: entries allocated by ``core`` above the squash
        timestamp now belong to squashed instructions.  In the hardware
        window encoding their timestamps sit above every future
        (reissued) timestamp, so they are stealable by any new request;
        mark them accordingly.  Returns the count marked."""
        marked = 0
        for entry in self.entries:
            if (not entry.prefetch and not entry.squashed
                    and entry.core == core and entry.ts > ts):
                entry.squashed = True
                marked += 1
        if marked:
            self.version += 1
            self._counts[self._h_squash_marked] += marked
        return marked

    # -- completion -----------------------------------------------------

    def drain(self, cycle: int) -> List[MSHREntry]:
        """Pop and return all entries whose data has arrived, in
        allocation order."""
        if cycle < self._next_ready:
            return []  # hot path: nothing due, no scan
        done = []
        kept = []
        for entry in self.entries:
            if entry.ready_cycle <= cycle:
                done.append(entry)
            else:
                kept.append(entry)
        self.entries = kept
        self.version += 1
        self._refresh()
        if self._obs is not None:
            for entry in done:
                self._obs.emit_mem(self.name, "mshr-fill", entry.line,
                                   cycle)
        return done

    def release(self) -> None:
        """Drop every in-flight entry, fill actions included, for a
        machine that will not run again: the actions are bound methods
        of the levels they fill, so a pending one closes a reference
        cycle through this file."""
        self.entries = []
        self.version += 1
        self._refresh()

    def drop_fills_above(self, ts, fill_tag_fns) -> int:
        """Squash support: drop pending fills into wiped structures.

        ``fill_tag_fns`` is the set of fill functions that target a
        GhostMinion being wiped; any pending action with a timestamp above
        ``ts`` into one of them is removed.  Returns the drop count.
        """
        dropped = 0
        for entry in self.entries:
            kept = []
            for fill_fn, fill_ts in entry.fill_actions:
                effective_ts = entry.ts if fill_ts is None else fill_ts
                if fill_fn in fill_tag_fns and effective_ts > ts:
                    dropped += 1
                else:
                    kept.append((fill_fn, fill_ts))
            entry.fill_actions = kept
        if dropped:
            self._counts[self._h_squash_dropped] += dropped
        return dropped
