"""Set-associative cache with true-LRU replacement.

Used for the L1I/L1D/L2, the TLB levels and (via composition) the
MuonTrap L0 filter caches.  The GhostMinion compartment has different
insertion/lookup rules and lives in :mod:`repro.core.ghostminion`.

Caches here store only line tags plus metadata; data values live in the
simulator's functional memory.  ``version`` is bumped by every change
to which lines are present, so a parked load retry can tell that a
line it waits on came or went.

Layout: one flat ``line -> CacheLine`` index answers every lookup,
probe and invalidation with one dict operation.  Fills and victim
choice also need the line's set, so each set keeps its resident
entries in a list in insertion order; that list is created on the
set's first fill, and a machine pays nothing for the sets it never
touches (an L2 has thousands).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.analysis.stats import Stats


class CacheLine:
    """Tag-store entry."""

    __slots__ = ("line", "last_used", "dirty")

    def __init__(self, line: int, cycle: int) -> None:
        self.line = line
        self.last_used = cycle
        self.dirty = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CacheLine(%#x, lru=%d)" % (self.line, self.last_used)


def _lru_key(entry: CacheLine) -> int:
    """Module-level LRU key: avoids building a fresh closure per fill."""
    return entry.last_used


class SetAssocCache:
    """Classic set-associative tag store with LRU replacement."""

    def __init__(self, num_sets: int, assoc: int, name: str = "cache",
                 stats: Optional[Stats] = None) -> None:
        if num_sets < 1 or assoc < 1:
            raise ValueError("cache must have at least one set and way")
        self.num_sets = num_sets
        self.assoc = assoc
        self.name = name
        self.stats = stats if stats is not None else Stats()
        self._counts = self.stats._values
        #: Dormant tracing hook (``Simulator.attach_obs``); every use is
        #: behind an is-not-None guard (the ``obs-guards`` lint contract).
        self._obs = None
        # Hot-path counters resolved to interned slots once (hits/misses
        # fire on every access, fills/evictions on every miss return).
        self._h_hits = self.stats.handle(name + ".hits")
        self._h_misses = self.stats.handle(name + ".misses")
        self._h_fills = self.stats.handle(name + ".fills")
        self._h_evictions = self.stats.handle(name + ".evictions")
        self._h_invalidations = self.stats.handle(name + ".invalidations")
        self._h_flushes = self.stats.handle(name + ".flushes")
        #: Every resident line: line -> CacheLine.
        self._index: Dict[int, CacheLine] = {}
        #: Set index -> the set's resident entries in insertion order
        #: (the LRU tie-break); a set's list is created on its first fill.
        self._sets: Dict[int, List[CacheLine]] = {}
        #: Bumped by every change to which lines are present (fill,
        #: invalidate, flush); recency updates leave it alone.  Parked
        #: load retries compare it (see BaseHierarchy.load_retry_version).
        self.version = 0

    # -- geometry -------------------------------------------------------

    def set_index(self, line: int) -> int:
        return line % self.num_sets

    def __len__(self) -> int:
        return len(self._index)

    def lines(self) -> Iterator[int]:
        """Resident lines, by set index, then insertion order in a set."""
        sets = self._sets
        for index in sorted(sets):
            for entry in sets[index]:
                yield entry.line

    # -- lookups --------------------------------------------------------

    def contains(self, line: int) -> bool:
        """Presence check with no LRU side effects (a *probe*)."""
        return line in self._index

    def lookup(self, line: int, cycle: int) -> bool:
        """Access the cache: on hit, update recency and count a hit."""
        entry = self._index.get(line)
        if entry is None:
            self._counts[self._h_misses] += 1
            if self._obs is not None:
                self._obs.emit_mem(self.name, "cache-miss", line, cycle)
            return False
        entry.last_used = cycle
        self._counts[self._h_hits] += 1
        return True

    def get(self, line: int) -> Optional[CacheLine]:
        return self._index.get(line)

    # -- mutation -------------------------------------------------------

    def fill(self, line: int, cycle: int, dirty: bool = False
             ) -> Optional[int]:
        """Insert ``line``; return the evicted line number, if any."""
        self.version += 1
        index = self._index
        existing = index.get(line)
        if existing is not None:
            existing.last_used = cycle
            existing.dirty = existing.dirty or dirty
            return None
        set_idx = line % self.num_sets
        cache_set = self._sets.get(set_idx)
        if cache_set is None:
            cache_set = self._sets[set_idx] = []
        victim_line = None
        if len(cache_set) >= self.assoc:
            victim = min(cache_set, key=_lru_key)
            cache_set.remove(victim)
            victim_line = victim.line
            del index[victim_line]
            self._counts[self._h_evictions] += 1
            if self._obs is not None:
                self._obs.emit_mem(self.name, "cache-evict", victim_line,
                                   cycle)
        entry = CacheLine(line, cycle)
        entry.dirty = dirty
        cache_set.append(entry)
        index[line] = entry
        self._counts[self._h_fills] += 1
        return victim_line

    def invalidate(self, line: int) -> bool:
        """Remove ``line``; True if it was present."""
        entry = self._index.pop(line, None)
        if entry is None:
            return False
        self._sets[line % self.num_sets].remove(entry)
        self.version += 1
        self._counts[self._h_invalidations] += 1
        return True

    def invalidate_all(self) -> int:
        """Flush the whole structure (MuonTrap-Flush); returns line count."""
        count = len(self._index)
        self.version += 1
        self._index.clear()
        self._sets.clear()
        self._counts[self._h_flushes] += 1
        return count

    def mark_dirty(self, line: int) -> None:
        entry = self._index.get(line)
        if entry is not None:
            entry.dirty = True
