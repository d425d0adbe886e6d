"""Set-associative cache with true-LRU replacement.

Used for the L1I/L1D/L2 and (via composition) the MuonTrap L0 filter
cache.  The GhostMinion compartment has different insertion/lookup rules
and lives in :mod:`repro.core.ghostminion`.

Caches here store only line tags plus metadata; data values live in the
simulator's functional memory.  A per-line ``version`` is bumped by
coherence events so commit-time replay checks (section 4.6) can detect
that a speculatively forwarded line went stale.
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
        # One dict per set: line -> CacheLine.  Sets are tiny (assoc<=8).
        self._sets: List[Dict[int, CacheLine]] = [
            {} for _ in range(num_sets)]
        #: Bumped by every change to which lines are present (fill,
        #: invalidate, flush); recency updates leave it alone.  Parked
        #: load retries compare it (see BaseHierarchy.load_retry_version).
        self.version = 0

    # -- geometry -------------------------------------------------------

    def set_index(self, line: int) -> int:
        return line % self.num_sets

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def lines(self) -> Iterator[int]:
        for cache_set in self._sets:
            for line in cache_set:
                yield line

    # -- lookups --------------------------------------------------------

    def contains(self, line: int) -> bool:
        """Presence check with no LRU side effects (a *probe*)."""
        return line in self._sets[self.set_index(line)]

    def lookup(self, line: int, cycle: int) -> bool:
        """Access the cache: on hit, update recency and count a hit."""
        entry = self._sets[self.set_index(line)].get(line)
        if entry is None:
            self.stats.add(self._h_misses)
            if self._obs is not None:
                self._obs.emit_mem(self.name, "cache-miss", line, cycle)
            return False
        entry.last_used = cycle
        self.stats.add(self._h_hits)
        return True

    def get(self, line: int) -> Optional[CacheLine]:
        return self._sets[self.set_index(line)].get(line)

    # -- mutation -------------------------------------------------------

    def fill(self, line: int, cycle: int, dirty: bool = False
             ) -> Optional[int]:
        """Insert ``line``; return the evicted line number, if any."""
        self.version += 1
        cache_set = self._sets[self.set_index(line)]
        existing = cache_set.get(line)
        if existing is not None:
            existing.last_used = cycle
            existing.dirty = existing.dirty or dirty
            return None
        victim_line = None
        if len(cache_set) >= self.assoc:
            victim_line = min(cache_set.values(), key=_lru_key).line
            del cache_set[victim_line]
            self.stats.add(self._h_evictions)
            if self._obs is not None:
                self._obs.emit_mem(self.name, "cache-evict", victim_line,
                                   cycle)
        entry = CacheLine(line, cycle)
        entry.dirty = dirty
        cache_set[line] = entry
        self.stats.add(self._h_fills)
        return victim_line

    def invalidate(self, line: int) -> bool:
        """Remove ``line``; True if it was present."""
        cache_set = self._sets[self.set_index(line)]
        if line in cache_set:
            del cache_set[line]
            self.version += 1
            self.stats.add(self._h_invalidations)
            return True
        return False

    def invalidate_all(self) -> int:
        """Flush the whole structure (MuonTrap-Flush); returns line count."""
        count = len(self)
        self.version += 1
        for cache_set in self._sets:
            cache_set.clear()
        self.stats.add(self._h_flushes)
        return count

    def mark_dirty(self, line: int) -> None:
        entry = self.get(line)
        if entry is not None:
            entry.dirty = True
