"""The GhostMinion: a TimeGuarded speculative cache compartment (§4).

A Minion sits next to an L1 and is accessed in parallel with it.  It
buffers the lines brought in by speculative loads and enforces Temporal
Order with *TimeGuarding*:

* **read rule** (fig. 4a): a load may only see a line whose timestamp is
  at-or-before its own — younger lines are invisible, so concurrent
  misspeculation cannot transmit backwards in time;
* **fill rule** (fig. 4b): a fill may only take a free slot or overwrite a
  line at an equal-or-greater timestamp; when a set offers neither, the
  fill *fails* and the data is returned to the CPU uncached;
* **free-slotting** (fig. 3): at commit, the line is moved to the L1 and
  evicted from the Minion, leaving a free slot for speculative fills;
* **wipe** (§4.2): on misspeculation, all lines *above* the squash
  timestamp are cleared in a single cycle (not the whole structure —
  footnote 2).

Timestamps here are monotone integers; ``repro.core.timestamp`` provides
(and tests) the 2x-ROB wrap-around hardware encoding, and an optional
cross-check asserts both agree (DESIGN.md note 2).

Layout: as in :class:`~repro.memory.cache.SetAssocCache`, one flat
``line -> MinionLine`` index serves reads, probes, commit moves and
invalidations with one dict operation, and each set's entries sit in a
list in insertion order (the Timeless victim is its first) that is
created on the set's first fill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.stats import Stats
from repro.core.timestamp import TimestampWindow


class MinionLine:
    """One Minion slot: a tag plus the TimeGuard timestamp."""

    __slots__ = ("line", "ts", "version", "src_level")

    def __init__(self, line: int, ts: int, version: int = 0,
                 src_level: int = 3) -> None:
        self.line = line
        self.ts = ts
        self.version = version      # coherence version at fill time
        self.src_level = src_level  # level data came from (prefetch notify)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "MinionLine(%#x, ts=%d)" % (self.line, self.ts)


def _ts_key(entry: MinionLine) -> int:
    return entry.ts


@dataclass
class FillOutcome:
    """Result of attempting a TimeGuarded fill."""

    filled: bool
    evicted: Optional[int] = None   # line number displaced, if any
    took_free_slot: bool = False


class Minion:
    """Set-associative TimeGuarded speculative buffer."""

    def __init__(self, num_sets: int, assoc: int, name: str = "minion",
                 stats: Optional[Stats] = None, timeless: bool = False,
                 rob_entries: int = 0) -> None:
        if num_sets < 1 or assoc < 1:
            raise ValueError("minion must have at least one set and way")
        self.num_sets = num_sets
        self.assoc = assoc
        self.name = name
        self.stats = stats if stats is not None else Stats()
        self._counts = self.stats._values
        # DMinion-Timeless (fig. 9): no timestamp concept — wiped fully on
        # squash, but reads/fills ignore Temporal Order.
        self.timeless = timeless
        # Optional hardware-encoding cross-check (DESIGN.md note 2).
        self._window = (TimestampWindow(rob_entries)
                        if rob_entries > 0 else None)
        #: Every resident line: line -> MinionLine.
        self._index: Dict[int, MinionLine] = {}
        #: Set index -> the set's entries in insertion order; a set's
        #: list is created on its first fill.
        self._sets: Dict[int, List[MinionLine]] = {}
        #: Bumped by every change to the lines or their timestamps
        #: (fill, commit move, wipe, invalidation).  Parked load retries
        #: compare it (see BaseHierarchy.load_retry_version).
        self.version = 0
        # Read-path handles are public: defense hierarchies emit them in
        # their stall-proof dry-runs (see _probe_stall_bumps overrides).
        self.h_misses = self.stats.handle(name + ".misses")
        self.h_timeguard_blocks = self.stats.handle(
            name + ".timeguard_blocks")
        self.h_read_hits = self.stats.handle(name + ".read_hits")
        self._h_fills = self.stats.handle(name + ".fills")
        self._h_fill_fails = self.stats.handle(name + ".fill_fails")
        self._h_fill_evictions = self.stats.handle(name + ".fill_evictions")
        self._h_commit_moves = self.stats.handle(name + ".commit_moves")
        self._h_wipes = self.stats.handle(name + ".wipes")
        self._h_wiped_lines = self.stats.handle(name + ".wiped_lines")
        self._h_invalidations = self.stats.handle(name + ".invalidations")

    # -- geometry -------------------------------------------------------

    def set_index(self, line: int) -> int:
        return line % self.num_sets

    def __len__(self) -> int:
        return len(self._index)

    def lines(self) -> Iterator[MinionLine]:
        """Resident entries, by set index, then insertion order."""
        sets = self._sets
        for index in sorted(sets):
            yield from sets[index]

    def get(self, line: int) -> Optional[MinionLine]:
        return self._index.get(line)

    def _check_window(self, ts_a: int, ts_b: int, monotone: bool) -> None:
        """Assert the wrap-around encoding agrees with the monotone one."""
        if self._window is None:
            return
        if not self._window.in_flight_together(ts_a, ts_b):
            return  # hardware never compares timestamps this far apart
        enc = self._window.precedes_or_equal(
            self._window.encode(ts_a), self._window.encode(ts_b))
        if enc != monotone:  # pragma: no cover - invariant guard
            raise AssertionError(
                "window/monotone disagreement: %d vs %d" % (ts_a, ts_b))

    # -- TimeGuarded read (fig. 4a) --------------------------------------

    def read(self, line: int, ts: int) -> str:
        """Attempt a read at timestamp ``ts``.

        Returns ``'hit'``, ``'timeguard'`` (line present but younger than
        the reader, so invisible), or ``'miss'``.
        """
        entry = self._index.get(line)
        if entry is None:
            self._counts[self.h_misses] += 1
            return "miss"
        if not self.timeless and entry.ts > ts:
            self._check_window(entry.ts, ts, False)
            self._counts[self.h_timeguard_blocks] += 1
            return "timeguard"
        if not self.timeless:
            self._check_window(entry.ts, ts, True)
        self._counts[self.h_read_hits] += 1
        return "hit"

    def probe(self, line: int, ts: int) -> bool:
        """Side-effect-free presence check at timestamp ``ts``.

        ``True`` iff :meth:`read` would hit — but without counting an
        access.  Used by the fetch stage's per-cycle presence poll (and
        by the event-driven scheduler's stall analysis), which must not
        perturb counters while a core spins on a pending miss.
        """
        entry = self._index.get(line)
        if entry is None:
            return False
        return self.timeless or entry.ts <= ts

    def probe_outcome(self, line: int, ts: int) -> str:
        """Side-effect-free form of :meth:`read`: the same
        ``'hit'``/``'timeguard'``/``'miss'`` verdict, no counters.

        The scheduler's stall analysis needs the full three-way outcome
        (not just presence) to predict which counters a blocked access
        would bump each cycle it retries.
        """
        entry = self._index.get(line)
        if entry is None:
            return "miss"
        if not self.timeless and entry.ts > ts:
            return "timeguard"
        return "hit"

    # -- TimeGuarded fill (figs. 3, 4b) ----------------------------------

    def fill(self, line: int, ts: int, version: int = 0,
             src_level: int = 3) -> FillOutcome:
        """Attempt a fill at timestamp ``ts``.

        Policy (footnote 4): take a free slot if one exists; otherwise
        evict the *highest*-timestamped line that is at-or-above ``ts``;
        otherwise fail — only the highest-timestamped instruction may
        learn the Minion is full.
        """
        self.version += 1
        index = self._index
        existing = index.get(line)
        if existing is not None:
            # Same line already present.  Overwrite rule still applies:
            # an older fill may lower the timestamp; a younger fill must
            # not disturb an older line (it simply isn't cached again).
            if self.timeless or existing.ts >= ts:
                existing.ts = min(existing.ts, ts)
                existing.version = version
                existing.src_level = min(existing.src_level, src_level)
                self._counts[self._h_fills] += 1
                return FillOutcome(filled=True)
            self._counts[self._h_fill_fails] += 1
            return FillOutcome(filled=False)
        set_idx = line % self.num_sets
        minion_set = self._sets.get(set_idx)
        if minion_set is None:
            minion_set = self._sets[set_idx] = []
        if len(minion_set) < self.assoc:
            entry = MinionLine(line, ts, version, src_level)
            minion_set.append(entry)
            index[line] = entry
            self._counts[self._h_fills] += 1
            return FillOutcome(filled=True, took_free_slot=True)
        if self.timeless:
            # No timestamp concept: evict an arbitrary (oldest-inserted)
            # victim, as a plain speculative buffer would.
            victim = minion_set[0]
        else:
            candidates = [e for e in minion_set if e.ts >= ts]
            if not candidates:
                self._counts[self._h_fill_fails] += 1
                return FillOutcome(filled=False)
            victim = max(candidates, key=_ts_key)
            self._check_window(ts, victim.ts, True)
        minion_set.remove(victim)
        del index[victim.line]
        entry = MinionLine(line, ts, version, src_level)
        minion_set.append(entry)
        index[line] = entry
        self._counts[self._h_fills] += 1
        self._counts[self._h_fill_evictions] += 1
        return FillOutcome(filled=True, evicted=victim.line)

    # -- commit (fig. 3) --------------------------------------------------

    def take_for_commit(self, line: int, ts: int) -> Optional[MinionLine]:
        """On commit of a load: if the Minion holds a line the committing
        instruction may validly read, remove and return it (the caller
        writes it to the L1, leaving a free slot here)."""
        entry = self._index.get(line)
        if entry is None:
            return None
        if not self.timeless and entry.ts > ts:
            # Present, but brought in by a logically younger instruction:
            # invisible to this commit.
            return None
        del self._index[line]
        self._sets[line % self.num_sets].remove(entry)
        self.version += 1
        self._counts[self._h_commit_moves] += 1
        return entry

    # -- squash (§4.2) ----------------------------------------------------

    def wipe_above(self, ts: int) -> int:
        """Single-cycle wipe of every line *above* the squash timestamp.

        Unlike MuonTrap, lines at-or-below survive (footnote 2): the
        discovered misspeculation may itself be speculative.
        Timeless Minions wipe everything.
        """
        self.version += 1
        index = self._index
        if self.timeless:
            wiped = len(index)
            index.clear()
            self._sets.clear()
        else:
            doomed = [e for e in index.values() if e.ts > ts]
            for entry in doomed:
                del index[entry.line]
                self._sets[entry.line % self.num_sets].remove(entry)
            wiped = len(doomed)
        self._counts[self._h_wipes] += 1
        # Through ``Stats.add``: ``wiped`` may be 0, and the counter
        # must still show.
        self.stats.add(self._h_wiped_lines, wiped)
        return wiped

    def invalidate(self, line: int) -> bool:
        """Coherence invalidation of a single line."""
        entry = self._index.pop(line, None)
        if entry is None:
            return False
        self._sets[line % self.num_sets].remove(entry)
        self.version += 1
        self._counts[self._h_invalidations] += 1
        return True

    def contents(self) -> List[Tuple[int, int]]:
        """Sorted (line, ts) pairs — handy for tests."""
        return sorted((e.line, e.ts) for e in self.lines())
