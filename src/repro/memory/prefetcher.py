"""Stride prefetcher with a reference prediction table (Table 1: 64-entry
RPT at the L2).

Each confident entry maintains a *prefetch front* that runs ahead of the
training stream up to ``max_distance`` lines, advancing ``degree`` lines
per training event — the classic lookahead scheme that lets the front
overtake the demand stream (essential when training happens at commit,
which lags execution by up to a ROB's worth of instructions).

The GhostMinion prefetcher extension (section 4.7) trains this only on
*committed* accesses, delivered as commit-time notifications tagged with
the level the data was originally brought in from; the unsafe baseline
trains it on every (speculative) demand access.  Both call :meth:`train`;
the hierarchy decides when.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.analysis.stats import Stats


class _RPTEntry:
    __slots__ = ("last_line", "stride", "confidence", "front")

    def __init__(self, last_line: int) -> None:
        self.last_line = last_line
        self.stride = 0
        self.confidence = 0
        self.front = last_line


class StridePrefetcher:
    """Per-PC stride detection with 2-bit confidence and lookahead."""

    def __init__(self, entries: int = 64, degree: int = 2,
                 max_distance: int = 24,
                 stats: Optional[Stats] = None) -> None:
        if entries < 1:
            raise ValueError("RPT needs at least one entry")
        self.capacity = entries
        self.degree = degree
        self.max_distance = max_distance
        self.stats = stats if stats is not None else Stats()
        self._counts = self.stats._values
        self._table: "OrderedDict[int, _RPTEntry]" = OrderedDict()
        #: Bumped by every :meth:`train` that changes the table; parked
        #: load retries that train compare it.
        self.version = 0
        # train() runs on the demand-access path: interned slots only.
        self._h_trains = self.stats.handle("pf.trains")
        self._h_predictions = self.stats.handle("pf.predictions")

    def train(self, pc: int, line: int) -> List[int]:
        """Observe an access; return lines to prefetch (possibly empty)."""
        self._counts[self._h_trains] += 1
        if self.at_rest(pc, line):
            return []  # the path below would change nothing
        self.version += 1
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self.capacity:
                self._table.popitem(last=False)
            self._table[pc] = _RPTEntry(line)
            return []
        self._table.move_to_end(pc)
        stride = line - entry.last_line
        if stride == entry.stride and stride != 0:
            entry.confidence = min(3, entry.confidence + 1)
        else:
            entry.confidence = max(0, entry.confidence - 1)
            if entry.confidence == 0:
                entry.stride = stride
                entry.front = line
        entry.last_line = line
        if entry.confidence < 2 or entry.stride == 0:
            return []
        self._counts[self._h_predictions] += 1
        # Advance the prefetch front: at least one line past the trigger,
        # at most max_distance strides ahead of it.
        stride = entry.stride
        if stride > 0:
            start = max(line + stride, entry.front + stride)
            limit = line + stride * self.max_distance
            lines = [start + stride * i for i in range(self.degree)
                     if start + stride * i <= limit]
        else:
            start = min(line + stride, entry.front + stride)
            limit = line + stride * self.max_distance
            lines = [start + stride * i for i in range(self.degree)
                     if start + stride * i >= limit]
        if lines:
            entry.front = lines[-1]
        return [pf for pf in lines if pf >= 0]

    def at_rest(self, pc: int, line: int) -> bool:
        """Whether ``train(pc, line)`` would change nothing but the
        ``pf.trains`` count: ``pc``'s entry is the most recent one and
        has settled on ``line`` (stride 0, confidence 0, front at
        ``line``), where a repeated same-line train leaves it."""
        entry = self._table.get(pc)
        return (entry is not None and entry.last_line == line
                and entry.stride == 0 and entry.confidence == 0
                and entry.front == line
                and next(reversed(self._table)) == pc)

    def snapshot(self) -> List[Tuple[int, int, int]]:
        """(pc, stride, confidence) rows, for tests and debugging."""
        return [(pc, e.stride, e.confidence)
                for pc, e in self._table.items()]
