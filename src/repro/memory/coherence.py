"""Directory coherence with the GhostMinion Shared/Invalid rule (§4.6).

The directory tracks, per line, which cores hold a copy in their private
hierarchy (L1 + Minion/L0) and which single core, if any, holds it
modified.  Committed stores invalidate remote copies; per-line version
numbers let the commit path detect that a speculatively forwarded
(non-coherent) copy went stale and must be replayed (§4.6).

Minion fills are only allowed in Shared state: if another core holds the
line modified, :meth:`minion_fill_allowed` is False and the load must wait
until non-speculative to gain a coherent copy — modelled as the data
passing through uncached plus a commit-time refetch.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set

from repro.analysis.stats import Stats


class Directory:
    """Sharers/owner tracking plus line versions for replay checks."""

    def __init__(self, num_cores: int, stats: Optional[Stats] = None
                 ) -> None:
        self.num_cores = num_cores
        self.stats = stats if stats is not None else Stats()
        self._sharers: Dict[int, Set[int]] = defaultdict(set)
        self._owner: Dict[int, int] = {}          # line -> modifying core
        self._version: Dict[int, int] = {}
        self._h_invalidations = self.stats.handle("coh.invalidations")

    # -- queries --------------------------------------------------------

    def sharers(self, line: int) -> Set[int]:
        return set(self._sharers.get(line, ()))

    def owner(self, line: int) -> Optional[int]:
        return self._owner.get(line)

    def version(self, line: int) -> int:
        return self._version.get(line, 0)

    def minion_fill_allowed(self, core_id: int, line: int) -> bool:
        """Shared/Invalid rule: no Minion copy while a *remote* core holds
        the line exclusive/modified."""
        owner = self._owner.get(line)
        return owner is None or owner == core_id

    # -- events ---------------------------------------------------------

    def on_fill(self, core_id: int, line: int) -> None:
        """A core gained a (shared) private copy."""
        self._sharers[line].add(core_id)

    def on_evict(self, core_id: int, line: int) -> None:
        sharers = self._sharers.get(line)
        if sharers is not None:
            sharers.discard(core_id)
        if self._owner.get(line) == core_id:
            del self._owner[line]

    def on_store_commit(self, core_id: int, line: int) -> List[int]:
        """A committed store upgrades ``core_id`` to modified owner.

        Returns the remote cores whose private copies must be invalidated
        (the hierarchy performs the actual invalidations).  Bumps the line
        version so in-flight speculative users detect staleness.
        """
        self._version[line] = self._version.get(line, 0) + 1
        victims = [c for c in self._sharers.get(line, ()) if c != core_id]
        prev_owner = self._owner.get(line)
        if prev_owner is not None and prev_owner != core_id:
            if prev_owner not in victims:
                victims.append(prev_owner)
        self._sharers[line] = {core_id}
        self._owner[line] = core_id
        if victims:
            self.stats.add(self._h_invalidations, len(victims))
        return victims

    def downgrade(self, line: int) -> None:
        """Owner loses exclusivity (e.g. remote read of a modified line)."""
        self._owner.pop(line, None)
