"""Counter registry shared by every simulated component.

A :class:`Stats` object is a flat ``name -> value`` counter map with
helpers for incrementing, merging (multi-core runs) and computing derived
ratios.  Components bump well-known counter names; the full list in use is
discoverable via :meth:`Stats.as_dict`.

Hot paths do not pay for string keys: a counter name can be *interned*
once (at component construction) into an integer slot **handle** via
:meth:`Stats.handle`.  A hot component also binds the value list once
(``self._counts = stats._values``) and bumps a counter in place,
``self._counts[h] += n``, with no call frame; :meth:`Stats.add` is the
same bump as a method, for cold code and for an amount that may be
zero.  The string-keyed API (:meth:`bump`, :meth:`get`, ...) remains as
a thin view for reports, figures and tests.

Interning a handle does **not** make the counter visible: a name only
appears in :meth:`as_dict`/:meth:`names` once it has actually been
bumped or set, exactly as with the original dict-backed implementation,
so pre-resolving handles for counters that never fire leaves result
payloads unchanged.  A counter is visible when it was touched (set, or
bumped through a method) or its value is non-zero: an in-place bump
touches nothing, so it must add at least 1 — no bump is negative, so a
bumped counter never returns to 0 (see docs/performance.md, "Visibility
queue and in-place counters").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping


class Stats:
    """Flat counter map with interned integer-slot handles.

    The whole object is mutable state (interning table plus values) in
    three slots.  A whole-machine checkpoint pickles it with the rest of
    the simulator, so a restore brings back both the counter values
    *and* the slot numbering, keeping previously handed-out handles
    valid.
    """

    __slots__ = ("_index", "_values", "_touched")

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        self._values: List[float] = []
        self._touched: List[bool] = []

    @classmethod
    def from_dict(cls, values: Mapping[str, float]) -> "Stats":
        """A registry holding ``values`` as set counters, in mapping
        order: the :meth:`set`-per-name result, built in bulk."""
        stats = cls.__new__(cls)
        stats._index = dict(zip(values, range(len(values))))
        stats._values = list(values.values())
        stats._touched = [True] * len(stats._values)
        return stats

    # -- interned hot path ----------------------------------------------

    def handle(self, name: str) -> int:
        """Intern ``name`` and return its integer slot handle.

        Resolve once (at construction time) and bump in place (or
        through :meth:`add`) on the hot path; the counter stays
        invisible until first bumped.
        """
        slot = self._index.get(name)
        if slot is None:
            slot = len(self._values)
            self._index[name] = slot
            self._values.append(0.0)
            self._touched.append(False)
        return slot

    def add(self, slot: int, amount: float = 1) -> None:
        """Increment the counter behind ``slot`` (from :meth:`handle`).

        Marks the counter touched, so a zero ``amount`` still makes it
        visible; a hot path whose amount is always >= 1 bumps
        ``_values[slot]`` in place instead (see the module docstring).
        """
        self._values[slot] += amount
        self._touched[slot] = True

    def value(self, slot: int) -> float:
        """Current value behind ``slot`` (0.0 when never bumped)."""
        return self._values[slot]

    # -- string-keyed view ----------------------------------------------

    def bump(self, name: str, amount: float = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        slot = self.handle(name)
        self._values[slot] += amount
        self._touched[slot] = True

    def set(self, name: str, value: float) -> None:
        slot = self.handle(name)
        self._values[slot] = value
        self._touched[slot] = True

    def _visible(self, slot: int) -> bool:
        """Whether the counter behind ``slot`` shows in the views:
        touched, or bumped in place (a non-zero value)."""
        return self._touched[slot] or self._values[slot] != 0

    def get(self, name: str, default: float = 0.0) -> float:
        slot = self._index.get(name)
        if slot is None or not self._visible(slot):
            return default
        return self._values[slot]

    def __getitem__(self, name: str) -> float:
        return self.get(name)

    def __contains__(self, name: str) -> bool:
        slot = self._index.get(name)
        return slot is not None and self._visible(slot)

    def merge(self, other: "Stats") -> None:
        """Accumulate another Stats object into this one."""
        for name, slot in other._index.items():
            if other._visible(slot):
                self.bump(name, other._values[slot])

    def as_dict(self) -> Dict[str, float]:
        return {name: self._values[slot]
                for name, slot in self._index.items()
                if self._visible(slot)}

    def names(self) -> Iterable[str]:
        return [name for name, slot in self._index.items()
                if self._visible(slot)]

    def ratio(self, numerator: str, denominator: str) -> float:
        """``numerator / denominator`` with a 0 fallback for empty runs."""
        denom = self.get(denominator)
        if denom == 0:
            return 0.0
        return self.get(numerator) / denom

    def ipc(self) -> float:
        return self.ratio("commit.insts", "sim.cycles")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        interesting = sorted(self.as_dict().items())
        return "Stats(%s)" % ", ".join(
            "%s=%g" % item for item in interesting[:12])
