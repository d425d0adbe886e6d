"""The TimeGuarded Minion structure (figs. 3, 4; sections 4.3-4.4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ghostminion import Minion


def make(num_sets=4, assoc=2, timeless=False, rob=0):
    return Minion(num_sets, assoc, timeless=timeless, rob_entries=rob)


# -- TimeGuarded reads (fig. 4a) ---------------------------------------------

def test_read_miss():
    assert make().read(0x10, ts=5) == "miss"


def test_read_hit_older_line():
    minion = make()
    minion.fill(0x10, ts=3)
    assert minion.read(0x10, ts=5) == "hit"
    assert minion.read(0x10, ts=3) == "hit"  # equal timestamps allowed


def test_read_blocked_by_timeguard():
    """Fig. 4a: a line brought in by a younger instruction is invisible."""
    minion = make()
    minion.fill(0x10, ts=22)
    assert minion.read(0x10, ts=21) == "timeguard"
    assert minion.stats.get("minion.timeguard_blocks") == 1


# -- TimeGuarded fills (fig. 4b) ---------------------------------------------

def test_fill_takes_free_slot():
    outcome = make().fill(0x10, ts=7)
    assert outcome.filled and outcome.took_free_slot


def test_fill_evicts_younger_line():
    minion = make(num_sets=1, assoc=1)
    minion.fill(0x10, ts=9)
    outcome = minion.fill(0x11, ts=5)  # older fill may displace younger
    assert outcome.filled and outcome.evicted == 0x10


def test_fill_fails_against_older_line():
    """Fig. 4b: a younger fill may not displace an older line — only the
    highest-timestamped instruction learns the Minion is full."""
    minion = make(num_sets=1, assoc=1)
    minion.fill(0x10, ts=5)
    outcome = minion.fill(0x11, ts=9)
    assert not outcome.filled
    assert minion.get(0x10) is not None


def test_fill_evicts_highest_timestamp_candidate():
    """Footnote 4's policy: evict the highest-timestamped valid victim."""
    minion = make(num_sets=1, assoc=3)
    minion.fill(0x10, ts=5)
    minion.fill(0x11, ts=9)
    minion.fill(0x12, ts=7)
    outcome = minion.fill(0x13, ts=6)
    assert outcome.evicted == 0x11


def test_refill_same_line_lowers_timestamp():
    minion = make()
    minion.fill(0x10, ts=9)
    outcome = minion.fill(0x10, ts=4)
    assert outcome.filled
    assert minion.get(0x10).ts == 4


def test_refill_same_line_younger_fails():
    minion = make()
    minion.fill(0x10, ts=4)
    assert not minion.fill(0x10, ts=9).filled
    assert minion.get(0x10).ts == 4


# -- free-slotting at commit (fig. 3) ----------------------------------------

def test_commit_takes_line_and_frees_slot():
    minion = make(num_sets=1, assoc=1)
    minion.fill(0x10, ts=3)
    entry = minion.take_for_commit(0x10, ts=3)
    assert entry is not None and entry.line == 0x10
    assert len(minion) == 0
    # the freed slot accepts a new speculative fill
    assert minion.fill(0x11, ts=50).filled


def test_commit_cannot_take_younger_line():
    minion = make()
    minion.fill(0x10, ts=9)
    assert minion.take_for_commit(0x10, ts=5) is None
    assert minion.get(0x10) is not None


def test_commit_miss_returns_none():
    assert make().take_for_commit(0x99, ts=5) is None


# -- wipe on misspeculation (section 4.2) ------------------------------------

def test_wipe_is_timestamp_bounded():
    """Footnote 2: only lines above the squash point are cleared."""
    minion = make()
    minion.fill(0x10, ts=3)
    minion.fill(0x11, ts=7)
    minion.fill(0x12, ts=12)
    wiped = minion.wipe_above(7)
    assert wiped == 1
    assert sorted(entry.line for entry in minion.lines()) == [0x10, 0x11]


def test_timeless_wipe_clears_everything():
    minion = make(timeless=True)
    minion.fill(0x10, ts=3)
    minion.fill(0x11, ts=7)
    assert minion.wipe_above(100) == 2
    assert len(minion) == 0


def test_timeless_ignores_timeguard():
    """DMinion-Timeless (fig. 9): no backwards-in-time protection."""
    minion = make(timeless=True)
    minion.fill(0x10, ts=22)
    assert minion.read(0x10, ts=21) == "hit"


def test_timeless_fill_always_succeeds():
    minion = make(num_sets=1, assoc=1, timeless=True)
    minion.fill(0x10, ts=5)
    assert minion.fill(0x11, ts=9).filled


def test_invalidate():
    minion = make()
    minion.fill(0x10, ts=3)
    assert minion.invalidate(0x10)
    assert not minion.invalidate(0x10)


def test_contents_sorted():
    minion = make()
    minion.fill(0x12, ts=9)
    minion.fill(0x10, ts=3)
    assert minion.contents() == [(0x10, 3), (0x12, 9)]


def test_rejects_bad_geometry():
    with pytest.raises(ValueError):
        Minion(0, 2)
    with pytest.raises(ValueError):
        Minion(2, 0)


# -- property-based invariants -------------------------------------------------

ops = st.lists(
    st.tuples(st.sampled_from(["fill", "read", "commit", "wipe"]),
              st.integers(0, 15),      # line
              st.integers(0, 40)),     # ts
    max_size=60)


@settings(max_examples=200, deadline=None)
@given(ops)
def test_timeguard_invariants_hold_under_any_sequence(sequence):
    """Under any operation sequence:

    * a read at ts t never observes a line with ts > t;
    * a fill never displaces a line strictly older than itself;
    * after wipe_above(t), no line with ts > t remains.
    """
    minion = make(num_sets=2, assoc=2, rob=32)
    for op, line, ts in sequence:
        before = {e.line: e.ts for e in minion.lines()}
        if op == "fill":
            outcome = minion.fill(line, ts)
            if outcome.evicted is not None:
                assert before[outcome.evicted] >= ts
        elif op == "read":
            result = minion.read(line, ts)
            if result == "hit":
                assert before[line] <= ts
            elif result == "timeguard":
                assert before[line] > ts
        elif op == "commit":
            entry = minion.take_for_commit(line, ts)
            if entry is not None:
                assert entry.ts <= ts
        else:
            minion.wipe_above(ts)
            assert all(e.ts <= ts for e in minion.lines())


# -- layout: the flat index against the per-set reference ------------------

class _PerSetMinion:
    """Reference model: the per-set layout the Minion was first built
    with, one dict per set (``line -> [ts, version, src_level]``)
    created up front."""

    def __init__(self, num_sets, assoc, timeless):
        self.num_sets = num_sets
        self.assoc = assoc
        self.timeless = timeless
        self.sets = [{} for _ in range(num_sets)]
        self.version = 0
        self.stats = {}

    def _add(self, name, amount=1):
        self.stats[name] = self.stats.get(name, 0) + amount

    def _set(self, line):
        return self.sets[line % self.num_sets]

    def _visible(self, entry, ts):
        return self.timeless or entry[0] <= ts

    def read(self, line, ts):
        entry = self._set(line).get(line)
        if entry is None:
            self._add("minion.misses")
            return "miss"
        if not self._visible(entry, ts):
            self._add("minion.timeguard_blocks")
            return "timeguard"
        self._add("minion.read_hits")
        return "hit"

    def fill(self, line, ts, version, src_level):
        """(filled, evicted, took_free_slot), as ``FillOutcome``."""
        self.version += 1
        minion_set = self._set(line)
        existing = minion_set.get(line)
        if existing is not None:
            if self.timeless or existing[0] >= ts:
                existing[:] = [min(existing[0], ts), version,
                               min(existing[2], src_level)]
                self._add("minion.fills")
                return True, None, False
            self._add("minion.fill_fails")
            return False, None, False
        if len(minion_set) < self.assoc:
            minion_set[line] = [ts, version, src_level]
            self._add("minion.fills")
            return True, None, True
        if self.timeless:
            victim = next(iter(minion_set))
        else:
            candidates = [resident for resident, entry in minion_set.items()
                          if entry[0] >= ts]
            if not candidates:
                self._add("minion.fill_fails")
                return False, None, False
            victim = max(candidates, key=lambda l: minion_set[l][0])
        del minion_set[victim]
        minion_set[line] = [ts, version, src_level]
        self._add("minion.fills")
        self._add("minion.fill_evictions")
        return True, victim, False

    def take_for_commit(self, line, ts):
        entry = self._set(line).get(line)
        if entry is None or not self._visible(entry, ts):
            return None
        del self._set(line)[line]
        self.version += 1
        self._add("minion.commit_moves")
        return entry

    def wipe_above(self, ts):
        self.version += 1
        wiped = 0
        for minion_set in self.sets:
            doomed = [line for line, entry in minion_set.items()
                      if self.timeless or entry[0] > ts]
            for line in doomed:
                del minion_set[line]
            wiped += len(doomed)
        self._add("minion.wipes")
        self._add("minion.wiped_lines", wiped)
        return wiped

    def invalidate(self, line):
        if line not in self._set(line):
            return False
        del self._set(line)[line]
        self.version += 1
        self._add("minion.invalidations")
        return True

    def lines(self):
        return [(line, *entry) for minion_set in self.sets
                for line, entry in minion_set.items()]


minion_ops = st.lists(
    st.tuples(st.sampled_from(["fill"] * 4 + ["read", "probe", "commit",
                                              "wipe", "invalidate"]),
              st.integers(0, 11),      # line
              st.integers(0, 10),      # ts: few values, so victim ties
              st.integers(0, 3),       # coherence version (fills)
              st.integers(1, 3)),      # source level (fills)
    min_size=10, max_size=80)


@settings(max_examples=200, deadline=None)
@given(minion_ops, st.integers(1, 4), st.integers(1, 3), st.booleans())
def test_flat_index_matches_the_per_set_layout(sequence, num_sets, assoc,
                                               timeless):
    """Fill outcomes and victims, reads, probes, commit moves, wipes
    and invalidations, ``lines()`` order (set index, then insertion
    order), ``len``, stats and every ``version`` bump agree with the
    per-set reference, timestamped and Timeless."""
    minion = Minion(num_sets, assoc, timeless=timeless)
    model = _PerSetMinion(num_sets, assoc, timeless)
    for op, line, ts, version, src_level in sequence:
        if op == "fill":
            outcome = minion.fill(line, ts, version, src_level)
            assert (outcome.filled, outcome.evicted,
                    outcome.took_free_slot) == \
                model.fill(line, ts, version, src_level)
        elif op == "read":
            assert minion.read(line, ts) == model.read(line, ts)
        elif op == "probe":
            entry = model._set(line).get(line)
            expected = "miss" if entry is None else (
                "hit" if model._visible(entry, ts) else "timeguard")
            assert minion.probe_outcome(line, ts) == expected
            assert minion.probe(line, ts) == (expected == "hit")
        elif op == "commit":
            entry = minion.take_for_commit(line, ts)
            expected = model.take_for_commit(line, ts)
            assert (None if entry is None else
                    [entry.ts, entry.version, entry.src_level]) == expected
        elif op == "wipe":
            assert minion.wipe_above(ts) == model.wipe_above(ts)
        else:
            assert minion.invalidate(line) == model.invalidate(line)
        assert [(e.line, e.ts, e.version, e.src_level)
                for e in minion.lines()] == model.lines()
        assert len(minion) == len(model.lines())
        assert minion.version == model.version
        assert minion.stats.as_dict() == model.stats
