"""Set-associative cache with LRU."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import SetAssocCache


def test_miss_then_fill_then_hit():
    cache = SetAssocCache(4, 2)
    assert not cache.lookup(0x10, cycle=0)
    cache.fill(0x10, cycle=1)
    assert cache.lookup(0x10, cycle=2)
    assert cache.stats.get("cache.hits") == 1
    assert cache.stats.get("cache.misses") == 1


def test_lru_eviction():
    cache = SetAssocCache(1, 2)
    cache.fill(1, cycle=1)
    cache.fill(2, cycle=2)
    cache.lookup(1, cycle=3)        # 1 is now most recent
    victim = cache.fill(3, cycle=4)
    assert victim == 2


def test_fill_existing_updates_recency():
    cache = SetAssocCache(1, 2)
    cache.fill(1, cycle=1)
    cache.fill(2, cycle=2)
    assert cache.fill(1, cycle=3) is None   # refresh, no eviction
    victim = cache.fill(3, cycle=4)
    assert victim == 2


def test_set_mapping_isolates_sets():
    cache = SetAssocCache(2, 1)
    cache.fill(0, cycle=1)   # set 0
    cache.fill(1, cycle=2)   # set 1
    assert cache.contains(0) and cache.contains(1)
    victim = cache.fill(2, cycle=3)   # set 0 again
    assert victim == 0
    assert cache.contains(1)


def test_invalidate():
    cache = SetAssocCache(2, 2)
    cache.fill(5, cycle=1)
    assert cache.invalidate(5)
    assert not cache.invalidate(5)
    assert not cache.contains(5)


def test_invalidate_all():
    cache = SetAssocCache(2, 2)
    for line in range(4):
        cache.fill(line, cycle=line)
    assert cache.invalidate_all() == 4
    assert len(cache) == 0


def test_probe_has_no_lru_side_effect():
    cache = SetAssocCache(1, 2)
    cache.fill(1, cycle=1)
    cache.fill(2, cycle=2)
    cache.contains(1)                 # probe: must not refresh 1
    victim = cache.fill(3, cycle=3)
    assert victim == 1


def test_dirty_tracking():
    cache = SetAssocCache(2, 2)
    cache.fill(5, cycle=1, dirty=True)
    assert cache.get(5).dirty
    cache.mark_dirty(5)
    assert cache.get(5).dirty


def test_rejects_bad_geometry():
    with pytest.raises(ValueError):
        SetAssocCache(0, 2)
    with pytest.raises(ValueError):
        SetAssocCache(2, 0)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 30), max_size=80),
       st.integers(1, 4), st.integers(1, 4))
def test_capacity_and_membership_invariants(lines, num_sets, assoc):
    """No set ever exceeds its associativity, and the most recently
    filled line of a set is always resident."""
    cache = SetAssocCache(num_sets, assoc)
    for cycle, line in enumerate(lines):
        cache.fill(line, cycle=cycle)
        assert cache.contains(line)
        per_set = {}
        for resident in cache.lines():
            per_set.setdefault(cache.set_index(resident), []).append(
                resident)
        assert all(len(v) <= assoc for v in per_set.values())


class _PerSetCache:
    """Reference model: the per-set layout the cache was first built
    with, one dict per set (``line -> [last_used, dirty]``) created up
    front, LRU victim the first-inserted of the least recently used."""

    def __init__(self, num_sets, assoc):
        self.num_sets = num_sets
        self.assoc = assoc
        self.sets = [{} for _ in range(num_sets)]
        self.version = 0
        self.stats = {}

    def _add(self, name, amount=1):
        self.stats[name] = self.stats.get(name, 0) + amount

    def _set(self, line):
        return self.sets[line % self.num_sets]

    def lookup(self, line, cycle):
        entry = self._set(line).get(line)
        if entry is None:
            self._add("cache.misses")
            return False
        entry[0] = cycle
        self._add("cache.hits")
        return True

    def fill(self, line, cycle, dirty):
        self.version += 1
        cache_set = self._set(line)
        if line in cache_set:
            cache_set[line][0] = cycle
            cache_set[line][1] = cache_set[line][1] or dirty
            return None
        victim = None
        if len(cache_set) >= self.assoc:
            victim = min(cache_set, key=lambda old: cache_set[old][0])
            del cache_set[victim]
            self._add("cache.evictions")
        cache_set[line] = [cycle, dirty]
        self._add("cache.fills")
        return victim

    def invalidate(self, line):
        cache_set = self._set(line)
        if line not in cache_set:
            return False
        del cache_set[line]
        self.version += 1
        self._add("cache.invalidations")
        return True

    def invalidate_all(self):
        count = sum(len(cache_set) for cache_set in self.sets)
        self.version += 1
        for cache_set in self.sets:
            cache_set.clear()
        self._add("cache.flushes")
        return count

    def lines(self):
        return [line for cache_set in self.sets for line in cache_set]


cache_ops = st.lists(
    st.tuples(st.sampled_from(["fill"] * 4 + ["lookup"] * 2 + [
        "contains", "invalidate", "flush", "mark_dirty"]),
              st.integers(0, 11),      # line
              st.booleans(),           # dirty (fills)
              st.booleans()),          # the clock ticks before the op
    min_size=10, max_size=80)


@settings(max_examples=200, deadline=None)
@given(cache_ops, st.integers(1, 5), st.integers(1, 4))
def test_flat_index_matches_the_per_set_layout(sequence, num_sets, assoc):
    """Hits, misses, victims (LRU ties included), flush counts,
    ``lines()`` order (set index, then insertion order), recency, dirty
    bits, ``len``, stats and every ``version`` bump agree with the
    per-set reference."""
    cache = SetAssocCache(num_sets, assoc)
    model = _PerSetCache(num_sets, assoc)
    cycle = 0
    for op, line, dirty, tick in sequence:
        cycle += tick   # ops sharing a cycle make LRU ties
        if op == "fill":
            assert cache.fill(line, cycle, dirty) == \
                model.fill(line, cycle, dirty)
        elif op == "lookup":
            assert cache.lookup(line, cycle) == model.lookup(line, cycle)
        elif op == "contains":
            assert cache.contains(line) == (line in model._set(line))
        elif op == "invalidate":
            assert cache.invalidate(line) == model.invalidate(line)
        elif op == "flush":
            assert cache.invalidate_all() == model.invalidate_all()
        else:
            cache.mark_dirty(line)
            if line in model._set(line):
                model._set(line)[line][1] = True
        assert list(cache.lines()) == model.lines()
        assert len(cache) == len(model.lines())
        assert cache.version == model.version
        assert cache.stats.as_dict() == model.stats
        for resident in model.lines():
            entry = cache.get(resident)
            assert [entry.last_used, entry.dirty] == \
                model._set(resident)[resident]
