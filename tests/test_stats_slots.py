"""Edge cases of the interned-slot Stats API (repro.analysis.stats).

The hot loop bumps counters through integer handles interned once at
component construction.  Three properties keep that safe across the
rest of the system:

- interning alone is invisible — a counter only enters ``as_dict()``
  once actually bumped, so pre-resolving handles for counters that
  never fire leaves result payloads (and cache digests) unchanged;
- handles stay valid across snapshot/restore — components hold their
  handles in attributes that checkpoint restore does *not* rebuild, so
  the slot numbering must come back exactly;
- slot allocation is deterministic — after a restore, re-interning
  reuses the same slots, keeping warm-started and cold runs aligned.
"""

from repro.analysis.stats import Stats


# -- invisibility of untouched slots ---------------------------------------


def test_interned_slot_is_invisible_until_bumped():
    stats = Stats()
    slot = stats.handle("quiet.counter")
    assert stats.as_dict() == {}
    assert list(stats.names()) == []
    assert "quiet.counter" not in stats
    assert stats.get("quiet.counter", default=-1.0) == -1.0
    assert stats.value(slot) == 0.0
    stats.add(slot)
    assert stats.as_dict() == {"quiet.counter": 1.0}
    assert "quiet.counter" in stats


def test_handle_is_stable_and_add_accumulates():
    stats = Stats()
    first = stats.handle("x")
    assert stats.handle("x") == first
    stats.add(first, 2)
    stats.add(first)
    assert stats.get("x") == 3.0
    assert stats.value(first) == 3.0


def test_set_and_bump_share_slots_with_handles():
    stats = Stats()
    slot = stats.handle("mixed")
    stats.bump("mixed", 4)
    stats.set("mixed", 10)
    assert stats.value(slot) == 10.0
    stats.add(slot, 1)
    assert stats.get("mixed") == 11.0


def test_merge_skips_interned_but_untouched_slots():
    source = Stats()
    source.handle("never.bumped")
    source.bump("real", 2)
    sink = Stats()
    sink.merge(source)
    assert sink.as_dict() == {"real": 2.0}


# -- snapshot/restore ------------------------------------------------------


def test_handles_survive_restore():
    """A handle held by a component keeps addressing the same counter
    after checkpoint restore (components are restored in place and
    never re-intern)."""
    stats = Stats()
    h_hits = stats.handle("c.hits")
    h_miss = stats.handle("c.misses")
    stats.add(h_hits, 5)
    state = stats.snapshot_state()
    stats.add(h_hits, 100)
    stats.add(h_miss, 7)
    stats.restore_state(state)
    assert stats.as_dict() == {"c.hits": 5.0}
    stats.add(h_hits)
    stats.add(h_miss, 2)
    assert stats.as_dict() == {"c.hits": 6.0, "c.misses": 2.0}


def test_restore_rolls_back_post_snapshot_interning():
    stats = Stats()
    stats.handle("old")
    state = stats.snapshot_state()
    late = stats.handle("late.arrival")
    stats.add(late, 3)
    stats.restore_state(state)
    assert "late.arrival" not in stats
    assert stats.as_dict() == {}


def test_slot_allocation_is_deterministic_after_restore():
    """Re-interning after a restore hands out the same slots the
    pre-restore timeline did — a warm-started run and the cold run it
    mirrors intern in the same construction order, so their handle
    numbering must match."""
    stats = Stats()
    stats.handle("a")
    state = stats.snapshot_state()
    before = [stats.handle("b"), stats.handle("c")]
    stats.restore_state(state)
    after = [stats.handle("b"), stats.handle("c")]
    assert after == before
    stats.add(after[1], 9)
    assert stats.as_dict() == {"c": 9.0}


def test_restored_snapshot_is_reusable():
    stats = Stats()
    slot = stats.handle("r")
    stats.add(slot, 1)
    state = stats.snapshot_state()
    stats.add(slot, 1)
    stats.restore_state(state)
    stats.add(slot, 1)
    stats.restore_state(state)
    assert stats.get("r") == 1.0


def test_untouched_interned_slot_stays_out_of_ratios():
    stats = Stats()
    stats.handle("sim.cycles")
    stats.handle("commit.insts")
    assert stats.ipc() == 0.0
    stats.bump("sim.cycles", 10)
    stats.bump("commit.insts", 5)
    assert stats.ipc() == 0.5


# -- bulk construction -----------------------------------------------------


def test_from_dict_matches_set_built_registry():
    """``Stats.from_dict`` (cache-hit rehydration) is the registry a
    ``set()`` per name builds: same order, values and value types, and
    later interning continues after the bulk slots."""
    values = {"sim.cycles": 691, "commit.insts": 100, "mem.ratio": 0.25,
              "a.zero": 0, "z.float": 3.0}
    bulk = Stats.from_dict(values)
    reference = Stats()
    for name, value in values.items():
        reference.set(name, value)
    for stats in (bulk, reference):
        assert [(name, value, type(value))
                for name, value in stats.as_dict().items()] == \
            [(name, value, type(value)) for name, value in values.items()]
        assert list(stats.names()) == list(values)
    for name in list(values) + ["absent"]:
        assert bulk.get(name, -1) == reference.get(name, -1)
        assert (name in bulk) == (name in reference)
    state = bulk.snapshot_state()
    bulk.bump("sim.cycles", 9)
    bulk.restore_state(state)
    assert bulk.as_dict() == reference.as_dict()
    assert bulk.handle("late") == reference.handle("late") == len(values)
    assert bulk.handle("commit.insts") == 1
    bulk.add(bulk.handle("late"), 2)
    assert list(bulk.as_dict().items())[-1] == ("late", 2)
