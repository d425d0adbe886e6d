"""Edge cases of the interned-slot Stats API (repro.analysis.stats).

The hot loop bumps counters through integer handles interned once at
component construction.  Three properties keep that safe across the
rest of the system:

- interning alone is invisible — a counter only enters ``as_dict()``
  once actually bumped, so pre-resolving handles for counters that
  never fire leaves result payloads (and cache digests) unchanged;
- handles stay valid across checkpoint restore — components hold
  their handles in attributes that a restore does *not* rebuild, so the
  slot numbering must come back exactly;
- slot allocation is deterministic — after a restore, interning
  continues from the same slot numbers, keeping restored and cold
  runs aligned.
"""

import pickle

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


# -- checkpoint restore ----------------------------------------------------
#
# A whole-machine checkpoint pickles the simulator, its Stats included
# (repro.sim.checkpoint.snapshot_simulator), and the restored machine's
# components keep the handles they interned before the save.  Each test
# runs on a set-built registry and on a Stats.from_dict one (the cache-hit
# rehydration path).


def _round_trip(stats):
    return pickle.loads(pickle.dumps(stats, protocol=pickle.HIGHEST_PROTOCOL))


def _registries():
    built = Stats()
    built.set("seed", 1)
    return [built, Stats.from_dict({"seed": 1})]


def test_handles_survive_restore():
    """A handle held by a component keeps addressing the same counter
    in the restored registry (components never re-intern)."""
    for stats in _registries():
        h_hits = stats.handle("c.hits")
        h_miss = stats.handle("c.misses")
        stats.add(h_hits, 5)
        restored = _round_trip(stats)
        # Fully slotted: the three slots are all the state there is.
        assert not hasattr(stats, "__dict__")
        assert not hasattr(restored, "__dict__")
        stats.add(h_hits, 100)
        stats.add(h_miss, 7)
        assert restored.as_dict() == {"seed": 1, "c.hits": 5.0}
        restored.add(h_hits)
        restored.add(h_miss, 2)
        assert restored.as_dict() == {"seed": 1, "c.hits": 6.0,
                                      "c.misses": 2.0}


def test_slot_allocation_is_deterministic_after_restore():
    """Interning in a restored registry hands out the same slots the
    saved one does next — a restored run and the cold run it mirrors
    intern in the same order, so their handle numbering must match."""
    for stats in _registries():
        stats.handle("a")
        restored = _round_trip(stats)
        before = [stats.handle("b"), stats.handle("c")]
        after = [restored.handle("b"), restored.handle("c")]
        assert after == before
        restored.add(after[1], 9)
        assert restored.as_dict() == {"seed": 1, "c": 9.0}


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
    assert bulk.handle("late") == reference.handle("late") == len(values)
    assert bulk.handle("commit.insts") == 1
    bulk.add(bulk.handle("late"), 2)
    assert list(bulk.as_dict().items())[-1] == ("late", 2)


# -- in-place bumps ----------------------------------------------------------
#
# Hot components bind ``_counts = stats._values`` once and bump
# ``_counts[slot] += n`` (n >= 1) without touching ``_touched``; the
# views read a counter as visible when it is touched or non-zero.


def test_in_place_bump_is_visible_in_every_view():
    stats = Stats()
    slot = stats.handle("hot.counter")
    stats.handle("quiet.counter")
    counts = stats._values
    counts[slot] += 1
    counts[slot] += 2
    assert stats.as_dict() == {"hot.counter": 3.0}
    assert list(stats.names()) == ["hot.counter"]
    assert stats.get("hot.counter") == 3.0
    assert stats["hot.counter"] == 3.0
    assert "hot.counter" in stats
    assert "quiet.counter" not in stats
    assert stats.get("quiet.counter", default=-1.0) == -1.0
    sink = Stats()
    sink.merge(stats)
    assert sink.as_dict() == {"hot.counter": 3.0}


def test_zero_amount_add_stays_visible():
    """``Stats.add`` marks the counter touched, so a bump that adds 0
    (``squash.insts`` of a squash with nothing younger) still shows."""
    stats = Stats()
    slot = stats.handle("maybe.zero")
    stats.add(slot, 0)
    assert stats.as_dict() == {"maybe.zero": 0}
    assert list(stats.names()) == ["maybe.zero"]
    assert "maybe.zero" in stats
    sink = Stats()
    sink.merge(stats)
    assert sink.as_dict() == {"maybe.zero": 0}


def _hot_components(sim):
    """``(name, component)`` for every component that bumps in place."""
    core = sim.cores[0]
    hierarchy = core.hierarchy
    return [("core", core), ("fu_pool", core.fu_pool),
            ("hierarchy", hierarchy), ("shared", hierarchy.shared),
            ("l1d", hierarchy.dport.cache), ("l1i", hierarchy.iport.cache),
            ("l1d.mshr", hierarchy.dport.mshrs),
            ("l1i.mshr", hierarchy.iport.mshrs),
            ("l2", hierarchy.shared.l2)]


def test_in_place_aliases_survive_restore():
    """A restored machine's components still bump into its registry:
    the pickle memo keeps ``_counts`` the same list as
    ``stats._values``, not a copy."""
    from repro.defenses import registry
    from repro.sim.simulator import Simulator
    from repro.workloads.spec import get_workload

    sim = Simulator(get_workload("mcf").build(0.02),
                    registry["GhostMinion"]())
    sim.run(max_insts=300)
    restored = Simulator.restore(sim.snapshot())
    for machine in (sim, restored):
        for name, component in _hot_components(machine):
            assert component._counts is machine.stats._values, name
    before = restored.stats.get("commit.insts")
    restored.run()
    assert restored.stats.get("commit.insts") > before
    assert sim.stats.get("commit.insts") == before
