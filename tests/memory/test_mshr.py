"""MSHR file: leapfrogging (fig. 5), timeleaping, squash semantics."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.mshr import MSHRFile
from repro.memory.request import MemRequest, ReqState


def req(addr=0x100, ts=5, core=0, cycle=0):
    return MemRequest("load", addr, ts, core, cycle, True)


def test_allocate_find_drain():
    mshrs = MSHRFile(2, "m")
    entry = mshrs.allocate(0x1, ts=5, ready_cycle=10)
    assert mshrs.find(0x1) is entry
    assert mshrs.find(0x2) is None
    assert mshrs.drain(9) == []
    assert mshrs.drain(10) == [entry]
    assert mshrs.find(0x1) is None


def test_allocate_full_raises():
    mshrs = MSHRFile(1, "m")
    mshrs.allocate(0x1, ts=5, ready_cycle=10)
    with pytest.raises(RuntimeError):
        mshrs.allocate(0x2, ts=6, ready_cycle=10)


def test_attach_lowers_timestamp_same_core_only():
    mshrs = MSHRFile(2, "m")
    entry = mshrs.allocate(0x1, ts=9, ready_cycle=10, core=0)
    entry.attach(req(ts=4, core=0))
    assert entry.ts == 4
    entry.attach(req(ts=2, core=1))   # cross-core: no ordering
    assert entry.ts == 4


def test_fig5_leapfrog_scenario():
    """Fig. 5: entries at ts 22, 23, 28; a request at ts 25 steals the
    ts-28 entry, whose load must replay."""
    mshrs = MSHRFile(3, "m")
    mshrs.allocate(0xa, ts=22, ready_cycle=100)
    mshrs.allocate(0xb, ts=23, ready_cycle=100)
    victim_entry = mshrs.allocate(0xc, ts=28, ready_cycle=100)
    victim_req = req(addr=0xc0, ts=28)
    victim_entry.attach(victim_req)
    assert mshrs.full()
    victim = mshrs.leapfrog_victim(25, core=0)
    assert victim is victim_entry
    new_entry = mshrs.steal(victim, 0xd, ts=25, ready_cycle=120, core=0)
    assert victim_req.state is ReqState.REPLAY
    assert mshrs.find(0xd) is new_entry
    assert mshrs.find(0xc) is None


def test_no_leapfrog_when_all_older():
    """Waiting is safe when every occupant is at-or-before the
    requester's timestamp (all visible under Temporal Order)."""
    mshrs = MSHRFile(2, "m")
    mshrs.allocate(0xa, ts=3, ready_cycle=100)
    mshrs.allocate(0xb, ts=4, ready_cycle=100)
    assert mshrs.leapfrog_victim(9, core=0) is None


def test_prefetch_always_stealable():
    mshrs = MSHRFile(1, "m")
    mshrs.allocate(0xa, ts=0, ready_cycle=100, prefetch=True)
    victim = mshrs.leapfrog_victim(5, core=0)
    assert victim is not None and victim.prefetch


def test_cross_core_entries_not_comparable():
    """Section 4.9: no Temporal Order across threads — a core may not
    leapfrog another core's demand entries."""
    mshrs = MSHRFile(1, "m")
    mshrs.allocate(0xa, ts=50, ready_cycle=100, core=1)
    assert mshrs.leapfrog_victim(5, core=0) is None


def test_squash_marked_entries_stealable_by_anyone():
    mshrs = MSHRFile(1, "m")
    mshrs.allocate(0xa, ts=50, ready_cycle=100, core=0)
    assert mshrs.mark_squashed_above(40, core=0) == 1
    # even a younger request (ts 60) may steal a squashed entry
    assert mshrs.leapfrog_victim(60, core=0) is not None
    # and so may another core
    assert mshrs.leapfrog_victim(60, core=1) is not None


def test_mark_squashed_respects_boundary_and_core():
    mshrs = MSHRFile(4, "m")
    old = mshrs.allocate(0xa, ts=10, ready_cycle=100, core=0)
    young = mshrs.allocate(0xb, ts=50, ready_cycle=100, core=0)
    other = mshrs.allocate(0xc, ts=50, ready_cycle=100, core=1)
    assert mshrs.mark_squashed_above(40, core=0) == 1
    assert young.squashed and not old.squashed and not other.squashed


def test_timeleap_postpones_attached_requests():
    mshrs = MSHRFile(2, "m")
    entry = mshrs.allocate(0x1, ts=9, ready_cycle=50)
    attached = req(ts=12)
    attached.mark_ready(50)
    entry.attach(attached)
    mshrs.timeleap(entry, ts=4, ready_cycle=80)
    assert entry.ts == 4
    assert entry.ready_cycle == 80
    assert attached.ready_cycle == 80
    assert not entry.squashed


def test_timeleap_never_advances_requests():
    mshrs = MSHRFile(2, "m")
    entry = mshrs.allocate(0x1, ts=9, ready_cycle=50)
    attached = req(ts=12)
    attached.mark_ready(90)   # already later than the restart
    entry.attach(attached)
    mshrs.timeleap(entry, ts=4, ready_cycle=80)
    assert attached.ready_cycle == 90


def test_dependent_cascade_on_steal():
    """L2-level steal cancels waiting L1 entries (cascading leapfrogs)."""
    l2 = MSHRFile(1, "l2")
    l1 = MSHRFile(2, "l1")
    l2_entry = l2.allocate(0x1, ts=9, ready_cycle=100)
    l1_entry = l1.allocate(0x1, ts=9, ready_cycle=100)
    waiting = req(ts=9)
    waiting.mark_ready(100)
    l1_entry.attach(waiting)
    l2_entry.dependents.append((l1, l1_entry))
    l2.steal(l2_entry, 0x2, ts=3, ready_cycle=120)
    assert l1.find(0x1) is None
    assert waiting.state is ReqState.REPLAY


def test_dependent_cascade_on_timeleap():
    l2 = MSHRFile(1, "l2")
    l1 = MSHRFile(1, "l1")
    l2_entry = l2.allocate(0x1, ts=9, ready_cycle=100)
    l1_entry = l1.allocate(0x1, ts=9, ready_cycle=100)
    waiting = req(ts=9)
    waiting.mark_ready(100)
    l1_entry.attach(waiting)
    l2_entry.dependents.append((l1, l1_entry))
    l2.timeleap(l2_entry, ts=3, ready_cycle=150)
    assert l1_entry.ready_cycle == 150
    assert waiting.ready_cycle == 150


def test_drop_fills_above():
    mshrs = MSHRFile(2, "m")
    sink = []

    def fill(line, cycle, ts):
        sink.append((line, ts))

    entry = mshrs.allocate(0x1, ts=9, ready_cycle=10)
    entry.add_fill(fill)            # ts=None: uses entry.ts
    entry.add_fill(fill, ts=3)
    dropped = mshrs.drop_fills_above(5, {fill})
    assert dropped == 1             # the entry.ts=9 fill went; ts=3 stays
    assert len(entry.fill_actions) == 1


def test_earliest_free_cycle():
    mshrs = MSHRFile(2, "m")
    assert mshrs.earliest_free_cycle() == 0
    mshrs.allocate(0x1, ts=1, ready_cycle=30)
    mshrs.allocate(0x2, ts=2, ready_cycle=20)
    assert mshrs.earliest_free_cycle() == 20


def test_rejects_empty_file():
    with pytest.raises(ValueError):
        MSHRFile(0, "m")


# -- the _next_ready invariant --------------------------------------------
#
# Each file caches the earliest ready_cycle over its entries so the
# per-cycle drain and wakeup queries need no scan.  Random operation
# sequences on an L2 file linked to an L1 file (every L1 allocation
# waits on an L2 entry through ``dependents``, so steals and timeleaps
# cascade) check the cache against a brute-force reference after every
# step.  Ready cycles are drawn as delays past a clock that drains
# advance, as in the simulator.

INF = float("inf")
#: Operation kinds, weighted towards the ones that move ready cycles.
KINDS = (("alloc",) * 4 + ("steal",) * 2 + ("timeleap",) * 2
         + ("drain",) * 2
         + ("attach", "squash", "drop", "snapshot", "restore"))
#: (kind, file, pick, line, ts, delay, prefetch): each kind reads the
#: fields it needs.  ``pick`` selects an occupant (or the L2 entry a new
#: L1 entry waits on); ``delay`` is cycles past the clock, or for a drain
#: how far the clock advances.
OPS = st.tuples(st.sampled_from(KINDS), st.sampled_from(("l1", "l2")),
                st.integers(0, 7), st.integers(0, 9), st.integers(0, 20),
                st.integers(1, 40), st.booleans())


def _fill(line, cycle, ts):
    pass


class _Model:
    """The two linked files, the clock, and one saved copy of the L1 file."""

    def __init__(self):
        self.files = {"l2": MSHRFile(2, "l2"), "l1": MSHRFile(3, "l1")}
        self.clock = 0
        self.saved = None

    def check(self):
        for mshrs in self.files.values():
            expected = min((e.ready_cycle for e in mshrs.entries),
                           default=INF)
            assert mshrs.next_ready_cycle() == expected
            assert mshrs.earliest_free_cycle() == (
                expected if mshrs.entries else 0)

    def apply(self, op):
        kind, name, pick, line, ts, delay, prefetch = op
        if kind == "snapshot":
            # The L1 file is the leaf: its entries hold no cross-file
            # links, so a copy of the file alone is self-contained.
            self.saved = copy.deepcopy(self.files["l1"])
            return
        if kind == "restore":
            if self.saved is not None:
                # Copy the saved state back in place, so the L2 entries'
                # dependents still name the live file; copy it afresh,
                # so the saved file stays reusable.
                saved = copy.deepcopy(self.saved)
                l1 = self.files["l1"]
                l1.entries = saved.entries
                l1._next_ready = saved._next_ready
                l1.version = saved.version
            return
        mshrs = self.files[name]
        entries = mshrs.entries
        if kind == "alloc":
            if mshrs.full():
                return
            entry = mshrs.allocate(line, ts, self.clock + delay,
                                   prefetch=prefetch)
            entry.add_fill(_fill)
            l2_entries = self.files["l2"].entries
            if name == "l1" and l2_entries:
                l2_entries[pick % len(l2_entries)].dependents.append(
                    (mshrs, entry))
        elif kind == "drain":
            self.clock += delay // 3
            before = list(entries)
            due = [e for e in before if e.ready_cycle <= self.clock]
            assert mshrs.drain(self.clock) == due
            assert mshrs.entries == [e for e in before if e not in due]
        elif kind == "squash":
            mshrs.mark_squashed_above(ts, core=0)
        elif kind == "drop":
            mshrs.drop_fills_above(ts, {_fill})
        elif not entries:
            return
        elif kind == "attach":
            entry = entries[pick % len(entries)]
            request = req(ts=ts)
            request.mark_ready(entry.ready_cycle)
            entry.attach(request)
        elif kind == "steal":
            # Any occupant may be the victim: which one the hierarchy
            # picks (leapfrog_victim) is tested above; this checks the
            # bookkeeping of the steal and its cancel cascade.
            if mshrs.full():
                mshrs.steal(entries[pick % len(entries)], line, ts,
                            self.clock + delay)
        elif kind == "timeleap":
            # Restarts reach further out than fresh allocations, so
            # timeleaping an L2 entry often postpones its L1 dependents
            # past their peers.
            mshrs.timeleap(entries[pick % len(entries)], ts,
                           self.clock + 2 * delay)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(OPS, min_size=10, max_size=50))
def test_next_ready_matches_brute_force(ops):
    model = _Model()
    for op in ops:
        model.apply(op)
        model.check()
