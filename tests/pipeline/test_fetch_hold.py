"""Fetch holds its line: the ``ifetch_version`` shortcut against a
brute-force ``_probe_present``.

``HotCore._fetch`` remembers the instruction line it last found present
(``held_line``) and the hierarchy's ``ifetch_version()`` at that probe
(``held_version``).  While a fetch group reaches the same line and the
version has not moved, fetch holds the line instead of probing it
again.  That is exact only if every change to a structure
``_probe_present`` reads on the instruction side moves the version:
``_probe_present`` is pure and monotone in the timestamp, and the fetch
timestamp never decreases.

The first test wraps ``ifetch_version`` and, whenever fetch reads a
value equal to the held one, asks ``_probe_present`` directly whether
the held line is still present at the current fetch timestamp.  The
second drives each hierarchy's instruction side through random fetches,
drains, commits and squashes, with structures small enough to evict,
and checks after each operation that a line present at some timestamp
is still present whenever ``ifetch_version`` has not moved.  The third
holds every registered hierarchy to the contract: a class that
overrides ``_probe_present`` overrides ``ifetch_version`` too.
"""

import random

import pytest

from repro.config import default_config
from repro.defenses import registry
from repro.defenses.ghostminion import ghostminion
from repro.defenses.muontrap import muontrap
from repro.memory.hierarchy import BaseHierarchy
from repro.sim.simulator import Simulator
from repro.workloads.spec import get_workload

MAX_CYCLES = 400_000

#: name -> defense factory.  A small I-side L0 makes MuonTrap evict
#: (and so drop held lines) inside these short runs.
DEFENSES = {
    "Unsafe": lambda: registry["Unsafe"](),
    "GhostMinion": lambda: registry["GhostMinion"](),
    "GhostMinion-FS": lambda: ghostminion(full_strictness=True),
    "MuonTrap": lambda: muontrap(l0_size_bytes=256, l0_assoc=1),
    "MuonTrap-Flush": lambda: registry["MuonTrap-Flush"](),
}
KERNELS = [("sjeng", 0.05), ("gobmk", 0.05), ("perlbench", 0.03)]


def _run_checked(sim):
    """Step ``sim`` densely to the end, checking every read of the
    version that fetch would hold on; returns the number of holds
    checked."""
    core = sim.cores[0]
    hierarchy = core.hierarchy
    version = hierarchy.ifetch_version
    checked = []

    def checked_version():
        value = version()
        if core.held_line >= 0 and value == core.held_version:
            assert hierarchy._probe_present(
                hierarchy.iport, core.held_line, core._fetch_ts()), (
                "line %d held but no longer present" % core.held_line)
            checked.append(core.held_line)
        return value

    hierarchy.ifetch_version = checked_version
    cycle = 0
    while not core.halted and cycle < MAX_CYCLES:
        core.step(cycle)
        cycle += 1
    assert core.halted
    return len(checked)


@pytest.mark.parametrize("defense", sorted(DEFENSES))
def test_held_line_is_present_whenever_fetch_holds_it(defense):
    holds = squashes = 0
    for workload, scale in KERNELS:
        sim = Simulator(get_workload(workload).build(scale),
                        DEFENSES[defense]())
        holds += _run_checked(sim)
        squashes += sim.stats.get("squash.events")
    # Non-vacuous: fetch held lines, across squashes.
    assert holds > 0
    assert squashes > 0


def _small_i_side(programs):
    cfg = default_config(cores=len(programs))
    cfg.l1i.size_bytes = 256
    cfg.l1i.assoc = 2
    cfg.minion_i.size_bytes = 128
    cfg.minion_i.assoc = 1
    return cfg


@pytest.mark.parametrize("defense", sorted(DEFENSES))
def test_unchanged_ifetch_version_keeps_present_lines_present(defense):
    programs = get_workload("sjeng").build(0.02)
    sim = Simulator(programs, DEFENSES[defense](),
                    cfg=_small_i_side(programs))
    hierarchy = sim.cores[0].hierarchy
    port = hierarchy.iport
    rng = random.Random(7)
    lines = range(12)
    stamps = (0, 5, 10, 20, 40, 80)

    def present():
        return {(line, ts): hierarchy._probe_present(port, line, ts)
                for line in lines for ts in stamps}

    before, version = present(), hierarchy.ifetch_version()
    cycle = held = dropped = 0
    for _ in range(3000):
        cycle += rng.randrange(1, 4)
        ts = rng.choice(stamps)
        line = rng.choice(lines)
        action = rng.random()
        if action < 0.4:
            hierarchy.ifetch(line * 64, ts, cycle)
        elif action < 0.7:
            hierarchy.drain(cycle + rng.randrange(40))
        elif action < 0.9:
            hierarchy.commit_ifetch(line * 64, ts, cycle)
        else:
            hierarchy.squash(ts, cycle)
        after = present()
        # Monotone in the timestamp: present at ts, present above it.
        for line_ in lines:
            seen = [after[line_, ts_] for ts_ in stamps]
            assert seen == sorted(seen), (line_, seen)
        if hierarchy.ifetch_version() == version:
            for key, was in before.items():
                assert after[key] or not was, (
                    "line %d at ts %d vanished, version unchanged" % key)
                held += was
        else:
            dropped += sum(before[key] and not after[key]
                           for key in before)
        before, version = after, hierarchy.ifetch_version()
    # Non-vacuous: presence was held across operations, and lines did
    # vanish (evictions, wipes, flushes), each with a version change.
    assert held > 0
    assert dropped > 0


def _definer(cls, name):
    return next(klass for klass in cls.__mro__ if name in vars(klass))


def _hierarchy_classes():
    classes = {BaseHierarchy}
    for name in registry:
        classes.add(registry[name]().hierarchy_cls)
    pending = list(classes)
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in classes:
                classes.add(sub)
                pending.append(sub)
    return sorted(classes, key=lambda cls: cls.__qualname__)


@pytest.mark.parametrize("cls", _hierarchy_classes(),
                         ids=lambda cls: cls.__qualname__)
def test_probe_present_overrides_come_with_an_ifetch_version(cls):
    """Whoever defines the ``_probe_present`` a hierarchy runs also
    defines (or is below a class that defines) its ``ifetch_version``:
    a new structure in the presence check needs its version counted."""
    probe = _definer(cls, "_probe_present")
    version = _definer(cls, "ifetch_version")
    assert issubclass(version, probe), (
        "%s overrides _probe_present in %s but ifetch_version only in %s"
        % (cls.__qualname__, probe.__qualname__, version.__qualname__))
