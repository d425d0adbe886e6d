"""Whole-machine checkpoint blobs (:mod:`repro.sim.checkpoint`):
round trips, byte identity across processes and across a restore, and
the refusal cases (corrupt, wrong format, wrong source tree).  The
restore-and-run-on matrix over every defense lives in
``test_scheduler_equivalence.py``.
"""

import os
import pickle
import subprocess
import sys
import zlib

import pytest

from repro.defenses import registry
from repro.exp.spec import code_fingerprint
from repro.sim.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    restore_simulator,
)
from repro.sim.simulator import Simulator
from repro.workloads.spec import get_workload


# -- whole-machine blobs ---------------------------------------------------


def _mid_run_sim():
    programs = get_workload("mcf").build(0.04)
    sim = Simulator(programs, registry["Unsafe"]())
    sim.run(max_insts=200)
    return sim


def test_simulator_blob_round_trip():
    sim = _mid_run_sim()
    blob = sim.snapshot()
    restored = Simulator.restore(blob)
    assert restored is not sim
    assert restored.cycle == sim.cycle
    assert restored.committed_insts() == sim.committed_insts()
    assert restored.stats.as_dict() == sim.stats.as_dict()


#: Snapshots mcf at scale 0.25 after 3,762 instructions under each
#: defense named on the command line, into ``<dir>/<defense>.blob``,
#: after allocating ``junk`` objects first so that every op lands at
#: another address.  The asserts keep the point one where the in-flight
#: op state is in use: two or more unresolved branches and, under STT,
#: an op whose youngest root of taint is still unsafe.
_SNAPSHOT_SCRIPT = """
import os, sys
junk = [[i] for i in range(int(sys.argv[2]))]
from repro.defenses import registry
from repro.sim.simulator import Simulator
from repro.workloads.spec import get_workload
for name in sys.argv[3:]:
    sim = Simulator(get_workload("mcf").build(0.25), registry[name]())
    sim.run(max_insts=3762)
    core = sim.cores[0]
    assert sum(not di.resolved for di in core.unresolved_branches) >= 2
    if name.startswith("STT"):
        frontier = core._taint_frontier()
        assert any(di.taint_root >= frontier for di in core.rob)
    with open(os.path.join(sys.argv[1], name + ".blob"), "wb") as out:
        out.write(sim.snapshot())
"""


def test_snapshot_bytes_do_not_depend_on_the_process(tmp_path):
    """Ops hash by identity, so a set of ops would iterate in memory
    order; the machine keeps none.  Two processes with different
    allocation histories and hash seeds write the same blob, and a
    restored blob still runs on exactly like a cold run."""
    defenses = ("GhostMinion", "STT-Future")
    blobs = []
    for run, junk in enumerate((0, 50_000)):
        out = tmp_path / str(run)
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=os.path.abspath("src"),
                   PYTHONHASHSEED=str(run + 1))
        subprocess.run([sys.executable, "-c", _SNAPSHOT_SCRIPT, str(out),
                        str(junk), *defenses], env=env, check=True)
        blobs.append({name: (out / (name + ".blob")).read_bytes()
                      for name in defenses})
    for name in defenses:
        assert blobs[0][name] == blobs[1][name], name
        restored = Simulator.restore(blobs[0][name])
        cold = Simulator(get_workload("mcf").build(0.25), registry[name]())
        cold.run(max_insts=3762)
        for sim in (restored, cold):
            sim.run(max_insts=4400)
        assert restored.cycle == cold.cycle
        assert restored.stats.as_dict() == cold.stats.as_dict()
        assert restored.cores[0].arch_regs() == cold.cores[0].arch_regs()


@pytest.mark.parametrize("defense", ["GhostMinion", "STT-Future"])
def test_restored_machine_snapshots_back_to_its_blob(defense):
    """snapshot -> restore -> snapshot gives the same bytes.  Unpickling
    interns the strings that name attributes, so a string shared by an
    attribute name and a value (``'timeless'``, both a GhostMinion
    hierarchy attribute and a key of its ``hierarchy_kwargs``) comes
    back as two objects; the pickler shares strings by value, so the
    restored machine writes the same blob."""
    sim = Simulator(get_workload("mcf").build(0.25), registry[defense]())
    sim.run(max_insts=3762)
    blob = sim.snapshot()
    restored = Simulator.restore(blob)
    assert restored.snapshot() == blob


def test_restore_rejects_garbage():
    with pytest.raises(CheckpointError):
        Simulator.restore(b"not a checkpoint")


def test_restore_rejects_unknown_format():
    blob = zlib.compress(pickle.dumps({"format": CHECKPOINT_FORMAT + 1,
                                       "code": "x", "sim": None}))
    with pytest.raises(CheckpointError, match="format"):
        restore_simulator(blob)


def test_restore_rejects_foreign_source_tree():
    raw = zlib.decompress(_mid_run_sim().snapshot())
    code = code_fingerprint().encode()
    assert raw.count(code) == 1
    tampered = zlib.compress(raw.replace(code, b"0" * len(code)))
    with pytest.raises(CheckpointError, match="source tree"):
        restore_simulator(tampered)


def test_restore_rejects_blob_without_simulator():
    blob = zlib.compress(pickle.dumps({"format": CHECKPOINT_FORMAT,
                                       "code": code_fingerprint(),
                                       "sim": "nope"}))
    with pytest.raises(CheckpointError, match="no simulator"):
        restore_simulator(blob)
