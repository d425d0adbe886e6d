"""Whole-machine checkpoint serialization.

A checkpoint is the complete :class:`~repro.sim.simulator.Simulator`
object graph — cores (architectural registers, ROB/IQ/LSQ, predictor,
rename state), per-core hierarchies (L1s, Minions, MSHR files), the
shared memory system (L2, DRAM row buffers, directory, prefetcher), the
functional memory image and all statistics counters — captured between
two simulated cycles and serialized in **one piece**, so every
cross-component reference (an in-flight instruction's memory request
queued inside an MSHR entry, a fill action bound to its hierarchy)
survives the round trip with identity intact.  Restoring a checkpoint
and continuing is byte-identical to never having stopped: cycles, the
full stats dict and architectural registers all match a cold run
(gated by the matrix in ``tests/test_scheduler_equivalence.py``).

The wire format is a zlib-compressed pickle of a header + state dict.
The header carries the blob format version and the producing tree's
:func:`~repro.exp.spec.code_fingerprint`, and restore refuses blobs
from a different format or source tree: simulator state is an internal
structure, and interpreting it with different code would silently mix
numbers from two simulators.

This is the simulator's only save/restore contract: components carry no
per-object snapshot methods, and nothing restores one in isolation.

A blob is a function of the machine state alone.  The machine keeps no
set of in-flight ops (an op hashes by identity, so such a set would
iterate in memory order): unresolved branches are a seq-ordered queue
and STT taint is an integer per op.

A restored machine also snapshots back to the blob it came from.  A
plain pickle shares a string between its occurrences by identity, and
unpickling interns the strings that name attributes, so one string
object (``'timeless'``, both a hierarchy attribute and a key of the
defense's ``hierarchy_kwargs``) comes back as two.  The pickler
therefore shares strings by value: every occurrence of an equal string
refers to the first one written, whatever object holds it.
"""

from __future__ import annotations

import io
import pickle
import zlib
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator

#: Bump on incompatible changes to the blob layout *or* to what a
#: restored simulator is allowed to assume about its state.
CHECKPOINT_FORMAT = 3


class CheckpointError(RuntimeError):
    """Unusable checkpoint blob (corrupt, wrong format, wrong tree)."""


def _code_fingerprint() -> str:
    # Imported lazily: repro.exp.spec imports the defenses, whose
    # hierarchies import the pipeline this module imports.
    from repro.exp.spec import code_fingerprint
    return code_fingerprint()


class _MachinePickler(pickle.Pickler):
    """Pickles strings by value.

    Every object passes through ``persistent_id`` first: a string is
    written as a persistent id naming the first equal string seen,
    which the pickle memo then shares.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._strings: Dict[str, str] = {}

    def persistent_id(self, obj):
        if type(obj) is str:
            return self._strings.setdefault(obj, obj)
        return None


class _MachineUnpickler(pickle.Unpickler):
    """Reads :class:`_MachinePickler` blobs: a persistent id is the
    string itself."""

    def persistent_load(self, pid):
        return pid


def snapshot_simulator(sim: "Simulator") -> bytes:
    """Serialize ``sim`` (between cycles) into a self-describing blob."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "code": _code_fingerprint(),
        "sim": sim,
    }
    buffer = io.BytesIO()
    _MachinePickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(payload)
    return zlib.compress(buffer.getvalue())


def restore_simulator(blob: bytes) -> "Simulator":
    """Rebuild a live :class:`Simulator` from a snapshot blob."""
    from repro.sim.simulator import Simulator
    try:
        raw = zlib.decompress(blob)
        payload = _MachineUnpickler(io.BytesIO(raw)).load()
    except Exception as exc:
        raise CheckpointError("undecodable checkpoint blob: %s"
                              % exc) from exc
    if not isinstance(payload, dict) or \
            payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            "checkpoint format %r not supported (this build speaks %d)"
            % (payload.get("format") if isinstance(payload, dict)
               else None, CHECKPOINT_FORMAT))
    if payload.get("code") != _code_fingerprint():
        raise CheckpointError(
            "checkpoint was produced by a different source tree; "
            "refusing to resume it")
    sim = payload.get("sim")
    if not isinstance(sim, Simulator):
        raise CheckpointError("checkpoint blob holds no simulator")
    return sim
