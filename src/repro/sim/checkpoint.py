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

A blob is a function of the machine state alone.  The core keeps a few
sets of in-flight ops (unresolved branches, STT taint sources), and an
op hashes by identity, so a set's iteration order follows memory
layout.  The pickler writes each such set in ``seq`` order instead, so
the same state gives the same bytes in every process.

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
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterable

from repro.pipeline.hotcore import DynInst, HotCore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator

#: Bump on incompatible changes to the blob layout *or* to what a
#: restored simulator is allowed to assume about its state.
CHECKPOINT_FORMAT = 2


class CheckpointError(RuntimeError):
    """Unusable checkpoint blob (corrupt, wrong format, wrong tree)."""


def _code_fingerprint() -> str:
    # Imported lazily: repro.exp.spec imports the defenses, whose
    # hierarchies import the pipeline this module imports.
    from repro.exp.spec import code_fingerprint
    return code_fingerprint()


_seq = attrgetter("seq")


class _OpsInSeqOrder:
    """Stands in for a set of ops while pickling: it unpickles as
    ``set(ops)`` with ``ops`` written in ``seq`` order."""

    __slots__ = ("ops",)

    def __init__(self, ops: Iterable[DynInst]) -> None:
        self.ops = sorted(ops, key=_seq)

    def __reduce__(self):
        return set, (self.ops,)


class _MachinePickler(pickle.Pickler):
    """Pickles the op sets of cores and ops in ``seq`` order, and
    strings by value.

    A plain set never reaches ``reducer_override``, so the override
    rewrites the state of the objects that hold them: a core's
    ``unresolved_branches`` and an op's STT ``taint_srcs`` and
    ``operand_taints``.  A string never reaches it either, but every
    object passes through ``persistent_id`` first: a string is written
    as a persistent id naming the first equal string seen, which the
    pickle memo then shares.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._strings: Dict[str, str] = {}

    def persistent_id(self, obj):
        if type(obj) is str:
            return self._strings.setdefault(obj, obj)
        return None

    def reducer_override(self, obj):
        if type(obj) is DynInst:
            # ``taint_srcs`` is the union of the operand taints: when it
            # is empty (the shared frozenset), so is every one of them.
            if not obj.taint_srcs:
                return NotImplemented
            reduced = obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
            slots = dict(reduced[2][1])
            slots["taint_srcs"] = _OpsInSeqOrder(obj.taint_srcs)
            slots["operand_taints"] = [
                _OpsInSeqOrder(taint) for taint in obj.operand_taints]
        elif isinstance(obj, HotCore) and obj.unresolved_branches:
            reduced = obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
            slots = dict(reduced[2][1])
            slots["unresolved_branches"] = _OpsInSeqOrder(
                obj.unresolved_branches)
        else:
            return NotImplemented
        return reduced[:2] + ((reduced[2][0], slots),) + reduced[3:]


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
