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
numbers from two simulators.  (Checkpoints in the checkpoint database
are additionally *keyed* by a prefix digest that folds the same
fingerprint in, so a stale blob is never even looked up — the header
check is the belt to that suspender for blobs passed around by hand.)

This is the simulator's only save/restore contract: components carry no
per-object snapshot methods, and nothing restores one in isolation.

A blob is a function of the machine state alone.  The core keeps a few
sets of in-flight ops (unresolved branches, STT taint sources), and an
op hashes by identity, so a set's iteration order follows memory
layout.  The pickler writes each such set in ``seq`` order instead, so
the same state gives the same bytes in every process.
"""

from __future__ import annotations

import io
import pickle
import zlib
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable

from repro.pipeline.hotcore import DynInst, HotCore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator

#: Bump on incompatible changes to the blob layout *or* to what a
#: restored simulator is allowed to assume about its state.  Folded into
#: checkpoint prefix digests, so a bump orphans (rather than corrupts)
#: every stored checkpoint.
CHECKPOINT_FORMAT = 1


class CheckpointError(RuntimeError):
    """Unusable checkpoint blob (corrupt, wrong format, wrong tree)."""


def _code_fingerprint() -> str:
    # Imported lazily: repro.exp.spec imports this module for
    # CHECKPOINT_FORMAT, and module-level cross-imports would cycle.
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
    """Pickles the op sets of cores and ops in ``seq`` order.

    A plain set never reaches ``reducer_override``, so the override
    rewrites the state of the objects that hold them: a core's
    ``unresolved_branches`` and an op's STT ``taint_srcs`` and
    ``operand_taints``.
    """

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


def restore_simulator(blob: bytes, check_code: bool = True
                      ) -> "Simulator":
    """Rebuild a live :class:`Simulator` from a snapshot blob.

    ``check_code=False`` skips the source-tree fingerprint check (the
    checkpoint database already keys blobs by a digest covering the
    fingerprint, so the lookup itself guarantees a match).
    """
    from repro.sim.simulator import Simulator
    try:
        payload = pickle.loads(zlib.decompress(blob))
    except Exception as exc:
        raise CheckpointError("undecodable checkpoint blob: %s"
                              % exc) from exc
    if not isinstance(payload, dict) or \
            payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            "checkpoint format %r not supported (this build speaks %d)"
            % (payload.get("format") if isinstance(payload, dict)
               else None, CHECKPOINT_FORMAT))
    if check_code and payload.get("code") != _code_fingerprint():
        raise CheckpointError(
            "checkpoint was produced by a different source tree; "
            "refusing to resume it (re-run the warm-up instead)")
    sim = payload.get("sim")
    if not isinstance(sim, Simulator):
        raise CheckpointError("checkpoint blob holds no simulator")
    return sim
