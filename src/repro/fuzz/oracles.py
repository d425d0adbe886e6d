"""Differential oracles: pluggable equivalence checks for fuzz points.

Each oracle runs the same generated points down two (or more) of the
repo's independently-proven execution paths and compares the full
observable outcome — cycles, committed instructions, the complete
interned stats dict, and the architectural-register digest.  The
oracles are registered as ``oracle`` components, so ``repro list
oracles`` / ``repro describe dense-event`` work and plugins can add
their own checks via ``ORACLES.register``.

Engine legs run through :func:`repro.exp.engine.run_points` with the
cache disabled — fuzz legs must never observe each other (or a prior
campaign) through the result cache.  Points are rebuilt from their
spec strings *inside* each leg, so component construction happens
under that leg's environment (a defense whose behaviour depends on
``REPRO_DENSE_LOOP`` diverges only if legs construct independently).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exp.engine import regs_digest, run_points
from repro.exp.resultset import PointResult
from repro.fuzz.grammar import FuzzPoint
from repro.registry.core import Registry
from repro.sim.simulator import ENV_DENSE_LOOP, Simulator

#: The ``oracle`` component registry (auto-listed in ``REGISTRIES``).
ORACLES: Registry = Registry("oracle")

#: Fields compared between legs.  ``digest`` is deliberately absent:
#: the oracle's claim is about *simulated outcomes*, not cache
#: identity, and a leg run outside the engine has no digest.
COMPARED_FIELDS = ("cycles", "insts", "finished", "stats",
                   "regs_digest")


def comparable(result: PointResult) -> Dict[str, object]:
    """The equivalence-relevant projection of one point result."""
    return {
        "cycles": result.cycles,
        "insts": result.insts,
        "finished": result.finished,
        "stats": dict(sorted(result.stats.items())),
        "regs_digest": result.regs_digest,
    }


@dataclass
class Verdict:
    """Outcome of one oracle on one fuzz point."""

    point: FuzzPoint
    oracle: str
    ok: bool
    detail: str = ""
    #: field -> (leg A value, leg B value) for each differing field.
    mismatch: Dict[str, Tuple[object, object]] = field(
        default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "point": self.point.as_dict(),
            "oracle": self.oracle,
            "ok": self.ok,
            "detail": self.detail,
            "mismatch": {name: list(pair)
                         for name, pair in self.mismatch.items()},
        }


def diff_comparables(a: Dict[str, object], b: Dict[str, object]
                     ) -> Dict[str, Tuple[object, object]]:
    return {name: (a[name], b[name])
            for name in COMPARED_FIELDS if a[name] != b[name]}


@contextmanager
def scoped_env(**pairs: Optional[str]) -> Iterator[None]:
    """Set/unset environment variables for the duration of a leg.

    Values are installed in ``os.environ`` *before* the engine spawns
    any worker pool, so they propagate to multiprocessing workers
    under both fork and spawn start methods.  ``None`` unsets."""
    saved = {key: os.environ.get(key) for key in pairs}
    try:
        for key, value in pairs.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        yield
    finally:
        for key, previous in saved.items():
            if previous is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = previous


def run_leg(points: Sequence[FuzzPoint], jobs: Optional[int] = None
            ) -> List[Dict[str, object]]:
    """One engine pass over freshly-rebuilt points, cache disabled:
    each point's :func:`comparable` projection."""
    sweep_points = [fp.build() for fp in points]
    report = run_points(sweep_points, jobs=jobs, cache=False)
    return [comparable(report.results.get(sp.key))
            for sp in sweep_points]


def run_restored(point: FuzzPoint) -> Dict[str, object]:
    """Run ``point`` to half its budget, snapshot the machine, restore
    the blob and run the copy on to the budget, all in memory; returns
    the copy's :func:`comparable` projection."""
    sp = point.build()
    sim = Simulator(sp.workload.build(sp.scale), sp.defense,
                    cfg=sp.config())
    sim.run(max_cycles=sp.max_cycles, max_insts=max(1, sp.max_insts // 2))
    blob = sim.snapshot()
    sim.release()
    sim = Simulator.restore(blob)
    cores = sim.cores
    # ``run`` steps once before it tests its caps, so a machine that is
    # already done is read as it stands.
    if not (all(core.halted for core in cores)
            or sim.committed_insts() >= sp.max_insts):
        sim.run(max_cycles=sp.max_cycles, max_insts=sp.max_insts)
    outcome = {
        "cycles": sim.cycle,
        "insts": int(sim.stats.get("commit.insts")),
        "finished": all(core.halted for core in cores),
        "stats": dict(sorted(sim.stats.as_dict().items())),
        "regs_digest": regs_digest(cores),
    }
    sim.release()
    return outcome


class Oracle:
    """Base class: subclasses set ``name``/``summary`` and implement
    :meth:`check`."""

    name = ""
    summary = ""
    legs = ""

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = jobs

    def check(self, points: Sequence[FuzzPoint]) -> List[Verdict]:
        raise NotImplementedError

    def _verdicts(self, points: Sequence[FuzzPoint],
                  legs: Dict[str, List[Dict[str, object]]]
                  ) -> List[Verdict]:
        """Pairwise-compare every leg's comparables against the first
        leg's."""
        names = list(legs)
        base_name, base = names[0], legs[names[0]]
        verdicts = []
        for i, point in enumerate(points):
            reference = base[i]
            mismatch: Dict[str, Tuple[object, object]] = {}
            against = ""
            for other_name in names[1:]:
                mismatch = diff_comparables(reference, legs[other_name][i])
                if mismatch:
                    against = other_name
                    break
            if mismatch:
                detail = "%s vs %s differ on %s" % (
                    base_name, against, ", ".join(sorted(mismatch)))
                verdicts.append(Verdict(point, self.name, False,
                                        detail, mismatch))
            else:
                verdicts.append(Verdict(point, self.name, True))
        return verdicts


@ORACLES.register("dense-event", tags=("builtin",),
                  summary="dense per-cycle loop vs event-driven "
                          "scheduler")
class DenseEventOracle(Oracle):
    """The two schedulers must agree byte-for-byte.

    Leg A forces ``REPRO_DENSE_LOOP=1`` (the reference per-cycle
    loop), leg B forces ``=0`` (the event-driven skip scheduler)."""

    name = "dense-event"
    summary = "dense per-cycle loop vs event-driven scheduler"
    legs = "REPRO_DENSE_LOOP=1 vs REPRO_DENSE_LOOP=0"

    def check(self, points: Sequence[FuzzPoint]) -> List[Verdict]:
        with scoped_env(**{ENV_DENSE_LOOP: "1"}):
            dense = run_leg(points, jobs=self.jobs)
        with scoped_env(**{ENV_DENSE_LOOP: "0"}):
            event = run_leg(points, jobs=self.jobs)
        return self._verdicts(points, {"dense": dense,
                                       "event": event})


@ORACLES.register("checkpoint", tags=("builtin",),
                  summary="snapshot/restore at half budget vs cold run")
class CheckpointOracle(Oracle):
    """A machine snapshotted mid-run and restored must run on
    byte-identically to one that never stopped.

    Two legs: a cold engine run, and an in-memory run that snapshots at
    half the budget, restores the blob and runs the copy on
    (:func:`run_restored`)."""

    name = "checkpoint"
    summary = "snapshot/restore at half budget vs cold run"
    legs = "cold vs restored"

    def check(self, points: Sequence[FuzzPoint]) -> List[Verdict]:
        usable = [fp for fp in points if fp.budget]
        skipped = [fp for fp in points if not fp.budget]
        verdicts = []
        if usable:
            cold = run_leg(usable, jobs=self.jobs)
            restored = [run_restored(fp) for fp in usable]
            verdicts = self._verdicts(usable, {"cold": cold,
                                               "restored": restored})
        for fp in skipped:
            verdicts.append(Verdict(
                fp, self.name, True,
                "skipped: checkpoint oracle needs a --budget"))
        return verdicts


def resolve_oracle(name: str, jobs: Optional[int] = None) -> Oracle:
    """Instantiate a registered oracle by name (raises
    :class:`repro.registry.core.UnknownComponentError` with
    did-you-mean suggestions on a miss)."""
    return ORACLES.entry(name).factory(jobs=jobs)
