"""Multi-core event-driven simulator with a dense-loop cross-check mode.

One :class:`Simulator` owns the shared memory system (L2, DRAM,
directory, prefetcher), one :class:`repro.pipeline.core.Core` per thread,
and the shared functional memory.  Cores step round-robin each cycle
until every program HALTs (or a cycle/instruction cap fires).

Two schedulers drive the stepping, both in the one flat loop of
:meth:`Simulator.run`:

* the **event-driven** default: after each stepped cycle, every core is
  asked for its :meth:`~repro.pipeline.core.Core.next_event_cycle` — a
  proof that stepping it before some wakeup cycle is a no-op apart from
  a fixed set of per-cycle stall-counter bumps.  When every core is
  provably stalled, the clock jumps straight to the earliest wakeup
  (pending MSHR fill, load/FU completion, commit/fetch stall release)
  and the skipped cycles' stall bumps are applied in bulk.  Memory-bound
  regions simulate in time proportional to *work*, not simulated
  latency.
* **dense stepping** (``REPRO_DENSE_LOOP=1`` or ``run(dense=True)``):
  the same loop with the skip decision left out, so every core steps
  every cycle; kept reachable for differential testing.  Both
  schedulers are observably pure relative to each other: cycles, every
  stats counter, and architectural registers are byte-identical (see
  ``tests/test_scheduler_equivalence.py``).
"""

from __future__ import annotations

import gc
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.stats import Stats
from repro.config import SystemConfig, default_config
from repro.defenses.base import Defense
from repro.memory.hierarchy import SharedMemory
from repro.pipeline.core import (
    SKIP_IDLE,
    VETO_MEM_EVENT_DUE,
    Core,
    StallVeto,
)
from repro.pipeline.program import Program

#: Environment knob: any value other than ""/"0" forces dense stepping.
ENV_DENSE_LOOP = "REPRO_DENSE_LOOP"


def dense_loop_forced() -> bool:
    """Resolve ``REPRO_DENSE_LOOP`` lazily (at run time, not import)."""
    return os.environ.get(ENV_DENSE_LOOP, "") not in ("", "0")


@dataclass
class RunResult:
    """Outcome of one simulation."""

    cycles: int
    stats: Stats
    finished: bool
    cores: List[Core]
    #: Cycles the event-driven scheduler skipped over (0 under the dense
    #: loop).  Runtime telemetry only — never part of result payloads,
    #: which stay byte-identical across schedulers.
    skipped_cycles: int = field(default=0, compare=False)
    #: Skipped cycles broken down by stall class
    #: (:data:`repro.pipeline.core.SKIP_CLASSES` names).  A window is
    #: attributed to *every* class active in it, so values can sum to
    #: more than ``skipped_cycles``.  Runtime telemetry only.
    skipped_by_class: Dict[str, int] = field(default_factory=dict,
                                             compare=False)
    #: Dense-stepped cycles by veto reason
    #: (:data:`repro.pipeline.core.VETO_REASONS` names).  Runtime
    #: telemetry only.
    veto_counts: Dict[str, int] = field(default_factory=dict,
                                        compare=False)

    @property
    def insts(self) -> int:
        return int(self.stats.get("commit.insts"))

    @property
    def ipc(self) -> float:
        return self.stats.ipc()

    def arch_regs(self, core: int = 0) -> List[int]:
        return self.cores[core].arch_regs()


class Simulator:
    """A whole machine: N cores over a shared memory system."""

    def __init__(self, programs: Union[Program, Sequence[Program]],
                 defense: Defense,
                 cfg: Optional[SystemConfig] = None,
                 init_regs: Optional[Sequence[Dict[int, int]]] = None
                 ) -> None:
        if isinstance(programs, Program):
            programs = [programs]
        self.programs = list(programs)
        if cfg is None:
            cfg = default_config(cores=len(self.programs))
        if cfg.cores != len(self.programs):
            raise ValueError("config cores (%d) != programs (%d)"
                             % (cfg.cores, len(self.programs)))
        cfg.validate()
        self.cfg = cfg
        self.defense = defense
        self.stats = Stats()
        self.shared = SharedMemory(cfg, self.stats)
        # Shared functional memory: merged initial images.
        self.memory: Dict[int, int] = {}
        for program in self.programs:
            self.memory.update(program.memory)
        self.cores: List[Core] = []
        for core_id, program in enumerate(self.programs):
            hierarchy = defense.build_hierarchy(
                core_id, cfg, self.shared, self.stats)
            regs = (init_regs[core_id]
                    if init_regs is not None else None)
            self.cores.append(Core(core_id, program, cfg, defense,
                                   hierarchy, self.memory, self.stats,
                                   init_regs=regs))
        self.cycle = 0
        #: Dormant observability hook (:meth:`attach_obs`); every use
        #: sits behind an is-not-None guard so an untraced run pays one
        #: attribute check per potential event.
        self._obs = None
        #: Telemetry: cycles the event-driven scheduler fast-forwarded.
        self.skipped_cycles = 0
        #: Telemetry: skipped cycles per stall class (a window counts
        #: toward every class active in it).
        self.skipped_by_class: Dict[str, int] = {}
        #: Telemetry: dense-stepped cycles per veto reason.
        self.veto_counts: Dict[str, int] = {}

    def attach_obs(self, obs) -> None:
        """Light up the observability hooks with ``obs`` (a
        :class:`repro.obs.trace.Tracer`).

        Sets the ``_obs`` attribute on every hooked component — cores,
        L1 caches and MSHR files, the shared L2 and its MSHRs — and
        binds the default metrics probes to this machine when the
        tracer's sampler takes them, also when they were bound to
        another machine (one tracer follows a sampled run across the
        machines restored for its windows); custom probes stay as they
        are.  Attaching never changes simulated state:
        traced and untraced runs are byte-identical in cycles, stats
        and digests.
        """
        self._obs = obs
        for core in self.cores:
            core._obs = obs
            hierarchy = core.hierarchy
            for port in (hierarchy.dport, hierarchy.iport):
                port.cache._obs = obs
                port.mshrs._obs = obs
        self.shared.l2._obs = obs
        self.shared.l2_mshrs._obs = obs
        sampler = None if obs is None else obs.sampler
        if sampler is not None and sampler.defaults:
            from repro.obs.metrics import default_probes
            sampler.bind(default_probes(self), defaults=True)

    def detach_obs(self):
        """Disarm every hook; returns the tracer that was attached.

        Used around :meth:`snapshot`: checkpoint blobs must never
        capture a tracer (its probes close over live state and are not
        part of the machine).
        """
        obs = self._obs
        if obs is not None:
            self.attach_obs(None)
        return obs

    def release(self) -> None:
        """Break the machine's reference cycles once its results are
        taken, so that dropping the last reference frees it at once
        instead of at the cycle collector's next full pass.

        The cycles are wiring: ``SharedMemory.hierarchies`` against each
        hierarchy's ``shared``, the fill actions of in-flight MSHR
        entries (bound methods of the level they fill), the
        ``consumers`` lists of in-flight ops against their consumers'
        operands, and an attached tracer, whose metrics probes close
        over the machine (the hooks are disarmed, so call this after
        the trace is exported).  Cycles, stats and each core's
        architectural registers stay readable; the machine cannot be
        run again.
        """
        self.detach_obs()
        shared = self.shared
        files = [shared.l2_mshrs]
        for hierarchy in shared.hierarchies:
            files.append(hierarchy.dport.mshrs)
            files.append(hierarchy.iport.mshrs)
        shared.hierarchies = []
        for mshrs in files:
            mshrs.release()
        for core in self.cores:
            for di in core.rob:
                di.consumers = None

    def run(self, max_cycles: int = 5_000_000,
            max_insts: Optional[int] = None,
            dense: Optional[bool] = None) -> RunResult:
        """Simulate until all cores halt or a cap fires.

        ``dense=None`` consults ``REPRO_DENSE_LOOP``; ``True`` forces
        dense stepping (every core, every cycle), ``False`` the
        event-driven scheduler.  Both produce byte-identical results.

        One flat loop drives every mode — N cores, dense or event
        driven, traced or not.  Each turn steps every live core once,
        then (unless ``dense``) makes the skip decision inline: each
        live core either vetoes the skip (:class:`StallVeto`: it may
        make progress at the next cycle; the veto is counted by
        reason) or contributes a
        :class:`~repro.pipeline.core.StallProof` — a wakeup cycle, the
        stall counters it would bump once per skipped cycle, replay
        callables for per-cycle side effects that are state changes
        rather than counter bumps (MSHR-retry prefetcher training), and
        the stall classes active in the window.  The shared L2-DRAM
        system contributes its next fill completion.  Jumping to the
        minimum wakeup and applying bumps and replays in bulk is then
        observably identical to stepping every intervening cycle.

        The clock lives in a local for the whole call and is written
        back to ``self.cycle`` when the call returns or raises (and
        before each tracer sample, for probes that read it).  The
        cyclic garbage collector is paused for the whole call and put
        back as the caller had it (enabled or disabled), also when the
        run raises.  A run allocates no reference cycles (pinned by
        ``tests/test_no_cycles.py``), so a collector pass inside it
        could only scan live simulator state and find nothing.
        """
        collecting = gc.isenabled()
        gc.disable()
        cycle = self.cycle
        try:
            if dense is None:
                dense = dense_loop_forced()
            cores = self.cores
            obs = self._obs
            stats = self.stats
            shared_wake = self.shared.next_event_cycle
            veto_counts = self.veto_counts
            by_class = self.skipped_by_class
            if obs is not None:
                obs.emit_marker("run-begin", cycle,
                                {"dense": bool(dense),
                                 "max_cycles": max_cycles})
            while cycle < max_cycles:
                if obs is not None:
                    self.cycle = cycle
                    obs.on_cycle(cycle)
                all_halted = True
                for core in cores:
                    if not core.halted:
                        core.step(cycle)
                        if not core.halted:
                            all_halted = False
                cycle += 1
                if all_halted:
                    break
                if max_insts is not None and \
                        self._committed_insts() >= max_insts:
                    break
                if dense:
                    continue
                # The skip decision.  Nothing is allocated unless every
                # core proves a stall; one proof (the single-core case)
                # is used as it stands.  A core is still live here, so
                # a decision without a veto always holds a proof.
                proof = None
                for core in cores:
                    if core.halted:
                        continue
                    outcome = core.next_event_cycle(cycle)
                    if type(outcome) is StallVeto:
                        reason = outcome.reason
                        veto_counts[reason] = veto_counts.get(reason, 0) + 1
                        break
                    proof = outcome if proof is None \
                        else proof.merged(outcome)
                else:
                    wake = shared_wake()
                    if proof.wake < wake:
                        wake = proof.wake
                    skipped = int((wake if wake < max_cycles
                                   else max_cycles) - cycle)
                    if skipped <= 0:
                        if wake <= cycle:
                            # Every core is stalled but a shared-system
                            # event (an undrained L2 fill) is due: count
                            # it so the veto profile accounts for every
                            # dense-stepped cycle.
                            veto_counts[VETO_MEM_EVENT_DUE] = \
                                veto_counts.get(VETO_MEM_EVENT_DUE, 0) + 1
                        continue
                    for handle in proof.bumps:
                        stats.add(handle, skipped)
                    for replay in proof.replays:
                        replay(cycle, skipped)
                    classes = proof.classes or (SKIP_IDLE,)
                    for cls in classes:
                        by_class[cls] = by_class.get(cls, 0) + skipped
                    self.skipped_cycles += skipped
                    if obs is not None:
                        obs.emit_skip(cycle, cycle + skipped,
                                      tuple(classes))
                    cycle += skipped
            finished = all(core.halted for core in cores)
            stats.set("sim.cycles", cycle)
            if obs is not None:
                self.cycle = cycle
                obs.on_cycle(cycle)
                obs.emit_marker("run-end", cycle,
                                {"finished": finished,
                                 "insts": self._committed_insts()})
            return RunResult(cycles=cycle, stats=stats,
                             finished=finished, cores=cores,
                             skipped_cycles=self.skipped_cycles,
                             skipped_by_class=dict(by_class),
                             veto_counts=dict(veto_counts))
        finally:
            self.cycle = cycle
            if collecting:
                gc.enable()

    # -- checkpoints ----------------------------------------------------

    def snapshot(self) -> bytes:
        """Serialize the whole machine (between cycles) into a blob.

        The returned bytes round-trip through :meth:`restore` such that
        continuing the restored simulator is byte-identical — cycles,
        every stats counter, architectural registers — to continuing
        this one (or to never having stopped: ``run`` may be split at
        any committed-instruction boundary).  See
        :mod:`repro.sim.checkpoint` for the format.
        """
        from repro.sim.checkpoint import snapshot_simulator
        # A tracer is run wiring, not machine state: disarm the hooks
        # for the duration of the pickle so blobs never capture one.
        obs = self.detach_obs()
        try:
            return snapshot_simulator(self)
        finally:
            if obs is not None:
                self.attach_obs(obs)

    @classmethod
    def restore(cls, blob: bytes, check_code: bool = True
                ) -> "Simulator":
        """Rebuild a :meth:`snapshot` blob into a live simulator."""
        from repro.sim.checkpoint import restore_simulator
        return restore_simulator(blob, check_code=check_code)

    def committed_insts(self) -> int:
        """Total committed instructions across all cores."""
        return self._committed_insts()

    def _committed_insts(self) -> int:
        """Total committed instructions, via plain integer counters (the
        per-cycle ``max_insts`` cap must not pay for a dict lookup)."""
        total = 0
        for core in self.cores:
            total += core.committed_insts
        return total
