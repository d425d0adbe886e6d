"""The hot core: the per-cycle step loop and its data.

This module holds exactly the state and code the dense per-cycle loop
touches — :class:`DynInst` and :class:`HotCore`, whose :meth:`HotCore.step`
is the stage pipeline (commit -> writeback -> validation issue -> early
commit -> issue -> dispatch -> fetch).  It is deliberately kept free of
the event-scheduler stall analysis, which lives on
:class:`repro.pipeline.core.Core` (a thin subclass), so that the
per-cycle code reads on its own:

* every per-instance attribute is declared in ``__slots__`` and
  assigned in ``__init__`` (fixed layout);
* every stats counter bumped on a hot path is an integer slot handle
  interned once in ``__init__`` and bumped in place in the stats value
  list, ``self._counts[h] += n`` (see :mod:`repro.analysis.stats`) —
  no string-keyed dict lookup and no call frame per bump;
* per-cycle constants (defense mode flags, pipeline widths) are read
  out of the config/defense objects once, at construction;
* the rename map is a dense list indexed by register number, not a
  dict;
* issue select is wakeup-driven: each :class:`DynInst` counts its
  unfinished producers (``pending``) and lists the ops waiting on it
  (``consumers``), and :meth:`HotCore._issue` walks one seq-ordered
  ``candidates`` list — the waiting ops whose operands are done plus
  every waiting non-pipelined op, which §4.9 blocking needs ready or
  not — instead of sorting and scanning the whole IQ each cycle (see
  docs/performance.md, "Issue select");
* per-cycle bookkeeping pays per event: the hierarchy drain reads each
  MSHR file's cached earliest completion instead of scanning it, fetch
  probes each instruction line once per fetch group, and
  ``_oldest_unresolved`` is kept current where branches enter and
  leave the window — the head of the seq-ordered
  ``unresolved_branches`` queue — rather than recomputed every cycle
  (see docs/performance.md, "Memory-side wakeups and fetch-group
  probes");
* writeback pays per completion: every issued op waits in one
  ``(done_cycle, seq, op)`` heap, ``completions``, a load keyed at its
  request's ``ready_cycle``; the D-side MSHR file reports each request
  a leapfrog replays or a timeleap postpones in its ``moved`` list
  (bound here as ``_moved``), and :meth:`HotCore._writeback` re-keys
  or replays those loads, pops the due entries and resolves the due
  set oldest-first; the fetch and commit counters are bumped once per
  group (see docs/performance.md, "Completion calendar and veto fast
  path" and "Loads on the completion calendar");
* fetch holds its line: while a group starts on the line fetch last
  found present and the hierarchy's ``ifetch_version()`` has not moved,
  it skips the probe; and ``step`` skips the dispatch call on a full
  ROB and the fetch call on a full fetch queue (same section);
* a blocked issue attempt pays per unblock, not per cycle: a candidate
  held by an LSQ store-address wait, an STT taint block, MSHR
  backpressure (a full L1-side file, or an L2 refusal) or (a load) a
  lack of int-FU ports keeps an :class:`IssuePark` naming the per-cycle
  effects of one more attempt and the versions of the state that could
  change them (``sq_version``, ``taint_version``, the hierarchy's
  ``load_retry_version`` or ``l2_retry_version``); while those are
  unchanged, :meth:`HotCore._issue` replays the effects instead of
  re-running the attempt (see docs/performance.md, "Parked issue
  attempts");
* each op pays only for what its static instruction needs: issue reads
  the decoded ``Instr.evaluator`` and ``Instr.fu_index`` and the
  operands in place, a pipelined op takes its port with one
  ``FUPool.grant``, and IQ occupancy is a count (see
  docs/performance.md, "Per-instruction path");
* STT taint is two integers per op, set once at rename: the youngest
  root of taint (the youngest source load) of the first operand and of
  all operands, unsafe at or above the taint frontier (see
  docs/performance.md, "Taint as its youngest root");
* InvisiSpec validations and §4.10 early-commit promotions pay per
  load: a load that completes waits in a seq-ordered queue
  (``awaiting_validation``, ``awaiting_promotion``) until a seq
  frontier passes it, instead of a per-cycle walk over the LQ (see
  docs/performance.md, "Visibility queue and in-place counters").

Import the public names from :mod:`repro.pipeline.core`, which
re-exports them.  The dense/event/checkpoint differential matrices in
``tests/test_scheduler_equivalence.py`` pin this loop's behaviour.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import Stats
from repro.config import SystemConfig
from repro.defenses.base import Defense
from repro.memory.hierarchy import BaseHierarchy
from repro.memory.request import MemRequest, ReqState
from repro.pipeline.branch_predictor import (
    BranchTargetBuffer,
    ReturnAddressStack,
    make_predictor,
)
from repro.pipeline.functional_units import FUPool
from repro.pipeline.isa import (
    FU_INDEX,
    INST_BYTES,
    LINK_REG,
    MASK64,
    NUM_REGS,
    Instr,
    Op,
)
from repro.pipeline.program import Program

ADDR_MASK = (1 << 48) - 1

ST_WAITING = 0
ST_EXECUTING = 1
ST_DONE = 2

_INF = float("inf")


#: Sort key for program order (hoisted: no per-cycle lambda).
_seq_key = attrgetter("seq")
_REPLAY = ReqState.REPLAY
_INT_FU = FU_INDEX["int"]
# Op members as module globals: reading ``Op.X`` goes through the enum
# metaclass, about ten times the cost of a global read under CPython
# 3.11, and the fetch and commit loops test one per instruction.
_BEQZ = Op.BEQZ
_BNEZ = Op.BNEZ
_CALL = Op.CALL
_HALT = Op.HALT
_JMP = Op.JMP
_RET = Op.RET
#: The shared empty operand list of an op not yet renamed or with no
#: source registers.  Immutable, so no op can fill it by mistake;
#: rename (in ``_dispatch``) gives an op its own list only when it has
#: sources.
_NO_OPERANDS: Tuple = ()


class DynInst:
    """One dynamic (possibly transient) instruction."""

    __slots__ = (
        "seq", "ts", "pc", "instr", "state", "operands", "taint0",
        "taint_root", "result", "addr", "store_value", "memreq",
        "done_cycle", "squashed", "committed", "forwarded",
        # branch bookkeeping
        "pred_next", "actual_taken", "actual_next", "resolved",
        "ghr_ckpt", "ras_ckpt", "rename_ckpt", "mispredicted",
        # defense bookkeeping
        "validated", "validation_done_cycle", "commit_stall_until",
        "replays", "promoted",
        # wakeup bookkeeping (issue select)
        "pending", "consumers", "park",
    )

    def __init__(self, seq: int, pc: int, instr: Instr,
                 ts: Optional[int] = None) -> None:
        self.seq = seq
        # Temporal-Order timestamp (§4.4): allocation order by default;
        # under §4.10's Full Strictness Order, the speculation epoch.
        self.ts = seq if ts is None else ts
        self.pc = pc
        self.instr = instr
        self.state = ST_WAITING
        #: ``(producer, value)`` per source register, set by rename.
        self.operands: Sequence[Tuple[Optional["DynInst"], int]] = \
            _NO_OPERANDS
        #: STT youngest root of taint (the ``seq`` of the youngest
        #: source load) of the first operand and of all operands, set
        #: by rename when the defense tracks taint; -1 is untainted.
        self.taint0 = -1
        self.taint_root = -1
        self.result = 0
        self.addr: Optional[int] = None
        self.store_value = 0
        self.memreq: Optional[MemRequest] = None
        self.done_cycle = -1
        self.squashed = False
        self.committed = False
        self.forwarded = False
        # The other branch fields (``pred_next``, ``actual_taken``,
        # ``actual_next``, ``resolved``, ``ghr_ckpt``, ``ras_ckpt``,
        # ``mispredicted``) are set by ``HotCore._predict`` for branches
        # only, and read only for branches.
        self.rename_ckpt: Optional[List[Optional["DynInst"]]] = None
        self.validated = False
        self.validation_done_cycle: Optional[int] = None
        self.commit_stall_until = -1
        self.replays = 0
        self.promoted = False  # §4.10 early commit performed
        #: Producers in ``operands`` not yet ST_DONE (one per operand,
        #: so a producer feeding both sources counts twice).
        self.pending = 0
        #: Ops waiting on this one's result, woken at writeback.
        #: Created on first use; cleared to None on wakeup and squash so
        #: no producer<->consumer reference cycle outlives either.
        self.consumers: Optional[List["DynInst"]] = None
        #: The :class:`IssuePark` of this op's last blocked issue
        #: attempt, or None.
        self.park: Optional[IssuePark] = None

    def operands_ready(self) -> bool:
        """Reference predicate for ``pending == 0`` (tests only: the
        step loop reads the wakeup count instead)."""
        for producer, _value in self.operands:
            if producer is not None and producer.state != ST_DONE:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DynInst(#%d pc=%d %s)" % (self.seq, self.pc,
                                          self.instr.op.value)


class IssuePark:
    """Why a candidate's last issue attempt was blocked, and what one
    more attempt does while that holds.

    Each ``*_version`` is the value of a version counter the blocked
    outcome depends on, taken when the attempt ran (None: the outcome
    does not read that state).  While every recorded version is
    current, another attempt bumps each stats handle in ``bumps`` once
    and is refused.  An MSHR retry (``takes_slot``) first takes an
    int-FU port and then uses its issue slot; with no port free it is a
    silent no-op, as the full attempt would be.  An MSHR retry the L2
    refused has an ``until`` cycle: its ``retry_version`` is the
    hierarchy's ``l2_retry_version()``, and it is current only before
    ``until`` (None for an L1-side retry).  A port wait (``waits_port``,
    no bumps) stands for a load refused only for want of an int-FU
    port: it is a silent no-op while no port is free, and with one free
    the attempt runs in full.
    """

    __slots__ = ("sq_version", "taint_version", "retry_version", "bumps",
                 "takes_slot", "waits_port", "until")

    def __init__(self, sq_version: Optional[int],
                 taint_version: Optional[int],
                 retry_version: Optional[int], bumps,
                 takes_slot: bool, waits_port: bool = False,
                 until: Optional[int] = None) -> None:
        self.sq_version = sq_version
        self.taint_version = taint_version
        self.retry_version = retry_version
        self.bumps = bumps
        self.takes_slot = takes_slot
        self.waits_port = waits_port
        self.until = until


class HotCore:
    """The dense per-cycle step loop over one hardware thread.

    Everything here runs once per simulated cycle in the dense windows
    the event scheduler cannot skip, so this class is the wall-clock
    floor of every sweep.  :class:`repro.pipeline.core.Core` layers the
    event-scheduler stall analysis on top.
    """

    __slots__ = (
        # wiring (owned elsewhere)
        "core_id", "program", "cfg", "defense", "hierarchy", "memory",
        "stats", "_counts", "_obs",
        # architectural + component state
        "regs", "predictor", "btb", "ras", "fu_pool",
        # frontend
        "fetch_pc", "fetch_stall_until", "fetch_halted",
        "pending_ifetch", "fetch_queue", "held_line", "held_version",
        # backend
        "rob", "iq", "candidates", "lq", "sq", "completions", "_moved",
        "rename_map",
        "unresolved_branches", "seq_counter",
        "awaiting_validation", "awaiting_promotion",
        "epoch_timestamps", "epoch", "halted", "committed_insts",
        "_oldest_unresolved",
        # issue parking: versions of the state blocked attempts read,
        # and the work counters (full attempts, parked replays)
        "sq_version", "taint_version", "issue_evals", "issue_replays",
        # per-run constants (defense modes, pipeline widths)
        "_taint_on", "_validation_on", "_taint_spectre",
        "_spectre_validation", "_early_commit", "_strict_fu",
        "_train_at_commit", "_commit_ifetch",
        "_fetch_width", "_commit_width", "_issue_width",
        "_rob_entries", "_iq_entries", "_lq_entries", "_sq_entries",
        "_mispredict_penalty",
        # interned stats handles
        "_h_fetch_insts", "_h_fetch_off_end", "_h_rob_full",
        "_h_iq_full", "_h_lq_full", "_h_sq_full", "_h_commit_insts",
        "_h_commit_loads", "_h_commit_stores", "_h_commit_stall",
        "_h_ivs_stall", "_h_lsq_load_waits", "_h_lsq_forwards",
        "_h_load_retries", "_h_load_replays", "_h_cond_branches",
        "_h_mispredicts", "_h_strict_blocked", "_h_stt_load_blocked",
        "_h_stt_store_blocked", "_h_stt_branch_blocked",
        "_h_stt_fu_blocked", "_h_fu_int_issued", "_h_squash_events",
        "_h_squash_insts", "_h_gm_early_commits",
        "_h_ivs_commit_validations",
    )

    def __init__(self, core_id: int, program: Program, cfg: SystemConfig,
                 defense: Defense, hierarchy: BaseHierarchy,
                 memory: Dict[int, int], stats: Stats,
                 init_regs: Optional[Dict[int, int]] = None) -> None:
        self.core_id = core_id
        self.program = program
        self.cfg = cfg.core
        self.defense = defense
        self.hierarchy = hierarchy
        self.memory = memory
        self.stats = stats
        #: The stats value list, bumped in place on the hot path (see
        #: repro.analysis.stats).
        self._counts = stats._values
        # Dormant tracing hook (``Simulator.attach_obs``); every use
        # sits behind an is-not-None guard — the ``obs-guards`` lint
        # contract — so an untraced step pays one attribute check.
        self._obs: Optional[Any] = None
        self.regs = [0] * NUM_REGS
        for reg, value in (init_regs or {}).items():
            self.regs[reg] = value & MASK64
        self.predictor = make_predictor(self.cfg.predictor, stats)
        self.btb = BranchTargetBuffer(self.cfg.predictor.btb_entries, stats)
        self.ras = ReturnAddressStack(self.cfg.predictor.ras_entries)
        self.fu_pool = FUPool(self.cfg, stats,
                              strict_order=defense.strict_fu_order)
        # frontend
        self.fetch_pc = 0
        self.fetch_stall_until = 0
        self.fetch_halted = False
        self.pending_ifetch: Optional[MemRequest] = None
        self.fetch_queue: Deque[DynInst] = deque()
        #: The instruction line fetch last found present, and the
        #: hierarchy's ``ifetch_version()`` then: while both match,
        #: fetch holds the line instead of probing it again.
        self.held_line = -1
        self.held_version = -1
        # backend
        self.rob: Deque[DynInst] = deque()
        #: IQ occupancy: the number of waiting ops of the ROB that flow
        #: through the issue queue (``instr.needs_iq``).  Only the
        #: dispatch IQ-full check reads it, so a count does.
        self.iq = 0
        #: The issue walk, seq-ordered: the waiting IQ ops whose operands
        #: are done, plus every waiting non-pipelined op (ready or not,
        #: for §4.9 blocking).  See docs/performance.md "Issue select".
        self.candidates: List[DynInst] = []
        self.lq: List[DynInst] = []
        self.sq: List[DynInst] = []
        #: The completion calendar: a heap of ``(done_cycle, seq, op)``
        #: for every issued, unfinished op.  A load waiting on a memory
        #: request is keyed at the request's ``ready_cycle`` at issue.
        #: See docs/performance.md "Completion calendar and veto fast
        #: path" and "Loads on the completion calendar".
        self.completions: List[Tuple[int, int, DynInst]] = []
        #: The D-side MSHR file's ``moved`` list: the requests a leapfrog
        #: marked REPLAY or a timeleap postponed since the last
        #: writeback, whose loads' calendar keys are stale.
        self._moved: List[MemRequest] = hierarchy.dport.mshrs.moved
        self.rename_map: List[Optional[DynInst]] = [None] * NUM_REGS
        #: Branches dispatched unresolved, in seq order; the head is
        #: the oldest unresolved one (resolved ones behind it wait to
        #: be popped when they reach the head).
        self.unresolved_branches: Deque[DynInst] = deque()
        #: InvisiSpec visibility queue, seq-ordered: the done loads whose
        #: request still needs validation and whose visibility point
        #: (:meth:`_validation_bound`) has not come yet.
        self.awaiting_validation: List[DynInst] = []
        #: §4.10 early-commit queue, seq-ordered: the done loads with a
        #: memory request not yet promoted (every older branch resolved
        #: promotes them).
        self.awaiting_promotion: List[DynInst] = []
        self.seq_counter = 0
        # §4.10 Full Strictness Order: timestamp epoch, bumped per
        # mispredictable branch; shared monotone space with seq so the
        # two modes use identical comparison logic.
        self.epoch_timestamps = defense.epoch_timestamps
        self.epoch = 0
        self.halted = False
        #: Plain integer mirror of the ``commit.insts`` counter, so the
        #: simulator's per-cycle ``max_insts`` cap costs an attribute
        #: read instead of a string-keyed stats lookup.
        self.committed_insts = 0
        self._oldest_unresolved = _INF
        #: Bumped whenever a store's address, completion, commit or
        #: presence changes (issue, writeback, commit, squash): the
        #: state an LSQ walk over older stores reads.
        self.sq_version = 0
        #: Bumped whenever a taint source may turn safe (a load
        #: commit, a squash, a change of ``_oldest_unresolved``).
        self.taint_version = 0
        #: Work counters (plain integers, not stats, so result digests
        #: do not see them): full ``_try_issue_one`` evaluations and
        #: parked replays.
        self.issue_evals = 0
        self.issue_replays = 0
        # Per-run constants, read out of the defense/config wiring once
        # so the step loop never chases attribute chains per cycle.
        self._taint_on = defense.taint_mode != "none"
        self._validation_on = defense.validation_mode != "none"
        self._taint_spectre = defense.taint_mode == "spectre"
        self._spectre_validation = defense.validation_mode == "spectre"
        self._early_commit = defense.early_commit
        self._strict_fu = defense.strict_fu_order
        self._train_at_commit = defense.train_predictor_at_commit
        # The retire-time I-Minion hook is a no-op unless the hierarchy
        # class overrides it.
        self._commit_ifetch = (type(hierarchy).commit_ifetch
                               is not BaseHierarchy.commit_ifetch)
        self._fetch_width = self.cfg.fetch_width
        self._commit_width = self.cfg.commit_width
        self._issue_width = self.cfg.issue_width
        self._rob_entries = self.cfg.rob_entries
        self._iq_entries = self.cfg.iq_entries
        self._lq_entries = self.cfg.lq_entries
        self._sq_entries = self.cfg.sq_entries
        self._mispredict_penalty = self.cfg.mispredict_penalty
        # Hot-path counters interned once; see repro.analysis.stats.
        self._h_fetch_insts = stats.handle("fetch.insts")
        self._h_fetch_off_end = stats.handle("fetch.off_end")
        self._h_rob_full = stats.handle("dispatch.rob_full")
        self._h_iq_full = stats.handle("dispatch.iq_full")
        self._h_lq_full = stats.handle("dispatch.lq_full")
        self._h_sq_full = stats.handle("dispatch.sq_full")
        self._h_commit_insts = stats.handle("commit.insts")
        self._h_commit_loads = stats.handle("commit.loads")
        self._h_commit_stores = stats.handle("commit.stores")
        self._h_commit_stall = stats.handle("commit.stall_cycles")
        self._h_ivs_stall = stats.handle("ivs.validation_stall_cycles")
        self._h_lsq_load_waits = stats.handle("lsq.load_waits")
        self._h_lsq_forwards = stats.handle("lsq.forwards")
        self._h_load_retries = stats.handle("mem.load_retries")
        self._h_load_replays = stats.handle("mem.load_replays")
        self._h_cond_branches = stats.handle("bp.cond_branches")
        self._h_mispredicts = stats.handle("bp.mispredicts")
        self._h_strict_blocked = {
            cls: stats.handle("fu.%s.strict_blocked" % cls)
            for cls in FUPool.CLASSES}
        self._h_stt_load_blocked = stats.handle("stt.load_blocked_cycles")
        self._h_stt_store_blocked = stats.handle(
            "stt.store_blocked_cycles")
        self._h_stt_branch_blocked = stats.handle(
            "stt.branch_blocked_cycles")
        self._h_stt_fu_blocked = stats.handle("stt.fu_blocked_cycles")
        self._h_fu_int_issued = stats.handle("fu.int.issued")
        self._h_squash_events = stats.handle("squash.events")
        self._h_squash_insts = stats.handle("squash.insts")
        self._h_gm_early_commits = stats.handle("gm.early_commits")
        self._h_ivs_commit_validations = stats.handle(
            "ivs.commit_validations")

    # ==================================================================
    # cycle step
    # ==================================================================

    def step(self, cycle: int) -> None:
        """Simulate one cycle of this core.

        Each stage is called only when its own first no-op test fails,
        and the test lives here rather than in the stage: commit needs
        a done ROB head, writeback a due calendar head or a moved
        request, issue a candidate, dispatch a fetched op and a ROB
        entry free (a full ROB bumps ``dispatch.rob_full`` here), fetch
        room in the fetch queue and neither a HALT fetched nor a
        redirect stall pending, and the validation and early-commit
        stages a load in their queue.  On a dense cycle most stages have
        nothing to do, and a skipped call is the cheapest no-op (see
        docs/performance.md, "One event loop and stage gates").
        """
        if self.halted:
            return
        self.hierarchy.drain(cycle)
        rob = self.rob
        if rob and rob[0].state == ST_DONE:
            self._commit(cycle)
            if self.halted:
                return
        completions = self.completions
        if (completions and completions[0][0] <= cycle) or self._moved:
            self._writeback(cycle)
        if self.awaiting_validation:
            self._issue_ready_validations(cycle)
        if self.awaiting_promotion:
            self._early_commit_promotions(cycle)
        if self.candidates:
            self._issue(cycle)
        fetch_queue = self.fetch_queue
        if fetch_queue:
            if len(rob) >= self._rob_entries:
                # ``_dispatch``'s first test, without the call.
                self._counts[self._h_rob_full] += 1
            else:
                self._dispatch(cycle)
        if not self.fetch_halted and cycle >= self.fetch_stall_until \
                and len(fetch_queue) < 2 * self._fetch_width:
            self._fetch(cycle)

    def done(self) -> bool:
        return self.halted

    # ==================================================================
    # fetch
    # ==================================================================

    def _fetch(self, cycle: int) -> None:
        # Called only when fetch is neither halted nor stalled and the
        # fetch queue has room (step).
        fetched = 0
        width = self._fetch_width
        max_queue = 2 * width
        fetch_queue = self.fetch_queue
        instrs = self.program.instrs
        epoch_timestamps = self.epoch_timestamps
        # The last instruction line found present in this group.  Later
        # instructions on it skip the probe: this cycle's drain already
        # ran, and _probe_present is pure and monotone in the fetch
        # timestamp, which never decreases within a group.
        present_line = -1
        while fetched < width and len(fetch_queue) < max_queue:
            pc = self.fetch_pc
            if pc < 0 or pc >= len(instrs):
                # Fell off the program (can happen transiently); treat as
                # a stream of NOPs that will be squashed, by stalling.
                self._counts[self._h_fetch_off_end] += 1
                break
            addr = pc * INST_BYTES
            line = addr >> 6
            if line != present_line:
                if line == self.held_line and \
                        self.hierarchy.ifetch_version() == self.held_version:
                    # Held: nothing _probe_present reads has changed
                    # since it found this line present, and the fetch
                    # timestamp never decreases, so it would again.
                    self.pending_ifetch = None
                elif self._ifetch_line_ready(addr, cycle):
                    self.held_line = line
                    self.held_version = self.hierarchy.ifetch_version()
                else:
                    break
                present_line = line
            instr = instrs[pc]
            di = DynInst(self.seq_counter, pc, instr,
                         self.epoch if epoch_timestamps else None)
            self.seq_counter += 1
            if instr.is_branch:
                if epoch_timestamps and instr.op not in (_JMP, _CALL):
                    # a new (more speculative) epoch begins after every
                    # predicted conditional branch or return
                    self.epoch = self.seq_counter
                self._predict(di)
                self.fetch_pc = di.pred_next
            else:
                self.fetch_pc = pc + 1
            fetch_queue.append(di)
            if self._obs is not None:
                self._obs.emit_stage(self.core_id, di.seq, pc,
                                     instr.op.value, "fetch", cycle)
            fetched += 1
            if instr.op is _HALT:
                self.fetch_halted = True
                break
        if fetched:
            # One bump per group; an empty group leaves it untouched.
            self._counts[self._h_fetch_insts] += fetched

    def _fetch_ts(self) -> int:
        return self.epoch if self.epoch_timestamps else self.seq_counter

    def _ifetch_line_ready(self, addr: int, cycle: int) -> bool:
        if self.hierarchy.ifetch_probe(addr, self._fetch_ts(), cycle):
            self.pending_ifetch = None
            return True
        req = self.pending_ifetch
        if req is not None and req.line == (addr >> 6):
            if req.state is ReqState.REPLAY or req.done(cycle):
                # Replayed (leapfrogged away), or completed without the
                # line becoming present (its fill was dropped by a
                # squash-time wipe): fetch again.
                self.pending_ifetch = self.hierarchy.ifetch(
                    addr, self._fetch_ts(), cycle)
            return False
        self.pending_ifetch = self.hierarchy.ifetch(
            addr, self._fetch_ts(), cycle)
        return False

    def _predict(self, di: DynInst) -> None:
        """Predict a branch's next fetch PC (checkpointing the RAS), and
        set the branch-only fields ``DynInst`` leaves unset."""
        instr = di.instr
        pc = di.pc
        di.ras_ckpt = self.ras.checkpoint()
        di.actual_taken = False
        di.ghr_ckpt = 0
        di.mispredicted = False
        op = instr.op
        if op is _JMP:
            di.pred_next = instr.target
            di.resolved = True
            di.actual_next = instr.target
            return
        if op is _CALL:
            self.ras.push(pc + 1)
            di.pred_next = instr.target
            di.resolved = True
            di.actual_next = instr.target
            return
        if op is _RET:
            target = self.ras.pop()
            if target is None:
                btb_target = self.btb.predict(pc)
                target = btb_target if btb_target is not None else pc + 1
            di.pred_next = target
        else:  # conditional
            taken, ckpt = self.predictor.predict(pc)
            di.ghr_ckpt = ckpt
            di.pred_next = instr.target if taken else pc + 1
        di.resolved = False
        di.actual_next = pc + 1

    # ==================================================================
    # dispatch / rename
    # ==================================================================

    def _dispatch(self, cycle: int) -> None:
        # Called only with a fetched op and a ROB entry free (step).
        dispatched = 0
        width = self._fetch_width
        fetch_queue = self.fetch_queue
        rob = self.rob
        rename_map = self.rename_map
        taint_on = self._taint_on
        while fetch_queue and dispatched < width:
            di = fetch_queue[0]
            instr = di.instr
            if len(rob) >= self._rob_entries:
                self._counts[self._h_rob_full] += 1
                return
            needs_iq = instr.needs_iq
            if needs_iq and self.iq >= self._iq_entries:
                self._counts[self._h_iq_full] += 1
                return
            if instr.is_load and len(self.lq) >= self._lq_entries:
                self._counts[self._h_lq_full] += 1
                return
            if instr.is_store and len(self.sq) >= self._sq_entries:
                self._counts[self._h_sq_full] += 1
                return
            fetch_queue.popleft()
            # -- rename --
            srcs = instr.srcs
            if srcs:
                operands = di.operands = []
                for reg in srcs:
                    producer = rename_map[reg]
                    if producer is not None and producer.state == ST_DONE \
                            and producer.committed:
                        producer = None
                    if producer is None:
                        operands.append((None, self.regs[reg]))
                    else:
                        operands.append((producer, 0))
                        if producer.state != ST_DONE:
                            if producer.consumers is None:
                                producer.consumers = [di]
                            else:
                                producer.consumers.append(di)
                            di.pending += 1
                        if taint_on:
                            # STT: a load roots taint at itself, any
                            # other producer passes on its own youngest
                            # root.
                            root = (producer.seq if producer.instr.is_load
                                    else producer.taint_root)
                            if root > di.taint_root:
                                di.taint_root = root
                                if len(operands) == 1:
                                    di.taint0 = root
            if instr.is_branch:
                di.rename_ckpt = list(rename_map)
            dest = instr.writes_reg
            if dest is not None:
                rename_map[dest] = di
            rob.append(di)
            if self._obs is not None:
                self._obs.emit_stage(self.core_id, di.seq, di.pc,
                                     instr.op.value, "dispatch", cycle)
            if instr.is_load:
                self.lq.append(di)
            if instr.is_store:
                self.sq.append(di)
            if instr.is_branch and not di.resolved:
                # Youngest op yet: appending keeps the seq order.
                self.unresolved_branches.append(di)
                if di.seq < self._oldest_unresolved:
                    self._oldest_unresolved = di.seq
                    self.taint_version += 1
            if needs_iq:
                self.iq += 1
                if not di.pending or not instr.pipelined:
                    # Youngest op yet: appending keeps the seq order.
                    self.candidates.append(di)
            else:
                self._finish_trivial(di, cycle)
            dispatched += 1

    def _finish_trivial(self, di: DynInst, cycle: int) -> None:
        """NOP/HALT/JMP/CALL complete at dispatch."""
        if di.instr.op is _CALL:
            di.result = di.pc + 1
        di.state = ST_DONE
        di.done_cycle = cycle

    # ==================================================================
    # issue
    # ==================================================================

    def _issue(self, cycle: int) -> None:
        # Walks only the candidate list: a waiting pipelined op with
        # unfinished producers has no effect on this walk (no bump, no
        # slot, no §4.9 block), so leaving it out is exact.
        # A parked candidate (see IssuePark) whose versions are all
        # current replays its recorded effects instead of re-running
        # the attempt.  Called only with a candidate to walk (step).
        fu_pool = self.fu_pool
        # Free this cycle's ports for the walk's grants: nothing reads
        # the pool outside this walk, so once per non-empty walk does.
        fu_pool.begin_cycle(cycle)
        strict_fu = self._strict_fu
        issue_width = self._issue_width
        hierarchy = self.hierarchy
        counts = self._counts
        # A replay's int port comes straight off the pool's free counts
        # (``begin_cycle`` resets that list in place).
        free_ports = fu_pool._free
        h_int_issued = self._h_fu_int_issued
        # The hierarchy's ``load_retry_version()``, read when a park
        # first needs it and again only after a full attempt (a replay
        # changes nothing the version covers); None: not read yet.
        retry_version = None
        blocked_classes = set()
        issued = 0
        left_iq = 0
        evals = replays = 0
        still_waiting: List[DynInst] = []
        for di in self.candidates:
            if di.squashed or di.state != ST_WAITING:
                continue
            instr = di.instr
            nonpipelined = not instr.pipelined
            if issued >= issue_width:
                still_waiting.append(di)
                if strict_fu and nonpipelined:
                    blocked_classes.add(instr.fu_class)
                continue
            if strict_fu and nonpipelined \
                    and instr.fu_class in blocked_classes:
                # §4.9: a non-pipelined unit may only be issued a
                # speculative operation once all older (timestamp-order)
                # operations that may use the same unit have issued —
                # including ones whose operands are not ready yet.
                counts[self._h_strict_blocked[instr.fu_class]] += 1
                still_waiting.append(di)
                continue
            if di.pending:
                still_waiting.append(di)
                if strict_fu and nonpipelined:
                    blocked_classes.add(instr.fu_class)
                continue
            park = di.park
            # ``_park_current`` inline, and in lockstep with it.  The
            # SQ and taint versions are read per candidate: an issue
            # earlier in this walk may have moved them.
            if park is not None \
                    and (park.sq_version is None
                         or park.sq_version == self.sq_version) \
                    and (park.taint_version is None
                         or park.taint_version == self.taint_version):
                if park.retry_version is not None:
                    if park.until is not None:
                        # Refused by the L2 (rare): not cached.
                        if cycle >= park.until \
                                or park.retry_version \
                                != hierarchy.l2_retry_version():
                            park = None
                    else:
                        if retry_version is None:
                            retry_version = hierarchy.load_retry_version()
                        if park.retry_version != retry_version:
                            park = None
                elif park.waits_port and free_ports[_INT_FU]:
                    park = None  # a port is free: the attempt runs
            else:
                park = None
            if park is not None:
                replays += 1
                ok = park.takes_slot
                if not ok or free_ports[_INT_FU]:
                    if ok:
                        # ``FUPool.grant(_INT_FU)`` inline.
                        free_ports[_INT_FU] -= 1
                        counts[h_int_issued] += 1
                    for handle in park.bumps:
                        counts[handle] += 1
                else:
                    ok = False
            else:
                evals += 1
                di.park = None
                ok = self._try_issue_one(di, cycle)
                retry_version = None
            if ok:
                issued += 1
                if di.state == ST_WAITING:
                    # loads that hit retry/backpressure stay waiting
                    still_waiting.append(di)
                    continue
                left_iq += 1
                if self._obs is not None:
                    self._obs.emit_stage(self.core_id, di.seq, di.pc,
                                         instr.op.value, "issue", cycle)
            else:
                still_waiting.append(di)
                if strict_fu and nonpipelined:
                    blocked_classes.add(instr.fu_class)
        self.candidates = still_waiting
        self.iq -= left_iq
        self.issue_evals += evals
        self.issue_replays += replays

    def _park_current(self, park: IssuePark) -> bool:
        """Whether every version ``park`` recorded is still current.
        (An L2-refused retry also lapses at its ``until`` cycle, which
        the callers check.)

        The one definition: :meth:`_issue` tests the same three versions
        inline (no call per replay) and must stay in lockstep with it.
        """
        if park.retry_version is not None:
            hierarchy = self.hierarchy
            if park.retry_version != (
                    hierarchy.load_retry_version() if park.until is None
                    else hierarchy.l2_retry_version()):
                return False
        return ((park.sq_version is None
                 or park.sq_version == self.sq_version)
                and (park.taint_version is None
                     or park.taint_version == self.taint_version))

    def _try_issue_one(self, di: DynInst, cycle: int) -> bool:
        instr = di.instr
        if instr.is_load:
            return self._issue_load(di, cycle)
        if instr.is_store:
            return self._issue_store(di, cycle)
        if self._taint_on:
            if instr.is_branch:
                # STT: a branch on tainted data is an (implicit)
                # transmitter and may not execute until the taint clears.
                if di.taint0 >= self._taint_frontier():
                    self._counts[self._h_stt_branch_blocked] += 1
                    di.park = IssuePark(None, self.taint_version, None,
                                        (self._h_stt_branch_blocked,),
                                        False)
                    return False
            elif not instr.pipelined:
                # Non-pipelined FU ops on tainted data transmit through
                # structural-hazard contention (SpectreRewind): STT
                # delays them like any other transmitter.
                if di.taint_root >= self._taint_frontier():
                    self._counts[self._h_stt_fu_blocked] += 1
                    di.park = IssuePark(None, self.taint_version, None,
                                        (self._h_stt_fu_blocked,), False)
                    return False
        if instr.pipelined:
            if not self.fu_pool.grant(instr.fu_index):
                return False
        elif not self.fu_pool.try_issue(instr.fu_class, cycle,
                                        instr.latency, False):
            return False
        # Operand values straight from ``operands``: the first source,
        # then the second or the immediate.
        operands = di.operands
        a = 0
        b = instr.imm
        if operands:
            producer, a = operands[0]
            if producer is not None:
                a = producer.result
            if len(operands) > 1:
                producer, b = operands[1]
                if producer is not None:
                    b = producer.result
        evaluator = instr.evaluator
        if evaluator is not None:
            di.result = evaluator(a, b, instr.imm)
        elif instr.is_branch:
            self._compute_branch(di, a)
        else:  # RDCYC
            di.result = cycle
        di.state = ST_EXECUTING
        di.done_cycle = cycle + instr.latency
        heappush(self.completions, (di.done_cycle, di.seq, di))
        return True

    def _compute_branch(self, di: DynInst, value: int) -> None:
        """Resolve a BEQZ/BNEZ/RET on its first operand's ``value``."""
        instr = di.instr
        op = instr.op
        if op is _BEQZ:
            di.actual_taken = value == 0
            di.actual_next = instr.target if di.actual_taken else di.pc + 1
        elif op is _BNEZ:
            di.actual_taken = value != 0
            di.actual_next = instr.target if di.actual_taken else di.pc + 1
        elif op is _RET:
            di.actual_taken = True
            di.actual_next = value & ADDR_MASK

    # -- loads ---------------------------------------------------------------

    def _issue_load(self, di: DynInst, cycle: int) -> bool:
        instr = di.instr
        base = 0
        if instr.rs1 is not None:
            producer, base = di.operands[0]
            if producer is not None:
                base = producer.result
        addr = (base + instr.imm) & ADDR_MASK
        di.addr = addr
        conflict = (self._older_store_conflict(di, addr) if self.sq
                    else None)
        if conflict == "wait":
            self._counts[self._h_lsq_load_waits] += 1
            di.park = IssuePark(self.sq_version, None, None,
                                (self._h_lsq_load_waits,), False)
            return False
        if self._taint_on and di.taint0 >= self._taint_frontier():
            self._counts[self._h_stt_load_blocked] += 1
            di.park = IssuePark(self.sq_version, self.taint_version, None,
                                (self._h_stt_load_blocked,), False)
            return False
        if not self.fu_pool.grant(_INT_FU):
            # Only a port is missing.  Until the SQ moves, the next
            # attempt gets here again (a safe address stays safe, as
            # below), so it waits silently while no port is free.
            di.park = IssuePark(self.sq_version, None, None, (), False,
                                True)
            return False
        if conflict is not None:
            # store-to-load forwarding: one-cycle completion
            di.result = conflict.store_value
            di.forwarded = True
            di.state = ST_EXECUTING
            di.done_cycle = cycle + 1
            heappush(self.completions, (di.done_cycle, di.seq, di))
            self._counts[self._h_lsq_forwards] += 1
            return True
        req = self.hierarchy.load(addr, di.ts, cycle, speculative=True,
                                  pc=di.pc)
        if req is None:
            self._counts[self._h_load_retries] += 1
            hierarchy = self.hierarchy
            bumps = hierarchy.retry_bumps
            if bumps is not None:
                # Address operands, once safe, stay safe (taint sources
                # only ever turn safe), so the park needs no taint
                # version: the SQ walk and the memory side decide.
                bumps.append(self._h_load_retries)
                until = hierarchy.retry_until
                di.park = IssuePark(
                    self.sq_version, None,
                    hierarchy.load_retry_version() if until is None
                    else hierarchy.l2_retry_version(),
                    bumps, True, False, until)
            return True  # consumed an issue slot but stays waiting
        di.memreq = req
        di.result = self.memory.get(addr, 0)
        di.state = ST_EXECUTING
        # Keyed at the request's completion as it stands: a leapfrog or
        # timeleap that moves it reports the request in ``_moved``.
        heappush(self.completions, (req.ready_cycle, di.seq, di))
        return True

    def _older_store_conflict(self, load: DynInst, addr: int):
        """Return 'wait', a forwarding store, or None (no conflict)."""
        result = None
        for store in self.sq:
            if store.seq >= load.seq:
                break
            if store.squashed:
                continue
            if store.state != ST_DONE and store.addr is None:
                if store.committed:
                    continue
                return "wait"
            if store.addr == addr:
                if store.committed:
                    result = None  # value already in memory
                elif store.state == ST_DONE:
                    result = store
                else:
                    return "wait"
        return result

    def _taint_frontier(self) -> float:
        """The STT taint frontier: an operand whose youngest root of
        taint is at or above it is unsafe.

        Taint sources are loads.  Under ``spectre`` a load turns safe
        once every older branch has resolved, so the frontier is the
        oldest unresolved branch; under ``future`` only once it
        commits, so it is the ROB head (inf when the ROB is empty).
        A live op's roots are never squashed (a squash kills a suffix)
        and the frontier never moves back past a live root, so the
        youngest root is unsafe exactly when some root is (see
        docs/performance.md, "Taint as its youngest root").
        """
        if self._taint_spectre:
            return self._oldest_unresolved
        rob = self.rob
        return rob[0].seq if rob else _INF

    # -- stores ---------------------------------------------------------------

    def _issue_store(self, di: DynInst, cycle: int) -> bool:
        instr = di.instr
        # STT: the store address is a transmitter too.
        if self._taint_on and di.taint0 >= self._taint_frontier():
            self._counts[self._h_stt_store_blocked] += 1
            di.park = IssuePark(None, self.taint_version, None,
                                (self._h_stt_store_blocked,), False)
            return False
        if not self.fu_pool.grant(_INT_FU):
            return False
        operands = di.operands
        base = 0
        if instr.rs1 is not None:
            producer, base = operands[0]
            if producer is not None:
                base = producer.result
        di.addr = (base + instr.imm) & ADDR_MASK
        value = 0
        if len(operands) > 1:
            producer, value = operands[1]
            if producer is not None:
                value = producer.result
        di.store_value = value
        di.state = ST_EXECUTING
        self.sq_version += 1
        di.done_cycle = cycle + 1
        heappush(self.completions, (di.done_cycle, di.seq, di))
        return True

    # ==================================================================
    # writeback & branch resolution
    # ==================================================================

    def _writeback(self, cycle: int) -> None:
        # Pays per completion: take the loads whose requests moved since
        # the last writeback, pop the calendar's due entries, then
        # resolve the due set oldest-first so an older mispredict
        # squashes younger ones.  Nothing between the pop and the
        # resolve loop moves a memory request: the only hierarchy call
        # in the loop (``squash``, on a mispredict) is followed by the
        # break.
        due: List[DynInst] = []
        if self._moved:
            self._take_moved(due)
        completions = self.completions
        while completions and completions[0][0] <= cycle:
            due.append(heappop(completions)[2])
        if not due:
            return
        if len(due) > 1:
            due.sort(key=_seq_key)
        for di in due:
            req = di.memreq
            if req is not None:
                if req.state is _REPLAY:
                    di.state = ST_WAITING
                    di.memreq = None
                    di.replays += 1
                    self.iq += 1
                    insort(self.candidates, di, key=_seq_key)
                    self._counts[self._h_load_replays] += 1
                    if self._obs is not None:
                        self._obs.emit_stage(self.core_id, di.seq, di.pc,
                                             di.instr.op.value, "replay",
                                             cycle)
                    continue
                di.result = self.memory.get(di.addr, 0)
                di.done_cycle = cycle
                # A done load never leaves ST_DONE, and
                # ``needs_validation`` is set at access time: queue it
                # once, here, for its visibility point.
                if self._validation_on and req.needs_validation:
                    insort(self.awaiting_validation, di, key=_seq_key)
                if self._early_commit:
                    insort(self.awaiting_promotion, di, key=_seq_key)
            elif di.instr.is_store:
                self.sq_version += 1  # its address check now passes
            di.state = ST_DONE
            consumers = di.consumers
            if consumers is not None:
                # Wake the ops waiting on this result.
                di.consumers = None
                for waiter in consumers:
                    waiter.pending -= 1
                    if not waiter.pending and waiter.instr.pipelined \
                            and waiter.state == ST_WAITING \
                            and not waiter.squashed:
                        insort(self.candidates, waiter, key=_seq_key)
            if self._obs is not None:
                self._obs.emit_stage(self.core_id, di.seq, di.pc,
                                     di.instr.op.value, "writeback",
                                     cycle)
            if di.instr.is_branch and not di.resolved:
                self._resolve_branch(di, cycle)
                if di.mispredicted:
                    # Everything younger, the rest of ``due`` included,
                    # was just squashed and dropped from the calendar:
                    # stop here.
                    break

    def _take_moved(self, due: List[DynInst]) -> None:
        """Bring the calendar up to date with ``_moved``: a load whose
        request was marked REPLAY joins ``due`` (replays are serviced
        at once, whatever the cycle), and one whose request was
        postponed is re-keyed at its new ``ready_cycle``.  Requests of
        ops no longer in flight (squashed, or not a core load) are
        dropped.  Rare: a few dozen moves per Fig. 6 pass."""
        moved = self._moved
        calendar = []
        for entry in self.completions:
            di = entry[2]
            req = di.memreq
            if req is not None and req in moved:
                if req.state is _REPLAY:
                    due.append(di)
                    continue
                entry = (req.ready_cycle, entry[1], di)
            calendar.append(entry)
        heapify(calendar)
        self.completions = calendar
        moved.clear()

    def _resolve_branch(self, di: DynInst, cycle: int) -> None:
        di.resolved = True
        if di.seq == self._oldest_unresolved:
            self._refresh_oldest_unresolved()
        instr = di.instr
        if instr.is_cond_branch:
            self._counts[self._h_cond_branches] += 1
            if not self._train_at_commit:
                self.predictor.update(di.pc, di.actual_taken, di.ghr_ckpt)
        if instr.op is _RET and not self._train_at_commit:
            self.btb.update(di.pc, di.actual_next)
        if di.actual_next != di.pred_next:
            di.mispredicted = True
            self._counts[self._h_mispredicts] += 1
            self._squash_after(di, cycle)

    def _squash_after(self, br: DynInst, cycle: int) -> None:
        self.sq_version += 1
        self.taint_version += 1
        boundary = br.seq
        squashed = 0
        # The ops younger than ``br`` are the ROB's tail: pop them.
        rob = self.rob
        while rob and rob[-1].seq > boundary:
            di = rob.pop()
            di.squashed = True
            di.consumers = None
            squashed += 1
            if di.state == ST_WAITING and di.instr.needs_iq:
                self.iq -= 1
        if squashed:
            self.candidates = [d for d in self.candidates
                               if not d.squashed]
            self.lq = [d for d in self.lq if not d.squashed]
            self.sq = [d for d in self.sq if not d.squashed]
            completions = [entry for entry in self.completions
                           if not entry[2].squashed]
            heapify(completions)
            self.completions = completions
            if self.awaiting_validation:
                self.awaiting_validation = [
                    d for d in self.awaiting_validation if not d.squashed]
            if self.awaiting_promotion:
                self.awaiting_promotion = [
                    d for d in self.awaiting_promotion if not d.squashed]
            # The squashed ops are the youngest: pop them off the tail.
            unresolved = self.unresolved_branches
            while unresolved and unresolved[-1].squashed:
                unresolved.pop()
        for di in self.fetch_queue:
            di.squashed = True
            squashed += 1
        self.fetch_queue.clear()
        self.pending_ifetch = None
        # restore rename state
        if br.rename_ckpt is not None:
            self.rename_map = list(br.rename_ckpt)
            dest = br.instr.writes_reg
            if dest is not None:
                self.rename_map[dest] = br
        if br.instr.is_cond_branch:
            self.predictor.restore_ghr(br.ghr_ckpt, br.actual_taken)
        if br.ras_ckpt is not None:
            self.ras.restore(br.ras_ckpt)
            if br.instr.op is _RET:
                self.ras.pop()
        # redirect fetch
        self.fetch_halted = False
        self.fetch_pc = br.actual_next
        self.fetch_stall_until = cycle + self._mispredict_penalty
        self._refresh_oldest_unresolved()
        self.hierarchy.squash(br.ts, cycle)
        self._counts[self._h_squash_events] += 1
        # Through ``Stats.add``: ``squashed`` may be 0, and the counter
        # must still show.
        self.stats.add(self._h_squash_insts, squashed)
        if self._obs is not None:
            self._obs.emit_squash(self.core_id, boundary, cycle)

    def _refresh_oldest_unresolved(self) -> None:
        # ``_oldest_unresolved`` is kept current where the queue changes
        # (dispatch, _resolve_branch, _squash_after), not per cycle: the
        # resolved branches at the head leave, and the new head is the
        # oldest unresolved one.
        self.taint_version += 1
        unresolved = self.unresolved_branches
        while unresolved and unresolved[0].resolved:
            unresolved.popleft()
        self._oldest_unresolved = unresolved[0].seq if unresolved else _INF

    # ==================================================================
    # InvisiSpec visibility
    # ==================================================================

    def _validation_bound(self) -> float:
        """InvisiSpec's visibility point as a seq frontier: a load
        below it validates.

        * ``spectre`` mode: once all older branches have resolved, so
          the frontier is the oldest unresolved branch.
        * ``future`` mode: at the commit point; validations for the
          oldest commit-window's worth of loads overlap (real InvisiSpec
          pipelines validations — fully serialising them at the ROB head
          would overstate the cost), so the frontier is the first ROB
          entry past ``2 * commit_width`` (inf when there is none).

        For a load already in the window the frontier only rises: every
        new branch or ROB entry is younger than it.
        """
        if self._spectre_validation:
            return self._oldest_unresolved
        rob = self.rob
        window = 2 * self._commit_width
        return rob[window].seq if len(rob) > window else _INF

    def _issue_ready_validations(self, cycle: int) -> None:
        """Issue InvisiSpec validations at each load's visibility point.

        Pops the prefix of ``awaiting_validation`` below
        :meth:`_validation_bound`, oldest first, and validates each load
        not already validated at the commit point.  Called only with a
        load queued (step).
        """
        queue = self.awaiting_validation
        bound = self._validation_bound()
        while queue and queue[0].seq < bound:
            di = queue.pop(0)
            if di.validated or di.validation_done_cycle is not None:
                continue
            di.validation_done_cycle = self.hierarchy.validate(
                di.memreq, di.ts, cycle)

    def _early_commit_promotions(self, cycle: int) -> None:
        """§4.10 Early Commit: once every older branch has resolved, a
        completed load can no longer be squashed (no exceptions in this
        machine), so its Minion line may move to the L1 immediately.

        Pops the prefix of ``awaiting_promotion`` below the oldest
        unresolved branch, oldest first.  A squash filters the queue and
        a load leaves it only here, so every popped load is live and not
        yet promoted.  Called only with a load queued (step).
        """
        queue = self.awaiting_promotion
        bound = self._oldest_unresolved
        while queue and queue[0].seq < bound:
            di = queue.pop(0)
            self.hierarchy.commit_load(di.memreq, di.ts, cycle)
            di.promoted = True
            self._counts[self._h_gm_early_commits] += 1

    # ==================================================================
    # commit
    # ==================================================================

    def _commit(self, cycle: int) -> None:
        committed = 0
        width = self._commit_width
        rob = self.rob
        while rob and committed < width:
            di = rob[0]
            if di.state != ST_DONE or di.squashed:
                break
            if di.commit_stall_until > cycle:
                self._counts[self._h_commit_stall] += 1
                break
            instr = di.instr
            if instr.is_load and not self._commit_load_checks(di, cycle):
                break
            if instr.is_store:
                self.memory[di.addr] = di.store_value & MASK64
                self.hierarchy.store_commit(di.addr, di.ts, cycle)
                self._counts[self._h_commit_stores] += 1
                self.sq_version += 1
            dest = instr.writes_reg
            if dest is not None:
                self.regs[dest] = di.result & MASK64
                if self.rename_map[dest] is di:
                    self.rename_map[dest] = None
            if self._train_at_commit:
                if instr.is_cond_branch:
                    self.predictor.update(di.pc, di.actual_taken,
                                          di.ghr_ckpt)
                if instr.op is _RET:
                    self.btb.update(di.pc, di.actual_next)
            di.committed = True
            rob.popleft()
            # Nothing reads a committed op's sources or rename
            # checkpoint; dropping them keeps younger ops from holding
            # every committed op alive along loop-carried dependencies.
            di.operands = _NO_OPERANDS
            di.rename_ckpt = None
            if instr.is_load:
                self.lq.remove(di)
                self._counts[self._h_commit_loads] += 1
                # Taint sources are loads: this one is now safe.
                self.taint_version += 1
            if instr.is_store:
                self.sq.remove(di)
            if self._commit_ifetch:
                self.hierarchy.commit_ifetch(di.pc * INST_BYTES, di.ts,
                                             cycle)
            committed += 1
            if self._obs is not None:
                self._obs.emit_stage(self.core_id, di.seq, di.pc,
                                     instr.op.value, "commit", cycle)
            if instr.op is _HALT:
                self.halted = True
                break
        if committed:
            # One bump per group; an empty group leaves it untouched.
            self._counts[self._h_commit_insts] += committed
            self.committed_insts += committed

    def _commit_load_checks(self, di: DynInst, cycle: int) -> bool:
        """Validation + GhostMinion commit actions for a load at the ROB
        head; False blocks commit."""
        req = di.memreq
        if self._validation_on and req is not None \
                and req.needs_validation and not di.validated:
            if di.validation_done_cycle is None:
                # 'future' mode validates at the commit point;
                # 'spectre' mode normally validated earlier but may
                # reach the head first.
                di.validation_done_cycle = self.hierarchy.validate(
                    req, di.ts, cycle)
                self._counts[self._h_ivs_commit_validations] += 1
            if cycle < di.validation_done_cycle:
                self._counts[self._h_ivs_stall] += 1
                return False
            di.validated = True
        if di.forwarded or di.promoted:
            return True
        extra = self.hierarchy.commit_load(req, di.ts, cycle)
        if extra > 0:
            di.commit_stall_until = cycle + extra
            return False
        return True

    # ==================================================================
    # architectural state (for differential tests)
    # ==================================================================

    def arch_regs(self) -> List[int]:
        return list(self.regs)
