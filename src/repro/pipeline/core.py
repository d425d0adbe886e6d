"""Cycle-driven out-of-order core with genuine transient execution.

The core fetches along the *predicted* path, renames and executes
speculatively, and squashes back to the last correct instruction on a
branch misprediction — so misspeculated ("wrong-path") instructions
really fetch, execute, issue memory accesses and contend for functional
units, exactly the behaviour Spectre-family attacks (and GhostMinion's
mechanisms) depend on.

The machinery is split across two modules:

* :mod:`repro.pipeline.hotcore` holds the dense per-cycle step loop and
  its data (:class:`DynInst`, :class:`HotCore` — stage order within a
  cycle: commit -> writeback -> issue -> dispatch/rename -> fetch).
  That module keeps the per-cycle state in fixed ``__slots__`` and
  interned stats handles (see docs/performance.md).
* This module layers the parts the event-driven scheduler needs on
  top: the stall taxonomy and :meth:`Core.next_event_cycle`.  The
  taxonomy outcomes are identity-checked by the simulator, and the
  analysis only runs once per *skip decision*, not once per cycle.
  Its three common vetoes (a due fill, a committable ROB head, a due
  completion on the hot core's completion calendar) cost O(1) and
  allocate nothing; :meth:`Core._stall_proof` builds the rest of a
  proof.

Values flow by dataflow: each dynamic instruction points at its
producers and reads their results when it executes, so squashed
instructions simply never write anything architectural (stores update
memory only at commit).

Defense hooks (see :mod:`repro.defenses.base`):

* taint tracking (STT) blocks tainted-address loads/stores in issue;
* validation (InvisiSpec) re-fetches invisible loads at their
  visibility point and blocks commit until done;
* GhostMinion's commit move / coherence replay runs through
  ``hierarchy.commit_load``; squashes call ``hierarchy.squash``.
"""

from __future__ import annotations

from repro.memory.request import ReqState
from repro.pipeline.isa import INST_BYTES
# Re-exports: the hot-core module is an implementation detail; the
# public home of these names stays ``repro.pipeline.core``.
from repro.pipeline.hotcore import (
    _INF,
    _INT_FU,
    ADDR_MASK,
    ST_DONE,
    ST_EXECUTING,
    ST_WAITING,
    DynInst,
    HotCore,
)

# ======================================================================
# stall taxonomy (event-driven scheduler)
#
# Every outcome of Core.next_event_cycle is named here, and the names
# are load-bearing: docs/performance.md documents the same table, the
# simulator's per-class skipped-cycles telemetry keys off SKIP_*, and
# tests/test_stall_taxonomy.py fails if code and docs drift apart.
# ======================================================================

#: Skippable stall classes: conditions whose per-cycle effect is a
#: provable, fixed set of counter bumps (applied in bulk over a window).
SKIP_COMMIT_STALL = "commit-stall"
SKIP_VALIDATION_WAIT = "validation-wait"
SKIP_MEM_WAIT = "mem-wait"
SKIP_STT_TAINT = "stt-taint"
SKIP_LSQ_STORE_ADDR = "lsq-store-addr"
SKIP_MSHR_BACKPRESSURE = "mshr-backpressure"
SKIP_STRICT_FU = "strict-fu-order"
SKIP_DISPATCH_FULL = "dispatch-full"
SKIP_FETCH_STALL = "fetch-stall"
SKIP_IDLE = "idle"

SKIP_CLASSES = frozenset({
    SKIP_COMMIT_STALL, SKIP_VALIDATION_WAIT, SKIP_MEM_WAIT,
    SKIP_STT_TAINT, SKIP_LSQ_STORE_ADDR, SKIP_MSHR_BACKPRESSURE,
    SKIP_STRICT_FU, SKIP_DISPATCH_FULL, SKIP_FETCH_STALL, SKIP_IDLE,
})

#: Veto reasons: conditions under which stepping this cycle might make
#: progress or have unproven side effects, so the scheduler must step
#: densely.  Vetoing is always safe — it costs speed, never correctness.
VETO_MEM_EVENT_DUE = "mem-event-due"
VETO_COMMIT_READY = "commit-ready"
VETO_WRITEBACK_DUE = "writeback-due"
#: Retired: the stall proof no longer checks for a load at its
#: visibility point or a promotable §4.10 load, because none can be
#: waiting between steps (see ``Core._stall_proof``).  The names stay in
#: the taxonomy until the benchmark stops reporting a count for each.
VETO_VALIDATION_START = "validation-start"
VETO_EARLY_COMMIT_READY = "early-commit-ready"
VETO_ISSUE_READY = "issue-ready"
VETO_DISPATCH_READY = "dispatch-ready"
VETO_FETCH_READY = "fetch-ready"

VETO_REASONS = frozenset({
    VETO_MEM_EVENT_DUE, VETO_COMMIT_READY, VETO_WRITEBACK_DUE,
    VETO_VALIDATION_START, VETO_EARLY_COMMIT_READY, VETO_ISSUE_READY,
    VETO_DISPATCH_READY, VETO_FETCH_READY,
})


class StallVeto:
    """``next_event_cycle`` outcome: step densely, for ``reason``."""

    __slots__ = ("reason",)

    def __init__(self, reason: str) -> None:
        self.reason = reason

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "StallVeto(%s)" % self.reason


#: One preallocated outcome per veto reason: a veto carries nothing but
#: its reason, and two thirds of all skip decisions end in one.
_VETOES = {reason: StallVeto(reason) for reason in VETO_REASONS}


class StallProof:
    """``next_event_cycle`` outcome: a provable stall window.

    For every cycle in ``[cycle, wake)``, stepping this core changes
    nothing except bumping each stats handle in ``bumps`` once per
    cycle and the effects reproduced by the ``replays`` callables
    (``fn(cycle, k)``, invoked once per committed window).  ``classes``
    is the subset of :data:`SKIP_CLASSES` active in the window, for the
    per-class skipped-cycles telemetry.
    """

    __slots__ = ("wake", "bumps", "replays", "classes")

    def __init__(self, wake, bumps, replays, classes) -> None:
        self.wake = wake
        self.bumps = bumps
        self.replays = replays
        self.classes = classes

    def merged(self, other: "StallProof") -> "StallProof":
        """One proof for two cores stalled over the same window."""
        return StallProof(min(self.wake, other.wake),
                          list(self.bumps) + list(other.bumps),
                          list(self.replays) + list(other.replays),
                          set(self.classes) | set(other.classes))


class Core(HotCore):
    """One hardware thread: fetch -> ... -> commit over a Program.

    :class:`HotCore` plus the event scheduler's stall analysis.  A core
    is saved and restored only as part of a whole-machine checkpoint
    (:mod:`repro.sim.checkpoint`).
    """

    # ==================================================================
    # event-driven scheduling (cycle skipping)
    # ==================================================================

    def next_event_cycle(self, cycle):
        """Stall analysis for the event-driven scheduler.

        Returns a :class:`StallVeto` when ``step(cycle)`` might make
        progress or have side effects the analysis cannot prove and
        bulk-apply — the scheduler must then step densely.  Otherwise
        returns a :class:`StallProof`: for every cycle ``c`` in
        ``[cycle, wake)``, ``step(c)`` is guaranteed to change
        *nothing* except bumping each stats handle in ``bumps`` once
        per cycle, plus the per-cycle side effects reproduced by the
        ``replays`` callables — exactly what the dense loop would do —
        so the scheduler may jump straight to ``wake`` after applying
        them in bulk.

        This mirrors :meth:`HotCore.step` stage by stage (commit,
        writeback, issue, dispatch, fetch; validation issue and early
        commit have nothing to do between steps, see
        :meth:`_stall_proof`) and must be kept in lockstep with it: the
        ``REPRO_DENSE_LOOP=1`` differential tests in
        ``tests/test_scheduler_equivalence.py`` enforce the
        equivalence, and every outcome is named in the stall taxonomy
        (:data:`SKIP_CLASSES` / :data:`VETO_REASONS`, documented in
        docs/performance.md and pinned by
        ``tests/test_stall_taxonomy.py``).  When in doubt, veto —
        conservatism costs speed, never correctness.
        """
        if self.halted:
            return StallProof(float("inf"), (), (), ())
        # The three common vetoes (a due fill, a committable ROB head, a
        # due completion) are decided before anything is allocated.
        wake = self.hierarchy.next_event_cycle()
        if wake <= cycle:
            # A fill is due: drain has work this cycle.
            return _VETOES[VETO_MEM_EVENT_DUE]
        # -- commit: only the ROB head can block the window ------------
        head_bump = head_class = None
        if self.rob:
            head = self.rob[0]
            if head.state == ST_DONE and not head.squashed:
                if head.commit_stall_until > cycle:
                    wake = min(wake, head.commit_stall_until)
                    head_bump = self._h_commit_stall
                    head_class = SKIP_COMMIT_STALL
                elif (self._validation_on and head.instr.is_load
                        and head.memreq is not None
                        and head.memreq.needs_validation
                        and not head.validated
                        and head.validation_done_cycle is not None
                        and cycle < head.validation_done_cycle):
                    wake = min(wake, head.validation_done_cycle)
                    head_bump = self._h_ivs_stall
                    head_class = SKIP_VALIDATION_WAIT
                else:
                    # Head would commit (or start commit-point work).
                    return _VETOES[VETO_COMMIT_READY]
        # -- writeback: the calendar head -------------------------------
        completions = self.completions
        if not completions:
            return self._stall_proof(cycle, wake, head_bump, head_class,
                                     False)
        if self._moved:
            # Some loads' keys are stale until the next writeback: read
            # each load's request instead (a few dozen times per pass).
            for ready, _seq, di in completions:
                req = di.memreq
                if req is not None:
                    if req.state is not ReqState.READY:
                        # Replay to service.
                        return _VETOES[VETO_WRITEBACK_DUE]
                    ready = req.ready_cycle
                if ready <= cycle:
                    return _VETOES[VETO_WRITEBACK_DUE]  # completes now
                if ready < wake:
                    wake = ready
        else:
            ready = completions[0][0]
            if ready <= cycle:
                return _VETOES[VETO_WRITEBACK_DUE]  # completes now
            if ready < wake:
                wake = ready
        return self._stall_proof(cycle, wake, head_bump, head_class, True)

    def _stall_proof(self, cycle, wake, head_bump, head_class, in_flight):
        """The rest of :meth:`next_event_cycle`, from validation issue
        (which needs no check) to fetch, once commit and writeback have
        neither vetoed: a veto, or a :class:`StallProof` that starts
        from what they found — ``wake``, the ROB head's stall bump and
        class (None when it has none), and whether any op is in
        flight."""
        bumps = [] if head_bump is None else [head_bump]
        classes = set() if head_class is None else {head_class}
        if in_flight:
            classes.add(SKIP_MEM_WAIT)
        replays = []
        # -- InvisiSpec validations and §4.10 promotions: nothing due --
        # Both stages pop every queued load below their bound, and no
        # stage after them completes a load or raises either bound; a
        # commit that would raise one is the commit-ready veto above.
        # So no queued load lies below its bound between steps
        # (tests/pipeline/test_visibility_queue.py checks it after
        # every dense step) and neither stage can start work here.
        # -- issue: walk the candidate list, as _issue does ------------
        # ``self.candidates`` is seq-ordered and holds every waiting op
        # whose operands are done plus every waiting non-pipelined op;
        # a waiting pipelined op with unfinished producers is a no-op in
        # this walk (no bump, no slot, no §4.9 block), so it is left out.
        # Ops with ready operands no longer veto unconditionally: the
        # three issue-side stall classes (STT taint blocking, LSQ
        # store-address waits, MSHR-backpressure retries) are provable
        # per-cycle no-ops-plus-bumps, because nothing that could
        # unblock them (commit, squash, branch resolution, address
        # generation, an MSHR drain) can happen before `wake` — every
        # such event is itself a veto or a wakeup source above.
        # Retrying loads do consume issue slots and int-FU ports each
        # cycle, so slot accounting mirrors _issue exactly.
        strict_fu = self._strict_fu
        # Nothing an STT check reads moves within the proof: an operand
        # is unsafe iff its youngest root of taint reaches the frontier.
        frontier = self._taint_frontier() if self._taint_on else _INF
        # §4.9 blocking is only tracked under strict FU order; every
        # use below sits behind a ``strict_fu`` test.
        blocked_classes = set() if strict_fu else None
        issued = 0
        int_used = 0
        issue_width = self._issue_width
        int_ports = self.fu_pool._ports[_INT_FU]
        for di in self.candidates:
            if di.squashed or di.state != ST_WAITING:
                # Issue would prune the queue.
                return _VETOES[VETO_ISSUE_READY]
            instr = di.instr
            nonpipelined = not instr.pipelined
            if issued >= issue_width:
                # Width exhausted by retrying loads: younger ops wait
                # silently (dense: still_waiting, no bumps).
                if strict_fu and nonpipelined:
                    blocked_classes.add(instr.fu_class)
                continue
            if strict_fu and nonpipelined \
                    and instr.fu_class in blocked_classes:
                bumps.append(self._h_strict_blocked[instr.fu_class])
                classes.add(SKIP_STRICT_FU)
                continue
            if di.pending:
                if strict_fu and nonpipelined:
                    blocked_classes.add(instr.fu_class)
                continue
            # Operands ready: mirror _try_issue_one's blocking checks.
            if instr.is_load:
                park = di.park
                if park is not None and self._park_current(park):
                    # A parked attempt (see IssuePark): its recorded
                    # effects stand for the SQ walk, the taint check and
                    # the hierarchy dry-run below.
                    if not park.takes_slot:
                        bumps.extend(park.bumps)
                        classes.add(
                            SKIP_LSQ_STORE_ADDR
                            if park.bumps[0] == self._h_lsq_load_waits
                            else SKIP_STT_TAINT)
                        continue
                    if int_used >= int_ports:
                        continue  # try_issue would fail silently
                    # An L1-side full-file retry: never wakes on its own.
                    issued += 1
                    int_used += 1
                    bumps.append(self._h_fu_int_issued)
                    bumps.extend(park.bumps)
                    classes.add(SKIP_MSHR_BACKPRESSURE)
                    continue
                values = di.operand_values()
                base = values[0] if instr.rs1 is not None else 0
                addr = (base + instr.imm) & ADDR_MASK
                conflict = self._older_store_conflict(di, addr)
                if conflict == "wait":
                    # The blocking store cannot generate its address
                    # before `wake`: it is either mid-execution (its
                    # completion bounds the window via the writeback
                    # scan) or blocked on producers that are.
                    bumps.append(self._h_lsq_load_waits)
                    classes.add(SKIP_LSQ_STORE_ADDR)
                    continue
                if di.taint0 >= frontier:
                    # Untainting needs a commit, squash or branch
                    # resolution; none can happen before `wake`.
                    bumps.append(self._h_stt_load_blocked)
                    classes.add(SKIP_STT_TAINT)
                    continue
                if int_used >= int_ports:
                    continue  # try_issue would fail silently
                if conflict is not None:
                    # Would forward from the store and complete.
                    return _VETOES[VETO_ISSUE_READY]
                proof = self.hierarchy.load_block_proof(
                    addr, di.ts, di.pc, cycle)
                if proof is None:
                    return _VETOES[VETO_ISSUE_READY]
                # MSHR backpressure: the dense loop re-issues this load
                # every cycle — consuming an issue slot and an int FU
                # port, probing the L1 side, training the prefetcher
                # (replayed in bulk) and bumping the retry counters.
                issued += 1
                int_used += 1
                wake = min(wake, proof.wake)
                bumps.append(self._h_fu_int_issued)
                bumps.append(self._h_load_retries)
                bumps.extend(proof.bumps)
                replays.extend(proof.replays)
                classes.add(SKIP_MSHR_BACKPRESSURE)
                continue
            if instr.is_store:
                if di.taint0 >= frontier:
                    bumps.append(self._h_stt_store_blocked)
                    classes.add(SKIP_STT_TAINT)
                    continue
                if int_used >= int_ports:
                    continue  # try_issue would fail silently
                return _VETOES[VETO_ISSUE_READY]
            if instr.is_branch:
                if di.taint0 >= frontier:
                    bumps.append(self._h_stt_branch_blocked)
                    classes.add(SKIP_STT_TAINT)
                    continue
            elif nonpipelined:
                if di.taint_root >= frontier:
                    bumps.append(self._h_stt_fu_blocked)
                    classes.add(SKIP_STT_TAINT)
                    if strict_fu:
                        blocked_classes.add(instr.fu_class)
                    continue
            if instr.fu_class == "int" and int_used >= int_ports:
                if strict_fu and nonpipelined:
                    blocked_classes.add(instr.fu_class)
                continue  # try_issue would fail silently
            return _VETOES[VETO_ISSUE_READY]
        # -- dispatch: blocked head bumps one full-counter per cycle ---
        if self.fetch_queue:
            di = self.fetch_queue[0]
            instr = di.instr
            if len(self.rob) >= self._rob_entries:
                bumps.append(self._h_rob_full)
                classes.add(SKIP_DISPATCH_FULL)
            else:
                needs_iq = instr.needs_iq
                if needs_iq and self.iq >= self._iq_entries:
                    bumps.append(self._h_iq_full)
                    classes.add(SKIP_DISPATCH_FULL)
                elif instr.is_load and len(self.lq) >= self._lq_entries:
                    bumps.append(self._h_lq_full)
                    classes.add(SKIP_DISPATCH_FULL)
                elif instr.is_store \
                        and len(self.sq) >= self._sq_entries:
                    bumps.append(self._h_sq_full)
                    classes.add(SKIP_DISPATCH_FULL)
                else:
                    # Head would dispatch.
                    return _VETOES[VETO_DISPATCH_READY]
        # -- fetch ------------------------------------------------------
        if not self.fetch_halted:
            if cycle < self.fetch_stall_until:
                wake = min(wake, self.fetch_stall_until)
                classes.add(SKIP_FETCH_STALL)
            elif len(self.fetch_queue) < 2 * self._fetch_width:
                pc = self.fetch_pc
                if pc < 0 or pc >= len(self.program.instrs):
                    bumps.append(self._h_fetch_off_end)
                    classes.add(SKIP_FETCH_STALL)
                else:
                    addr = pc * INST_BYTES
                    if self.hierarchy.ifetch_would_hit(
                            addr, self._fetch_ts()):
                        # Would fetch this cycle.
                        return _VETOES[VETO_FETCH_READY]
                    req = self.pending_ifetch
                    if req is None:
                        # Dense would re-issue the ifetch each cycle;
                        # skippable iff that is a provable MSHR-
                        # backpressure retry.
                        proof = self.hierarchy.ifetch_block_proof(
                            addr, self._fetch_ts(), cycle)
                        if proof is None:
                            return _VETOES[VETO_FETCH_READY]
                        wake = min(wake, proof.wake)
                        bumps.extend(proof.bumps)
                        replays.extend(proof.replays)
                        classes.add(SKIP_MSHR_BACKPRESSURE)
                    elif req.line != (addr >> 6):
                        # Would issue a fresh ifetch (and drop the old
                        # pending request): step densely.
                        return _VETOES[VETO_FETCH_READY]
                    elif req.state is not ReqState.READY:
                        # Replayed: would reissue.
                        return _VETOES[VETO_FETCH_READY]
                    elif req.ready_cycle <= cycle:
                        # Fill dropped: would reissue.
                        return _VETOES[VETO_FETCH_READY]
                    else:
                        wake = min(wake, req.ready_cycle)
                        classes.add(SKIP_FETCH_STALL)
        return StallProof(wake, bumps, replays, classes)
