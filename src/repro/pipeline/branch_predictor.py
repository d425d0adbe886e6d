"""Tournament branch predictor, BTB and RAS (Table 1).

The tournament predictor follows the classic Alpha-21264 shape: a local
predictor (per-PC history indexing a pattern table), a global predictor
(global history register XOR PC), and a choice table selecting between
them.  All counters are 2-bit saturating.

Speculative state handling: the global history register is updated
speculatively at predict time and *checkpointed*; the core restores it
(and the RAS) on a squash.  Counter tables are updated either at
resolution (unsafe baseline) or at commit (GhostMinion's
non-speculative-soft-state rule, §4.9), selected by the defense.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.stats import Stats
from repro.config import PredictorConfig
from repro.registry import Registry


def _saturate(counter: int, taken: bool) -> int:
    if taken:
        return min(3, counter + 1)
    return max(0, counter - 1)


class TournamentPredictor:
    """2-bit local/global/choice tournament predictor."""

    GHR_BITS = 13
    LOCAL_HIST_BITS = 11

    def __init__(self, cfg: Optional[PredictorConfig] = None,
                 stats: Optional[Stats] = None) -> None:
        cfg = cfg if cfg is not None else PredictorConfig()
        self.cfg = cfg
        self.stats = stats if stats is not None else Stats()
        self._counts = self.stats._values
        self.local_hist = [0] * cfg.local_entries
        self.local_pht = [1] * cfg.local_entries
        self.global_pht = [1] * cfg.global_entries
        self.choice_pht = [1] * cfg.choice_entries
        self.ghr = 0
        self._h_lookups = self.stats.handle("bp.lookups")

    # -- prediction --------------------------------------------------------

    def predict(self, pc: int) -> Tuple[bool, int]:
        """Predict a conditional branch at ``pc``.

        Returns ``(taken, ghr_checkpoint)``; the checkpoint must be kept
        by the core and passed back on squash-restore.  The GHR is
        speculatively updated with the prediction.
        """
        self._counts[self._h_lookups] += 1
        checkpoint = self.ghr
        taken = self._direction(pc)
        self.ghr = ((self.ghr << 1) | (1 if taken else 0)) & (
            (1 << self.GHR_BITS) - 1)
        return taken, checkpoint

    def _direction(self, pc: int) -> bool:
        local_idx = pc % self.cfg.local_entries
        # pshare-style pattern indexing (history XOR pc): avoids the
        # cross-branch PHT aliasing a pure history index suffers.
        local_pattern = (self.local_hist[local_idx] ^ pc) \
            % self.cfg.local_entries
        local_taken = self.local_pht[local_pattern] >= 2
        global_idx = (self.ghr ^ pc) % self.cfg.global_entries
        global_taken = self.global_pht[global_idx] >= 2
        use_global = self.choice_pht[pc % self.cfg.choice_entries] >= 2
        return global_taken if use_global else local_taken

    # -- training ------------------------------------------------------------

    def update(self, pc: int, taken: bool, ghr_at_predict: int) -> None:
        """Train all tables with the actual outcome.

        ``ghr_at_predict`` is the checkpoint captured by :meth:`predict`
        so the global table trains against the history it predicted with.
        """
        local_idx = pc % self.cfg.local_entries
        local_pattern = (self.local_hist[local_idx] ^ pc) \
            % self.cfg.local_entries
        global_idx = (ghr_at_predict ^ pc) % self.cfg.global_entries
        local_taken = self.local_pht[local_pattern] >= 2
        global_taken = self.global_pht[global_idx] >= 2
        if local_taken != global_taken:
            choice_idx = pc % self.cfg.choice_entries
            self.choice_pht[choice_idx] = _saturate(
                self.choice_pht[choice_idx], global_taken == taken)
        self.local_pht[local_pattern] = _saturate(
            self.local_pht[local_pattern], taken)
        self.global_pht[global_idx] = _saturate(
            self.global_pht[global_idx], taken)
        self.local_hist[local_idx] = (
            (self.local_hist[local_idx] << 1) | (1 if taken else 0)
        ) & ((1 << self.LOCAL_HIST_BITS) - 1)

    def restore_ghr(self, checkpoint: int, actual_taken: bool) -> None:
        """Squash recovery: rebuild the GHR from the checkpoint plus the
        branch's real outcome."""
        self.ghr = ((checkpoint << 1) | (1 if actual_taken else 0)) & (
            (1 << self.GHR_BITS) - 1)


class BimodalPredictor:
    """Per-PC 2-bit bimodal predictor (no history).

    A deliberately simple alternative to the tournament predictor,
    swappable from a config variant (``core.predictor.kind=bimodal``)
    to quantify how much of a defense's overhead rides on prediction
    accuracy.  Speaks the same protocol: ``predict`` returns a
    checkpoint (always 0 — there is no global history to restore) and
    ``update``/``restore_ghr`` mirror the tournament signatures.
    """

    def __init__(self, cfg: Optional[PredictorConfig] = None,
                 stats: Optional[Stats] = None) -> None:
        cfg = cfg if cfg is not None else PredictorConfig()
        self.cfg = cfg
        self.stats = stats if stats is not None else Stats()
        self._counts = self.stats._values
        self.pht = [1] * cfg.local_entries
        self._h_lookups = self.stats.handle("bp.lookups")

    def predict(self, pc: int) -> Tuple[bool, int]:
        self._counts[self._h_lookups] += 1
        return self.pht[pc % self.cfg.local_entries] >= 2, 0

    def update(self, pc: int, taken: bool, ghr_at_predict: int) -> None:
        idx = pc % self.cfg.local_entries
        self.pht[idx] = _saturate(self.pht[idx], taken)

    def restore_ghr(self, checkpoint: int, actual_taken: bool) -> None:
        pass  # no speculative history state


class AlwaysTakenPredictor:
    """Static always-taken prediction (the no-hardware floor)."""

    def __init__(self, cfg: Optional[PredictorConfig] = None,
                 stats: Optional[Stats] = None) -> None:
        self.stats = stats if stats is not None else Stats()
        self._counts = self.stats._values
        self._h_lookups = self.stats.handle("bp.lookups")

    def predict(self, pc: int) -> Tuple[bool, int]:
        self._counts[self._h_lookups] += 1
        return True, 0

    def update(self, pc: int, taken: bool, ghr_at_predict: int) -> None:
        pass

    def restore_ghr(self, checkpoint: int, actual_taken: bool) -> None:
        pass


#: The ``predictor`` component registry; ``core.predictor.kind`` names
#: an entry (optionally a spec string), so config variants can swap
#: implementations per sweep point.
PREDICTORS: Registry[object] = Registry("predictor")

PREDICTORS.add("tournament", TournamentPredictor, tags=("builtin",),
               summary="Alpha-21264-style local/global/choice "
                       "tournament predictor (Table 1 default).")
PREDICTORS.add("bimodal", BimodalPredictor, tags=("builtin",))
PREDICTORS.add("always_taken", AlwaysTakenPredictor, tags=("builtin",))


def make_predictor(cfg: PredictorConfig, stats: Stats):
    """Construct the predictor ``cfg.kind`` names (a registry spec
    string), sized by ``cfg`` and reporting into ``stats``."""
    return PREDICTORS.create(cfg.kind, cfg=cfg, stats=stats)


class BranchTargetBuffer:
    """Direct-mapped PC -> target store for indirect branches."""

    def __init__(self, entries: int = 4096, stats: Optional[Stats] = None
                 ) -> None:
        self.entries = entries
        self.stats = stats if stats is not None else Stats()
        self._counts = self.stats._values
        self._tags: List[Optional[int]] = [None] * entries
        self._targets: List[int] = [0] * entries
        self._h_hits = self.stats.handle("btb.hits")
        self._h_misses = self.stats.handle("btb.misses")

    def predict(self, pc: int) -> Optional[int]:
        idx = pc % self.entries
        if self._tags[idx] == pc:
            self._counts[self._h_hits] += 1
            return self._targets[idx]
        self._counts[self._h_misses] += 1
        return None

    def update(self, pc: int, target: int) -> None:
        idx = pc % self.entries
        self._tags[idx] = pc
        self._targets[idx] = target


class ReturnAddressStack:
    """Bounded return-address stack with checkpoint/restore.

    ``checkpoint``/``restore`` are the core's per-branch squash recovery
    protocol, not a save/restore of the machine.
    """

    def __init__(self, entries: int = 16) -> None:
        self.entries = entries
        self._stack: List[int] = []

    def push(self, return_pc: int) -> None:
        if len(self._stack) >= self.entries:
            self._stack.pop(0)
        self._stack.append(return_pc)

    def pop(self) -> Optional[int]:
        if self._stack:
            return self._stack.pop()
        return None

    def checkpoint(self) -> List[int]:
        return list(self._stack)

    def restore(self, checkpoint: List[int]) -> None:
        self._stack = list(checkpoint)

    def __len__(self) -> int:
        return len(self._stack)
