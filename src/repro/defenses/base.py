"""Defense description consumed by the core and the simulator.

A defense is (a) a per-core hierarchy class and (b) a handful of
core-side policy knobs.  Keeping the knobs declarative lets one core
implementation host every scheme:

``taint_mode``
    STT: ``'spectre'`` delays tainted-address loads until every branch
    older than the *source* load resolves; ``'future'`` until the source
    load commits.
``validation_mode``
    InvisiSpec: when invisible loads must validate — ``'spectre'`` once
    older branches resolve, ``'future'`` at the commit point.  Commit
    blocks until validation completes.
``strict_fu_order``
    Section 4.9: non-pipelined FU ops issue in timestamp order.
``train_predictor_at_commit``
    Strictness Order for predictor soft state (§4.9 "other soft state"):
    update the branch predictor only with committed outcomes.
``early_commit``
    §4.10's Early Commit optimisation: promote loads at branch
    resolution rather than retirement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Type

from repro.memory.hierarchy import BaseHierarchy, SharedMemory
from repro.analysis.stats import Stats
from repro.config import SystemConfig

#: The values ``taint_mode`` and ``validation_mode`` accept.
POLICY_MODES = ("none", "spectre", "future")


@dataclass
class Defense:
    """A named protection scheme."""

    name: str
    hierarchy_cls: Type[BaseHierarchy] = BaseHierarchy
    hierarchy_kwargs: Dict[str, Any] = field(default_factory=dict)
    taint_mode: str = "none"          # 'none' | 'spectre' | 'future'
    validation_mode: str = "none"     # 'none' | 'spectre' | 'future'
    strict_fu_order: bool = False
    train_predictor_at_commit: bool = False
    #: §4.10 Early Commit: treat a load as non-speculative once every
    #: older branch has resolved (InvisiSpec-Spectre-style visibility),
    #: moving its Minion line to the L1 before retirement.  Trades the
    #: inherent exception-attack protection for performance.
    early_commit: bool = False
    #: §4.10 Full Strictness Order: assign a new timestamp per
    #: speculatively predicted branch instead of per instruction, so
    #: instructions within a speculation epoch may freely exchange
    #: timing (their fates are tied).
    epoch_timestamps: bool = False
    #: The normalized spec string this defense was constructed from,
    #: set by the registry for *parameterized* constructions only
    #: (``"MuonTrap(flush=True)"``).  Folded into cache digests so two
    #: spellings of one parameterization share results; ``None`` for
    #: plain-name constructions, whose digests therefore stay identical
    #: to the pre-registry engine.
    spec: Optional[str] = None

    def build_hierarchy(self, core_id: int, cfg: SystemConfig,
                        shared: SharedMemory, stats: Stats
                        ) -> BaseHierarchy:
        return self.hierarchy_cls(core_id, cfg, shared, stats,
                                  **self.hierarchy_kwargs)

    def __post_init__(self) -> None:
        if self.taint_mode not in POLICY_MODES:
            raise ValueError("bad taint_mode %r" % self.taint_mode)
        if self.validation_mode not in POLICY_MODES:
            raise ValueError(
                "bad validation_mode %r" % self.validation_mode)
