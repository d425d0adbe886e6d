"""System configuration, mirroring Table 1 of the paper.

Every structure in the simulated machine is sized by a dataclass here, so
experiments (e.g. the fig. 11 GhostMinion size sweep) are expressed as
config edits rather than code edits.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

LINE_BYTES = 64
WORD_BYTES = 8
WORDS_PER_LINE = LINE_BYTES // WORD_BYTES
INST_BYTES = 4
INSTS_PER_LINE = LINE_BYTES // INST_BYTES


def line_of(addr: int) -> int:
    """Cache-line number containing byte address ``addr``."""
    return addr >> 6


def _require_counts(section: str, obj: object, names: "tuple[str, ...]"
                    ) -> None:
    """Raise ``ValueError`` unless every field in ``names`` is a plain
    ``int`` (not a ``bool``) of at least 1."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < 1:
            raise ValueError("%s.%s must be an integer >= 1 (got %r)"
                             % (section, name, value))


@dataclass
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int
    assoc: int
    latency: int
    mshrs: int
    line_bytes: int = LINE_BYTES

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return max(1, self.num_lines // self.assoc)

    def validate(self) -> None:
        if self.size_bytes % self.line_bytes:
            raise ValueError("cache size must be a line multiple")
        if self.num_lines < self.assoc:
            raise ValueError("cache smaller than one set")
        if self.latency < 1:
            raise ValueError("latency must be at least one cycle")
        if self.mshrs < 1:
            raise ValueError("need at least one MSHR")


@dataclass
class MinionConfig:
    """GhostMinion compartment configuration (one per L1, section 4.2)."""

    size_bytes: int = 2048
    assoc: int = 2
    async_reload: bool = False
    # Feature flags for the fig. 9 breakdown.
    timeless: bool = False  # DMinion-Timeless: wipe-on-squash only.
    line_bytes: int = LINE_BYTES

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return max(1, self.num_lines // self.assoc)

    def validate(self) -> None:
        if self.size_bytes % self.line_bytes:
            raise ValueError("minion size must be a line multiple")
        if self.num_lines < 1:
            raise ValueError("minion must hold at least one line")


@dataclass
class PredictorConfig:
    """Branch predictor selection + sizing (Table 1).

    ``kind`` names an entry of the ``predictor`` component registry
    (:mod:`repro.pipeline.branch_predictor`), so a config variant can
    swap the implementation (``core.predictor.kind=bimodal``) without
    code edits.  The default is part of cache-digest stability: points
    using it digest as if the field did not exist (see
    ``repro.exp.spec``).
    """

    kind: str = "tournament"
    local_entries: int = 2048
    global_entries: int = 8192
    choice_entries: int = 8192
    btb_entries: int = 4096
    ras_entries: int = 16


@dataclass
class CoreConfig:
    """Out-of-order core sizing (Table 1)."""

    fetch_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    rob_entries: int = 192
    iq_entries: int = 64
    lq_entries: int = 32
    sq_entries: int = 32
    int_alus: int = 6
    fp_alus: int = 4
    muldiv_units: int = 2
    mispredict_penalty: int = 8
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    # Section 4.9: issue non-pipelined FU ops in timestamp order.
    strict_fu_order: bool = False

    def validate(self) -> None:
        _require_counts("core", self, (
            "fetch_width", "issue_width", "commit_width", "rob_entries",
            "iq_entries", "lq_entries", "sq_entries", "int_alus",
            "fp_alus", "muldiv_units"))


@dataclass
class DRAMConfig:
    """Simple DRAM timing with an open-page row buffer."""

    base_latency: int = 80
    row_hit_latency: int = 40
    row_bits: int = 12  # lines per row = 2**row_bits / line (see dram.py)
    banks: int = 8
    open_page: bool = True
    # Section 4.9 DRAM mitigation: only non-speculative accesses may leave
    # a row open.
    nonspec_open_only: bool = False

    def validate(self) -> None:
        _require_counts("dram", self, ("banks",))


@dataclass
class TLBConfig:
    """Two-level TLB + page-walk timing (§4.9 address translation)."""

    l1_entries: int = 64
    l1_assoc: int = 4
    l2_entries: int = 1024
    l2_assoc: int = 8
    l2_latency: int = 8
    walk_latency: int = 40
    page_bits: int = 12
    minion_entries: int = 16
    minion_assoc: int = 2


@dataclass
class SystemConfig:
    """Whole-machine configuration (Table 1 defaults)."""

    cores: int = 1
    core: CoreConfig = field(default_factory=CoreConfig)
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 2, 2, 4))
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 2, 2, 4))
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(2 * 1024 * 1024, 8, 20, 20))
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    minion_d: MinionConfig = field(default_factory=MinionConfig)
    minion_i: MinionConfig = field(default_factory=MinionConfig)
    l2_prefetcher: bool = True
    prefetcher_rpt_entries: int = 64
    #: model address translation (off by default: the paper's figures do
    #: not include TLB effects; the TLB ablation bench enables it).
    model_tlb: bool = False
    tlb: TLBConfig = field(default_factory=TLBConfig)
    #: §4.7: fetch-directed instruction prefetching into the I-Minion.
    iprefetch_into_minion: bool = False
    #: §4.9: partition shared-L2 MSHRs per core (cross-thread transient
    #: contention mitigation via macro-level allocation).
    l2_mshr_partitioning: bool = False

    def validate(self) -> None:
        if self.cores < 1:
            raise ValueError("need at least one core")
        self.core.validate()
        self.dram.validate()
        for cache in (self.l1i, self.l1d, self.l2):
            cache.validate()
        self.minion_d.validate()
        self.minion_i.validate()

    def copy(self) -> "SystemConfig":
        """Deep copy, for experiments that mutate the config."""
        return dataclasses.replace(
            self,
            core=dataclasses.replace(
                self.core,
                predictor=dataclasses.replace(self.core.predictor)),
            l1i=dataclasses.replace(self.l1i),
            l1d=dataclasses.replace(self.l1d),
            l2=dataclasses.replace(self.l2),
            dram=dataclasses.replace(self.dram),
            minion_d=dataclasses.replace(self.minion_d),
            minion_i=dataclasses.replace(self.minion_i),
            tlb=dataclasses.replace(self.tlb),
        )


def default_config(cores: int = 1) -> SystemConfig:
    """The paper's Table 1 machine with ``cores`` cores."""
    cfg = SystemConfig(cores=cores)
    cfg.validate()
    return cfg


def table1_rows() -> "list[tuple[str, str]]":
    """Human-readable rows of Table 1, regenerated from the live config."""
    cfg = default_config()
    pred = cfg.core.predictor
    return [
        ("Core", "%d-Core, %d-Wide, Out-of-order" %
         (cfg.cores, cfg.core.fetch_width)),
        ("Pipeline",
         "%d-Entry ROB, %d-entry IQ, %d-entry LQ, %d-entry SQ, "
         "%d Int ALUs, %d FP ALUs, %d Mult/Div ALU" %
         (cfg.core.rob_entries, cfg.core.iq_entries, cfg.core.lq_entries,
          cfg.core.sq_entries, cfg.core.int_alus, cfg.core.fp_alus,
          cfg.core.muldiv_units)),
        ("Tournament Predictor",
         "2-bit, %d-entry local, %d global, %d choice, %d BTB, %d RAS" %
         (pred.local_entries, pred.global_entries, pred.choice_entries,
          pred.btb_entries, pred.ras_entries)),
        ("L1 ICache", "%dKiB, %d-way, %d-cycle latency, %d MSHRs" %
         (cfg.l1i.size_bytes // 1024, cfg.l1i.assoc, cfg.l1i.latency,
          cfg.l1i.mshrs)),
        ("L1 DCache", "%dKiB, %d-way, %d-cycle latency, %d MSHRs" %
         (cfg.l1d.size_bytes // 1024, cfg.l1d.assoc, cfg.l1d.latency,
          cfg.l1d.mshrs)),
        ("D/I GhostMinions", "%dKiB, %d-way, accessed with I/D cache" %
         (cfg.minion_d.size_bytes // 1024, cfg.minion_d.assoc)),
        ("L2 Cache",
         "%dMiB, shared, %d-way, %d-cycle latency, %d MSHRs, "
         "stride prefetcher (%d-entry RPT)" %
         (cfg.l2.size_bytes // (1024 * 1024), cfg.l2.assoc, cfg.l2.latency,
          cfg.l2.mshrs, cfg.prefetcher_rpt_entries)),
        ("Memory", "DDR3-1600-like, %d-cycle row miss / %d-cycle row hit" %
         (cfg.dram.base_latency, cfg.dram.row_hit_latency)),
    ]
