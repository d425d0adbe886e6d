"""System configuration, mirroring Table 1 of the paper.

Every structure in the simulated machine is sized by a dataclass here, so
experiments (e.g. the fig. 11 GhostMinion size sweep) are expressed as
config edits rather than code edits.

The dataclasses are also the one config schema.  A *leaf* is a
``bool``, ``int`` or ``str`` field reached from :class:`SystemConfig`,
named by its dotted path (``minion_d.size_bytes``).  :func:`leaf` gives
it ``dataclasses.field`` metadata:

* ``min``: the smallest value :meth:`Section.validate` accepts.  Every
  ``int`` leaf has one: 1 for sizes, counts, ways and cache latencies,
  0 where zero is meaningful (a DRAM latency, a shift width).
* ``since``: the cache-token version that added the leaf.  Unmarked
  leaves are v1, exactly the golden token's config keys
  (``tests/test_registry.py``).  Point digests drop a ``since`` leaf
  while it holds its Table 1 default, and the fuzz grammar must give it
  a ``BOUNDS`` menu.

Validation, copying, digest stripping (:mod:`repro.exp.spec`) and the
fuzz coverage rule (:func:`repro.fuzz.grammar.check_bounds_table`) all
read these facts from the annotated fields and :func:`config_leaves`.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from dataclasses import dataclass, field
from typing import Optional, Tuple

LINE_BYTES = 64
WORD_BYTES = 8
WORDS_PER_LINE = LINE_BYTES // WORD_BYTES
INST_BYTES = 4
INSTS_PER_LINE = LINE_BYTES // INST_BYTES


def line_of(addr: int) -> int:
    """Cache-line number containing byte address ``addr``."""
    return addr >> 6


def leaf(default: object = dataclasses.MISSING, *,
         min: Optional[int] = None, since: Optional[int] = None):
    """A config leaf field carrying its schema metadata (see the module
    docstring)."""
    metadata = {key: value for key, value in (("min", min),
                                              ("since", since))
                if value is not None}
    return field(default=default, metadata=metadata)


class Section:
    """Base of the config dataclasses: validation and copying walk the
    annotated fields, so no section lists its own fields by hand."""

    def validate(self, path: str = "") -> None:
        """Raise ``ValueError`` unless every field has exactly its
        annotated type (so an ``int`` leaf takes no ``bool``) and its
        ``min`` bound, then check the cross-field rules.  ``path``
        prefixes the dotted field names in error messages."""
        for name, kind, metadata in _schema(type(self)):
            value = getattr(self, name)
            where = path + name
            if issubclass(kind, Section):
                if not isinstance(value, kind):
                    raise ValueError("%s must be a %s section, not a "
                                     "value (got %r)"
                                     % (where, kind.__name__, value))
                value.validate(where + ".")
                continue
            lower = metadata.get("min")
            if type(value) is not kind \
                    or (lower is not None and value < lower):
                wanted = {bool: "true or false", str: "a string"}.get(
                    kind, "an integer >= %s" % lower)
                raise ValueError("%s must be %s (got %r)"
                                 % (where, wanted, value))
        self._check_geometry(path)

    def _check_geometry(self, path: str) -> None:
        """Cross-field rules, run after every field is well-typed."""

    def copy(self):
        """Deep copy, for experiments that mutate the config."""
        return dataclasses.replace(self, **{
            name: getattr(self, name).copy()
            for name, _, _ in _schema(type(self))
            if isinstance(getattr(self, name), Section)})


def _check_line_bytes(section: Section, path: str) -> None:
    """``line_bytes`` is a leaf for the record only: addresses map by
    :data:`LINE_BYTES`-byte lines everywhere (:func:`line_of`, DRAM
    rows), so any other value would only rescale the line count, a
    hidden capacity knob."""
    if section.line_bytes != LINE_BYTES:
        raise ValueError("%sline_bytes: the simulator models %d-byte "
                         "lines only (got %r)"
                         % (path, LINE_BYTES, section.line_bytes))


@functools.lru_cache(maxsize=None)
def _schema(cls: type) -> Tuple[Tuple[str, type, object], ...]:
    """``(name, annotated type, metadata)`` of each field of ``cls``."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.metadata)
                 for f in dataclasses.fields(cls))


@dataclass
class CacheConfig(Section):
    """Geometry and timing of one cache level."""

    size_bytes: int = leaf(min=1)
    assoc: int = leaf(min=1)
    latency: int = leaf(min=1)
    mshrs: int = leaf(min=1)
    line_bytes: int = leaf(LINE_BYTES, min=1)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return max(1, self.num_lines // self.assoc)

    def _check_geometry(self, path: str) -> None:
        _check_line_bytes(self, path)
        if self.size_bytes % self.line_bytes:
            raise ValueError("%ssize_bytes: cache size must be a line "
                             "multiple" % path)
        if self.num_lines < self.assoc:
            raise ValueError("%ssize_bytes: cache smaller than one set"
                             % path)


@dataclass
class MinionConfig(Section):
    """GhostMinion compartment configuration (one per L1, section 4.2)."""

    size_bytes: int = leaf(2048, min=1)
    assoc: int = leaf(2, min=1)
    async_reload: bool = False
    # Feature flags for the fig. 9 breakdown.
    timeless: bool = False  # DMinion-Timeless: wipe-on-squash only.
    line_bytes: int = leaf(LINE_BYTES, min=1)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return max(1, self.num_lines // self.assoc)

    def _check_geometry(self, path: str) -> None:
        _check_line_bytes(self, path)
        if self.size_bytes % self.line_bytes:
            raise ValueError("%ssize_bytes: minion size must be a line "
                             "multiple" % path)
        if self.num_lines < 1:
            raise ValueError("%ssize_bytes: minion must hold at least "
                             "one line" % path)


@dataclass
class PredictorConfig(Section):
    """Branch predictor selection + sizing (Table 1).

    ``kind`` names an entry of the ``predictor`` component registry
    (:mod:`repro.pipeline.branch_predictor`), so a config variant can
    swap the implementation (``core.predictor.kind=bimodal``) without
    code edits.  It was added after the v1 cache token, so points using
    the default digest as if the field did not exist.
    """

    kind: str = leaf("tournament", since=2)
    local_entries: int = leaf(2048, min=1)
    global_entries: int = leaf(8192, min=1)
    choice_entries: int = leaf(8192, min=1)
    btb_entries: int = leaf(4096, min=1)
    ras_entries: int = leaf(16, min=1)


@dataclass
class CoreConfig(Section):
    """Out-of-order core sizing (Table 1)."""

    fetch_width: int = leaf(8, min=1)
    issue_width: int = leaf(8, min=1)
    commit_width: int = leaf(8, min=1)
    rob_entries: int = leaf(192, min=1)
    iq_entries: int = leaf(64, min=1)
    lq_entries: int = leaf(32, min=1)
    sq_entries: int = leaf(32, min=1)
    int_alus: int = leaf(6, min=1)
    fp_alus: int = leaf(4, min=1)
    muldiv_units: int = leaf(2, min=1)
    mispredict_penalty: int = leaf(8, min=0)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    # Section 4.9: issue non-pipelined FU ops in timestamp order.
    strict_fu_order: bool = False


@dataclass
class DRAMConfig(Section):
    """Simple DRAM timing with an open-page row buffer."""

    base_latency: int = leaf(80, min=0)
    row_hit_latency: int = leaf(40, min=0)
    # lines per row = 2**row_bits / line (see dram.py)
    row_bits: int = leaf(12, min=0)
    banks: int = leaf(8, min=1)
    open_page: bool = True
    # Section 4.9 DRAM mitigation: only non-speculative accesses may leave
    # a row open.
    nonspec_open_only: bool = False


@dataclass
class TLBConfig(Section):
    """Two-level TLB + page-walk timing (§4.9 address translation)."""

    l1_entries: int = leaf(64, min=1)
    l1_assoc: int = leaf(4, min=1)
    l2_entries: int = leaf(1024, min=1)
    l2_assoc: int = leaf(8, min=1)
    l2_latency: int = leaf(8, min=0)
    walk_latency: int = leaf(40, min=0)
    page_bits: int = leaf(12, min=0)
    minion_entries: int = leaf(16, min=1)
    minion_assoc: int = leaf(2, min=1)


@dataclass
class SystemConfig(Section):
    """Whole-machine configuration (Table 1 defaults)."""

    cores: int = leaf(1, min=1)
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
    prefetcher_rpt_entries: int = leaf(64, min=1)
    #: model address translation (off by default: the paper's figures do
    #: not include TLB effects; the TLB ablation bench enables it).
    model_tlb: bool = False
    tlb: TLBConfig = field(default_factory=TLBConfig)
    #: §4.7: fetch-directed instruction prefetching into the I-Minion.
    iprefetch_into_minion: bool = False
    #: §4.9: partition shared-L2 MSHRs per core (cross-thread transient
    #: contention mitigation via macro-level allocation).
    l2_mshr_partitioning: bool = False


@dataclass(frozen=True)
class Leaf:
    """One config leaf and its schema facts."""

    path: str
    type: type
    #: The leaf's value in the Table 1 machine.
    default: object
    min: Optional[int] = None
    since: int = 1


@functools.lru_cache(maxsize=None)
def config_leaves() -> Tuple[Leaf, ...]:
    """Every leaf of :class:`SystemConfig`, in field order."""
    leaves = []

    def walk(section: Section, prefix: str) -> None:
        for name, kind, metadata in _schema(type(section)):
            value = getattr(section, name)
            if issubclass(kind, Section):
                walk(value, prefix + name + ".")
            else:
                leaves.append(Leaf(prefix + name, kind, value,
                                   metadata.get("min"),
                                   metadata.get("since", 1)))

    walk(SystemConfig(), "")
    return tuple(leaves)


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
