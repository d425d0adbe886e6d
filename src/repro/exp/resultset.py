"""Result containers for the experiment engine.

A :class:`PointResult` is the JSON-able summary of one simulation — the
cycles/stats payload every figure and table is computed from, minus the
(unpicklable, multi-megabyte) live ``Core`` objects.  A
:class:`ResultSet` is an ordered key -> PointResult map with canonical
JSON (de)serialization: the same sweep always serializes to the same
bytes, which is what the determinism tests and the on-disk cache rely
on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.analysis.stats import Stats
from repro.sim.simulator import RunResult

#: Serialization format version (bumped with the PointResult schema).
RESULT_FORMAT = 1


@dataclass
class PointResult:
    """Summary of one executed sweep point."""

    key: str
    workload: str
    defense: str
    variant: str
    scale: float
    digest: str
    cycles: int
    insts: int
    finished: bool
    stats: Dict[str, float] = field(default_factory=dict)
    #: True when this result came from the on-disk cache (runtime
    #: metadata: excluded from the canonical JSON form).
    cached: bool = False
    #: Wall-clock seconds this point's simulation took in this process
    #: (0.0 for cache hits).  Runtime metadata, like ``cached``: never
    #: serialized, so canonical JSON stays machine-independent.
    wall_seconds: float = 0.0
    #: Cycles the event-driven scheduler fast-forwarded for this point.
    #: Runtime metadata (scheduler telemetry), excluded from JSON so
    #: dense-loop and event-driven runs stay byte-identical.
    skipped_cycles: int = 0
    #: Skipped cycles per stall class (see
    #: :data:`repro.pipeline.core.SKIP_CLASSES`; a window counts toward
    #: every class active in it, so values can sum past
    #: ``skipped_cycles``).  Runtime metadata, like ``skipped_cycles``.
    skipped_by_class: Dict[str, int] = field(default_factory=dict)
    #: Cycle-domain metrics series sampled during a traced run (the
    #: ``series()`` dict of :class:`repro.obs.metrics.MetricsSampler`),
    #: or None when the point ran untraced.  Runtime metadata: tracing
    #: must never change the canonical JSON, so this is excluded from
    #: :meth:`to_json_dict` like the other telemetry fields.
    metrics: Optional[Dict[str, object]] = None
    #: Trace files written for this point (``export_traces`` output),
    #: empty when untraced.  Runtime metadata, like ``metrics``.
    trace_paths: List[str] = field(default_factory=list)
    #: SHA-256 over the final architectural registers of every core
    #: (None for cache hits, which carry no live cores).  Runtime
    #: metadata consumed by the differential fuzz oracles (``repro
    #: fuzz``); excluded from the canonical JSON so the v1 result
    #: schema and cache payloads are untouched.
    regs_digest: Optional[str] = None

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.insts / self.cycles

    def to_json_dict(self) -> Dict[str, object]:
        """Canonical JSON form (no runtime metadata)."""
        return {
            "key": self.key,
            "workload": self.workload,
            "defense": self.defense,
            "variant": self.variant,
            "scale": self.scale,
            "digest": self.digest,
            "cycles": self.cycles,
            "insts": self.insts,
            "finished": self.finished,
            "stats": {name: self.stats[name]
                      for name in sorted(self.stats)},
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, object],
                       cached: bool = False) -> "PointResult":
        return cls(
            key=payload["key"],
            workload=payload["workload"],
            defense=payload["defense"],
            variant=payload["variant"],
            scale=payload["scale"],
            digest=payload["digest"],
            cycles=payload["cycles"],
            insts=payload["insts"],
            finished=payload["finished"],
            stats=dict(payload["stats"]),
            cached=cached,
        )

    def as_run_result(self) -> RunResult:
        """Rehydrate the :class:`RunResult` shape consumers expect.

        ``cores`` is empty: summaries do not carry live pipeline state
        (use :func:`repro.sim.runner.run_program` directly when you need
        architectural registers).
        """
        return RunResult(cycles=self.cycles,
                         stats=Stats.from_dict(self.stats),
                         finished=self.finished, cores=[])


@dataclass
class ResultSet:
    """Ordered collection of point results with stable keys."""

    points: Dict[str, PointResult] = field(default_factory=dict)

    def add(self, result: PointResult) -> None:
        if result.key in self.points:
            raise KeyError("duplicate result key %r" % result.key)
        self.points[result.key] = result

    def get(self, key: str) -> PointResult:
        return self.points[key]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[PointResult]:
        return iter(self.points.values())

    def __contains__(self, key: str) -> bool:
        return key in self.points

    def keys(self) -> List[str]:
        return list(self.points)

    def cache_hits(self) -> int:
        return sum(1 for result in self if result.cached)

    # -- shape adapters ----------------------------------------------------

    def by_workload(self) -> Dict[str, Dict[str, PointResult]]:
        """``{workload: {defense or defense/variant: PointResult}}``.

        Points at the base variant key by defense name alone (the
        pre-engine ``compare_defenses`` shape); non-base variants key by
        ``defense@variant``.
        """
        table: Dict[str, Dict[str, PointResult]] = {}
        for result in self:
            row = table.setdefault(result.workload, {})
            name = (result.defense if result.variant == "base"
                    else "%s@%s" % (result.defense, result.variant))
            row[name] = result
        return table

    def as_run_results(self) -> Dict[str, Dict[str, RunResult]]:
        """The legacy ``compare_defenses`` return shape."""
        return {
            workload: {name: point.as_run_result()
                       for name, point in row.items()}
            for workload, row in self.by_workload().items()
        }

    # -- serialization -----------------------------------------------------

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON: same sweep -> byte-identical output."""
        payload = {
            "format": RESULT_FORMAT,
            "points": [result.to_json_dict() for result in self],
        }
        return json.dumps(payload, sort_keys=True, indent=indent,
                          separators=None if indent else (",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        payload = json.loads(text)
        if payload.get("format") != RESULT_FORMAT:
            raise ValueError("unsupported result format %r"
                             % payload.get("format"))
        rs = cls()
        for entry in payload["points"]:
            rs.add(PointResult.from_json_dict(entry))
        return rs
