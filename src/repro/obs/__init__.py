"""Run-scoped observability: structured tracing + cycle-domain metrics.

The simulator core carries dormant hooks — a single ``_obs``-is-not-None
attribute check on every hot path, enforced by the ``obs-guards`` lint
checker — that light up when a :class:`~repro.obs.trace.Tracer` is
attached via ``Simulator.attach_obs``.  Three pillars:

* **event tracing** (:mod:`repro.obs.trace`): typed trace events for
  pipeline stages, squashes, MSHR allocate/fill, cache miss/evict,
  scheduler skip windows (with their proof classes) and run-begin/
  run-end markers.  Event-driven runs produce gapless
  timelines because every emit carries the true cycle.
* **cycle-domain metrics** (:mod:`repro.obs.metrics`): periodic
  sampling of registered probes (IPC, ROB/MSHR occupancy, cache
  misses, skip fraction) into a time series at a configurable cycle
  interval, skip-window aware.
* **export + query** (:mod:`repro.obs.sinks`, :mod:`repro.obs.runlog`):
  a ``sink`` component registry (``repro list sinks``) with builtin
  Chrome trace-event / Perfetto JSON, JSONL and timeline sinks, plus a
  schema-versioned JSONL run log for engine summaries.

Tracing never mutates simulated state: a traced run is byte-identical
to an untraced one in cycles, stats and digests (pinned by
``tests/test_scheduler_equivalence.py``).  See ``docs/observability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.obs.metrics import MetricsSampler, default_probes
from repro.obs.runlog import RUNLOG_SCHEMA_VERSION, RunLog
from repro.obs.trace import (
    TraceEvent,
    Tracer,
    build_inst_records,
)


@dataclass(frozen=True)
class ObsConfig:
    """Picklable tracing request threaded through the engine.

    ``sinks`` are sink spec strings (``"perfetto"``,
    ``"jsonl(events=False)"``); ``out`` is a file path for a single
    traced point or a directory for multi-point sweeps;
    ``metrics_interval`` of 0 disables the sampler; ``limit`` caps the
    in-memory event buffer (excess events are counted, not stored).
    """

    sinks: Tuple[str, ...] = ("perfetto",)
    out: str = "trace.json"
    metrics_interval: int = 0
    limit: int = 1_000_000


def build_tracer(config: ObsConfig) -> Tracer:
    """Construct the Tracer (and sampler) an :class:`ObsConfig` asks
    for; attach it with ``Simulator.attach_obs``."""
    sampler: Optional[MetricsSampler] = None
    if config.metrics_interval > 0:
        sampler = MetricsSampler(interval=config.metrics_interval)
    return Tracer(limit=config.limit, sampler=sampler)


__all__ = [
    "ObsConfig",
    "MetricsSampler",
    "RUNLOG_SCHEMA_VERSION",
    "RunLog",
    "TraceEvent",
    "Tracer",
    "build_inst_records",
    "build_tracer",
    "default_probes",
]
