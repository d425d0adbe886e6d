"""Trace sinks: exporters behind the ``sink`` component registry.

A *sink* turns a finished :class:`~repro.obs.trace.Tracer` into a file.
Sinks are registered components (``repro list sinks``, plugin-extensible
via the standard registry protocol) constructed from spec strings, so a
traced run can name its export formats as data::

    SINKS.create("perfetto").write("trace.json", tracer, meta)

Builtins:

``perfetto``
    Chrome trace-event / Perfetto JSON: per-instruction lifetime slices
    on one track per core, scheduler skip windows on their own track,
    memory events as instants, metrics series as counter tracks.  Loads
    directly in ``ui.perfetto.dev`` or ``chrome://tracing``.
``jsonl``
    One JSON object per line: a schema-versioned header, then every
    trace event, then every metrics sample.  The streaming-friendly
    format for ad-hoc ``jq``-style analysis.
``timeline``
    The folded per-instruction view (:func:`build_inst_records`):
    one JSON document of instruction lifetimes + run summary.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.obs.trace import Tracer, build_inst_records
from repro.registry.core import Registry

#: The sink component family (self-registers in ``REGISTRIES``).
SINKS: Registry = Registry("sink")

#: Synthetic Perfetto track ids (cores use their own ids from 0).
SCHEDULER_TID = 1000
MEM_TID_BASE = 2000


class PerfettoSink:
    """Chrome trace-event / Perfetto JSON export."""

    extension = ".json"

    def __init__(self, pretty: bool = False) -> None:
        self.pretty = pretty

    def render(self, tracer: Tracer,
               meta: Optional[Dict[str, object]] = None
               ) -> Dict[str, object]:
        events: List[Dict[str, object]] = []
        names = {0: "process"}

        def thread(tid: int, name: str) -> None:
            if tid not in names:
                names[tid] = name
                events.append({"ph": "M", "name": "thread_name",
                               "pid": 0, "tid": tid,
                               "args": {"name": name}})

        records = build_inst_records(tracer.events)
        for record in records.values():
            thread(record.core, "core%d pipeline" % record.core)
            end = record.end_cycle()
            stages = {"fetch": record.fetch, "dispatch": record.dispatch,
                      "issue": record.issue,
                      "writeback": record.writeback,
                      "commit": record.commit}
            events.append({
                "ph": "X", "pid": 0, "tid": record.core,
                "ts": record.fetch,
                "dur": max(end - record.fetch, 1),
                "name": record.op or "inst",
                "args": {"seq": record.seq, "pc": record.pc,
                         "replays": record.replays,
                         "squashed": record.squashed,
                         "stages": stages},
            })
        mem_tids: Dict[str, int] = {}
        for event in tracer.events:
            if event.kind == "skip":
                thread(SCHEDULER_TID, "scheduler")
                wake = int(event.args["wake"]) if event.args else event.cycle
                events.append({
                    "ph": "X", "pid": 0, "tid": SCHEDULER_TID,
                    "ts": event.cycle,
                    "dur": max(wake - event.cycle, 1),
                    "name": "skip",
                    "args": dict(event.args or {}),
                })
            elif event.kind == "mem":
                unit = str((event.args or {}).get("unit", "mem"))
                tid = mem_tids.get(unit)
                if tid is None:
                    tid = MEM_TID_BASE + len(mem_tids)
                    mem_tids[unit] = tid
                    thread(tid, unit)
                events.append({
                    "ph": "i", "s": "t", "pid": 0, "tid": tid,
                    "ts": event.cycle, "name": event.name,
                    "args": dict(event.args or {}),
                })
            elif event.kind == "marker":
                thread(SCHEDULER_TID, "scheduler")
                events.append({
                    "ph": "i", "s": "g", "pid": 0, "tid": SCHEDULER_TID,
                    "ts": event.cycle, "name": event.name,
                    "args": dict(event.args or {}),
                })
        sampler = tracer.sampler
        if sampler is not None:
            for row in sampler.samples:
                cycle = int(row[0])
                for name, value in zip(sampler.names, row[1:]):
                    events.append({"ph": "C", "pid": 0, "ts": cycle,
                                   "name": name, "args": {name: value}})
        doc: Dict[str, object] = {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {"unit": "cycles",
                          "dropped_events": tracer.dropped},
        }
        if meta:
            doc["otherData"].update(meta)
        return doc

    def write(self, path: str, tracer: Tracer,
              meta: Optional[Dict[str, object]] = None) -> None:
        doc = self.render(tracer, meta)
        with open(path, "w") as handle:
            json.dump(doc, handle,
                      indent=2 if self.pretty else None,
                      sort_keys=True)
            handle.write("\n")


class JsonlSink:
    """Line-delimited JSON export: header, events, metrics samples."""

    extension = ".jsonl"

    def __init__(self, events: bool = True, metrics: bool = True) -> None:
        self.events = events
        self.metrics = metrics

    def write(self, path: str, tracer: Tracer,
              meta: Optional[Dict[str, object]] = None) -> None:
        with open(path, "w") as handle:
            header: Dict[str, object] = {
                "record": "header", "v": 1,
                "summary": tracer.summary(),
            }
            if meta:
                header["meta"] = dict(meta)
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            if self.events:
                for event in tracer.events:
                    row = event.to_json_dict()
                    row["record"] = "event"
                    handle.write(json.dumps(row, sort_keys=True) + "\n")
            sampler = tracer.sampler
            if self.metrics and sampler is not None:
                for row in sampler.samples:
                    record: Dict[str, object] = {
                        "record": "metric", "cycle": int(row[0])}
                    record.update(zip(sampler.names, row[1:]))
                    handle.write(json.dumps(record, sort_keys=True)
                                 + "\n")


class TimelineSink:
    """Folded per-instruction timeline (the gem5-``O3PipeView`` view)."""

    extension = ".timeline.json"

    def __init__(self, limit: Optional[int] = None) -> None:
        self.limit = limit

    def write(self, path: str, tracer: Tracer,
              meta: Optional[Dict[str, object]] = None) -> None:
        records = build_inst_records(tracer.events, limit=self.limit)
        doc: Dict[str, object] = {
            "v": 1,
            "records": [records[seq].to_json_dict()
                        for seq in sorted(records)],
            "summary": tracer.summary(),
        }
        if meta:
            doc["meta"] = dict(meta)
        with open(path, "w") as handle:
            json.dump(doc, handle, sort_keys=True)
            handle.write("\n")


SINKS.add("perfetto", PerfettoSink, tags=("builtin", "export"),
          summary="Chrome trace-event / Perfetto JSON (ui.perfetto.dev)")
SINKS.add("jsonl", JsonlSink, tags=("builtin", "export"),
          summary="Line-delimited JSON: header, events, metrics samples")
SINKS.add("timeline", TimelineSink, tags=("builtin", "export"),
          summary="Per-instruction lifetime timeline JSON")


def sink_paths(specs: Tuple[str, ...], out: str) -> List[Tuple[str, str]]:
    """Map sink specs onto output paths under/at ``out``.

    A single sink writes exactly to ``out``; with several sinks the
    first keeps ``out`` and the rest append their registry name before
    their extension, so one ``--trace-out`` serves them all.
    """
    pairs: List[Tuple[str, str]] = []
    taken = set()
    for position, spec in enumerate(specs):
        if position == 0:
            pairs.append((spec, out))
            taken.add(out)
            continue
        from repro.registry import parse_spec
        name, _kwargs = parse_spec(spec)
        sink = SINKS.create(spec)
        extension = getattr(sink, "extension", ".json")
        stem = out
        for suffix in (".timeline.json", ".jsonl", ".json"):
            if stem.endswith(suffix):
                stem = stem[:-len(suffix)]
                break
        path = stem + extension
        if path in taken:
            path = stem + "." + name + extension
        pairs.append((spec, path))
        taken.add(path)
    return pairs


def export_traces(tracer: Tracer, specs: Tuple[str, ...], out: str,
                  meta: Optional[Dict[str, object]] = None) -> List[str]:
    """Write ``tracer`` through every sink spec; returns written paths."""
    written: List[str] = []
    for spec, path in sink_paths(tuple(specs), out):
        sink = SINKS.create(spec)
        sink.write(path, tracer, meta)
        written.append(path)
    return written


__all__ = [
    "JsonlSink",
    "PerfettoSink",
    "SINKS",
    "TimelineSink",
    "export_traces",
    "sink_paths",
]
