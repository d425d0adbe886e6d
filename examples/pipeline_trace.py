#!/usr/bin/env python
"""Visualise transient execution: trace the pipeline through a Spectre
attack and watch the wrong-path instructions appear and get squashed.

Run:  python examples/pipeline_trace.py
"""

from repro.attacks import spectre
from repro.attacks.common import attack_config
from repro.defenses import registry
from repro.obs.trace import Tracer, build_inst_records
from repro.sim.simulator import Simulator


def stage_char(record, cycle):
    """One timeline cell: ``.`` waiting, ``x`` executing, ``=`` done,
    ``C`` commit, blank outside the instruction's lifetime."""
    if cycle < record.fetch:
        return " "
    if record.commit is not None and cycle > record.commit:
        return " "
    if record.commit == cycle:
        return "C"
    if record.writeback is not None and cycle >= record.writeback:
        return "="
    if record.issue is not None and cycle >= record.issue:
        return "x"
    return "."


def render(records, width=64):
    """gem5-``O3PipeView``-style ASCII timeline of ``records``."""
    base = records[0].fetch
    lines = ["cycles %d..%d  (. wait, x exec, = done, C commit,"
             " ~ squashed)" % (base, base + width)]
    for record in records:
        row = "".join(stage_char(record, base + offset)
                      for offset in range(width))
        lines.append("%5d %-6s %s|%s|" % (
            record.seq, record.op[:6], "~" if record.squashed else " ",
            row))
    return "\n".join(lines)


def main() -> None:
    program = spectre.build_program(secret=5)
    sim = Simulator(program, registry["Unsafe"](), cfg=attack_config())
    tracer = Tracer()
    sim.attach_obs(tracer)
    result = sim.run(max_cycles=2_000_000)
    print("finished:", result.finished, " cycles:", result.cycles)

    records = build_inst_records(tracer.events, limit=400, core=0)
    squashes = [e.cycle for e in tracer.events
                if e.kind == "squash" and e.core == 0]
    committed = [r for r in records.values()
                 if r.commit is not None and r.issue is not None]
    transient = [r for r in records.values() if r.squashed]
    print("\npipeline summary:")
    for key, value in (
            ("committed", len(committed)),
            ("squashed", len(transient)),
            ("mean_fetch_to_issue",
             sum(r.issue - r.fetch for r in committed) / len(committed)),
            ("mean_issue_to_commit",
             sum(r.commit - r.issue for r in committed) / len(committed)),
            ("squash_events", len(squashes))):
        print("  %-22s %s" % (key, value))

    print("\n%d transient (squashed) instructions were really executed,"
          % len(transient))
    print("including the out-of-bounds gadget loads:")
    for record in transient[:8]:
        print("  seq %4d  pc %3d  %-6s  fetched@%d" % (
            record.seq, record.pc, record.op, record.fetch))

    print("\ntimeline around the first squash:")
    if squashes:
        ordered = sorted(records.values(), key=lambda r: r.seq)
        near = [i for i, r in enumerate(ordered)
                if abs(r.fetch - squashes[0]) < 60]
        if near:
            print(render(ordered[near[0]:near[0] + 24]))


if __name__ == "__main__":
    main()
