"""Per-instruction pipeline timelines folded from the obs event stream."""

from repro.defenses import registry
from repro.obs import Tracer, build_inst_records
from repro.pipeline.isa import Op
from repro.pipeline.program import ProgramBuilder
from repro.sim.simulator import Simulator


def traced_run(program, defense="Unsafe"):
    sim = Simulator(program, registry[defense]())
    tracer = Tracer()
    sim.attach_obs(tracer)
    result = sim.run(max_cycles=100_000)
    assert result.finished
    return tracer, result


def simple_loop(n=10):
    b = ProgramBuilder()
    b.li(1, n)
    b.label("loop")
    b.load(2, None, imm=0x1000)
    b.alu(Op.SUB, 1, 1, imm=1)
    b.bnez(1, "loop")
    b.halt()
    return b.build()


def test_records_lifetimes():
    tracer, _result = traced_run(simple_loop())
    records = build_inst_records(tracer.events, core=0)
    committed = [r for r in records.values()
                 if r.commit is not None and not r.squashed]
    assert committed
    for record in committed:
        assert record.fetch <= record.commit
        if record.issue is not None:
            assert record.fetch <= record.issue <= record.commit


def test_marks_transient_instructions():
    b = ProgramBuilder()
    b.data(0x100, 1)
    b.load(1, None, imm=0x100)
    b.bnez(1, "t")
    b.li(2, 0xBAD)          # wrong path
    b.li(3, 0xBAD)
    b.label("t")
    b.halt()
    tracer, result = traced_run(b.build())
    assert result.stats.get("squash.events") >= 1
    assert tracer.summary()["by_kind"].get("squash", 0) >= 1
    records = build_inst_records(tracer.events, core=0)
    transient = [r for r in records.values() if r.squashed]
    assert transient
    for record in transient:
        assert record.commit is None


def test_limit_caps_records():
    tracer, _result = traced_run(simple_loop(50))
    records = build_inst_records(tracer.events, core=0)
    limited = build_inst_records(tracer.events, limit=10, core=0)
    assert len(records) > 10
    # ``limit`` keeps the first distinct instructions fetched.
    assert list(limited) == list(records)[:10]
