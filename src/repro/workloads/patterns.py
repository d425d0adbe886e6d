"""Kernel generators for the synthetic benchmark suites.

Every generator emits a self-contained :class:`repro.pipeline.program.
Program` (loop + HALT + initial memory image) through the builder.  The
kernels are designed around the behaviours the paper's evaluation hinges
on:

* ``pointer_chase_kernel`` — mcf-like: data-dependent load chains whose
  *wrong-path* continuation loads the very lines the correct path needs
  next, so defences that discard misspeculated fills lose real
  prefetching (§6.1's mcf discussion);
* ``indirect_kernel`` — astar/omnetpp/xalancbmk-like ``B[A[i]]`` chains:
  the second load's address depends on speculative load data, which STT
  delays but GhostMinion does not;
* ``stream_kernel`` — lbm/libquantum-like strided streaming that the L2
  stride prefetcher captures;
* ``random_kernel`` — LCG-addressed (ALU-computed, taint-free) sparse
  access, DRAM-latency bound;
* ``compute_kernel`` — gamess/povray-like FP/divider pressure with a
  small working set;
* ``mixed_kernel`` — weighted composition of the above behaviours.

Register conventions: r1-r15 kernel state, r16-r25 scratch, r31 link.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.pipeline.isa import Op
from repro.pipeline.program import Program, ProgramBuilder

LINE = 64
#: data segment bases, far apart so kernels never alias by accident.
BASE_A = 1 << 20
BASE_B = 1 << 22
BASE_C = 1 << 24

# LCG constants (numerical recipes); low bits are branch-unpredictable.
LCG_MUL = 1664525
LCG_ADD = 1013904223
LCG_MASK = (1 << 32) - 1


def _emit_lcg_step(b: ProgramBuilder, seed_reg: int, tmp: int) -> None:
    """seed = (seed * LCG_MUL + LCG_ADD) & LCG_MASK"""
    b.li(tmp, LCG_MUL)
    b.alu(Op.MUL, seed_reg, seed_reg, tmp)
    b.alu(Op.ADD, seed_reg, seed_reg, imm=LCG_ADD)
    b.li(tmp, LCG_MASK)
    b.alu(Op.AND, seed_reg, seed_reg, tmp)


def _require_pow2(value: int, what: str) -> None:
    if value < 1 or value & (value - 1):
        raise ValueError("%s must be a power of two, got %d" % (what, value))


def stream_kernel(iters: int = 2000, footprint_lines: int = 4096,
                  stride_lines: int = 1, store_every: int = 0,
                  name: str = "stream") -> Program:
    """Sequential/strided streaming over ``footprint_lines`` of data."""
    _require_pow2(footprint_lines, "footprint_lines")
    b = ProgramBuilder(name)
    counter, addr, acc, tmp, val = 1, 2, 3, 4, 5
    b.li(counter, iters)
    b.li(addr, BASE_A)
    b.li(acc, 0)
    b.label("loop")
    b.load(val, addr)
    b.alu(Op.ADD, acc, acc, val)
    b.load(val, addr, imm=16)   # second word of the line: always a hit
    b.alu(Op.XOR, acc, acc, val)
    if store_every:
        b.store(addr, acc, imm=8)
    b.alu(Op.ADD, addr, addr, imm=stride_lines * LINE)
    # wrap: addr = BASE_A + (addr - BASE_A) & (footprint - 1)
    b.alu(Op.SUB, tmp, addr, imm=BASE_A)
    b.li(val, footprint_lines * LINE - 1)
    b.alu(Op.AND, tmp, tmp, val)
    b.alu(Op.ADD, addr, tmp, imm=BASE_A)
    b.alu(Op.SUB, counter, counter, imm=1)
    b.bnez(counter, "loop")
    b.halt()
    return b.build()


def pointer_chase_kernel(iters: int = 1500, nodes: int = 1024,
                         work_per_node: int = 2, branchy: bool = True,
                         value_lines: int = 8192, seed: int = 7,
                         stride: int = LINE,
                         name: str = "pchase") -> Program:
    """Chase a randomly-permuted linked list, mcf-style.

    Each node holds its successor pointer at offset 0 and a payload at
    offset 8.  With ``branchy=True``, each iteration additionally loads a
    *slow* value — a second, payload-indexed access into a large sparse
    array — and branches unpredictably on it.  Because the next-pointer
    chase is independent of that branch, the pipeline runs ahead along
    the predicted path, loading future nodes, while the branch's
    DRAM-bound condition resolves.  On the ~50% mispredicts, those
    run-ahead loads are squashed — so defences that discard misspeculated
    fills (GhostMinion, MuonTrap-Flush) lose real prefetching, while the
    unsafe baseline and base MuonTrap keep it.  This is the mechanism
    behind mcf's overhead in §6.1.

    ``stride`` spaces consecutive node slots (bytes, power of two,
    >= 16 so the pointer and payload words fit): larger strides spread
    the list over more cache lines per node, raising miss pressure at a
    fixed node count.
    """
    _require_pow2(value_lines, "value_lines")
    _require_pow2(stride, "stride")
    if nodes < 1:
        raise ValueError("nodes must be >= 1, got %d" % nodes)
    if stride < 16:
        raise ValueError("stride must be >= 16 bytes, got %d" % stride)
    if nodes * stride > BASE_C - BASE_B:
        raise ValueError(
            "node array (%d nodes x %d B) overflows its data segment"
            % (nodes, stride))
    rng = random.Random(seed)
    order = list(range(nodes))
    rng.shuffle(order)
    b = ProgramBuilder(name)
    node_addr = [BASE_B + idx * stride for idx in range(nodes)]
    for pos in range(nodes):
        here = node_addr[order[pos]]
        succ = node_addr[order[(pos + 1) % nodes]]
        b.data(here, succ)
        b.data(here + 8, rng.getrandbits(32))
    counter, ptr, payload, acc, tmp = 1, 2, 3, 4, 5
    value, vaddr = 6, 7
    b.li(counter, iters)
    b.li(ptr, node_addr[order[0]])
    b.li(acc, 0)
    b.label("loop")
    b.load(payload, ptr, imm=8)
    # The chase is independent of the branch below: run-ahead fuel.
    b.load(ptr, ptr)
    if branchy:
        # slow condition: value = V[payload % value_lines] (DRAM-bound)
        b.li(tmp, value_lines - 1)
        b.alu(Op.AND, vaddr, payload, tmp)
        b.alu(Op.SHL, vaddr, vaddr, imm=6)
        b.alu(Op.ADD, vaddr, vaddr, imm=BASE_C)
        b.load(value, vaddr)
        b.alu(Op.XOR, value, value, payload)
        b.alu(Op.AND, tmp, value, imm=1)
        b.bnez(tmp, "odd_arm")
        for _ in range(work_per_node):
            b.alu(Op.ADD, acc, acc, payload)
        b.jmp("join")
        b.label("odd_arm")
        for _ in range(work_per_node):
            b.alu(Op.XOR, acc, acc, payload)
        b.label("join")
    else:
        for _ in range(work_per_node):
            b.alu(Op.ADD, acc, acc, payload)
    b.alu(Op.SUB, counter, counter, imm=1)
    b.bnez(counter, "loop")
    b.halt()
    return b.build()


def indirect_kernel(iters: int = 1500, footprint_lines: int = 2048,
                    index_lines: int = 512, branch_entropy: bool = False,
                    seed: int = 11, name: str = "indirect") -> Program:
    """``B[A[i]]`` gather: the second load's address is load-dependent.

    This is the pattern STT must delay (tainted address) but GhostMinion
    executes freely; with a small-enough footprint the loads mostly hit,
    so GhostMinion shows no overhead while STT stalls every gather.
    ``branch_entropy`` adds an unpredictable data-dependent branch, which
    keeps older branches unresolved over the gathers — the case where
    STT-*Spectre* also pays (astar/omnetpp/xalancbmk-like).
    """
    _require_pow2(footprint_lines, "footprint_lines")
    rng = random.Random(seed)
    b = ProgramBuilder(name)
    index_words = index_lines * 8
    for word in range(index_words):
        b.data(BASE_A + word * 8, rng.randrange(footprint_lines))
    counter, iaddr, idx, val, acc, tmp = 1, 2, 3, 4, 5, 6
    b.li(counter, iters)
    b.li(iaddr, BASE_A)
    b.li(acc, 0)
    b.label("loop")
    b.load(idx, iaddr)                    # idx = A[i]
    if branch_entropy:
        b.alu(Op.AND, tmp, idx, imm=1)
        b.bnez(tmp, "ent_taken")
        b.alu(Op.ADD, acc, acc, imm=3)
        b.jmp("ent_join")
        b.label("ent_taken")
        b.alu(Op.XOR, acc, acc, idx)
        b.label("ent_join")
    b.alu(Op.SHL, tmp, idx, imm=6)        # idx * 64
    b.alu(Op.ADD, tmp, tmp, imm=BASE_B)
    b.load(val, tmp)                      # val = B[idx]   (tainted addr)
    b.alu(Op.ADD, acc, acc, val)
    b.alu(Op.ADD, iaddr, iaddr, imm=8)
    b.alu(Op.SUB, tmp, iaddr, imm=BASE_A)
    b.li(val, index_words * 8 - 1)
    b.alu(Op.AND, tmp, tmp, val)
    b.alu(Op.ADD, iaddr, tmp, imm=BASE_A)
    b.alu(Op.SUB, counter, counter, imm=1)
    b.bnez(counter, "loop")
    b.halt()
    return b.build()


def random_kernel(iters: int = 1200, footprint_lines: int = 16384,
                  seed: int = 3, branch_entropy: bool = False,
                  name: str = "random") -> Program:
    """LCG-addressed sparse access: miss-heavy but taint-free addresses."""
    _require_pow2(footprint_lines, "footprint_lines")
    b = ProgramBuilder(name)
    counter, seed_reg, addr, val, acc, tmp = 1, 2, 3, 4, 5, 6
    b.li(counter, iters)
    b.li(seed_reg, seed)
    b.li(acc, 0)
    b.label("loop")
    _emit_lcg_step(b, seed_reg, tmp)
    b.alu(Op.SHR, addr, seed_reg, imm=10)
    b.li(tmp, footprint_lines - 1)
    b.alu(Op.AND, addr, addr, tmp)
    b.alu(Op.SHL, addr, addr, imm=6)
    b.alu(Op.ADD, addr, addr, imm=BASE_C)
    b.load(val, addr)
    b.alu(Op.ADD, acc, acc, val)
    if branch_entropy:
        b.alu(Op.AND, tmp, seed_reg, imm=1)
        b.bnez(tmp, "skip")
        b.alu(Op.XOR, acc, acc, seed_reg)
        b.label("skip")
    b.alu(Op.SUB, counter, counter, imm=1)
    b.bnez(counter, "loop")
    b.halt()
    return b.build()


def compute_kernel(iters: int = 1500, div_every: int = 4,
                   fp: bool = True, unroll: int = 4,
                   name: str = "compute") -> Program:
    """ALU/FP-bound kernel with periodic non-pipelined divides."""
    b = ProgramBuilder(name)
    counter, a, c_reg, d, tmp = 1, 2, 3, 4, 5
    b.li(counter, iters)
    b.li(a, 123456789)
    b.li(c_reg, 97)
    b.li(d, 3)
    b.label("loop")
    for step in range(unroll):
        b.alu(Op.MUL, a, a, c_reg)
        b.alu(Op.ADD, a, a, imm=step + 1)
        if fp:
            b.alu(Op.FMUL, tmp, a, d)
            b.alu(Op.FADD, a, a, tmp)
        if div_every and step % div_every == div_every - 1:
            b.alu(Op.FDIV if fp else Op.DIV, a, a, d)
            b.alu(Op.ADD, a, a, imm=1)
    b.alu(Op.SUB, counter, counter, imm=1)
    b.bnez(counter, "loop")
    b.halt()
    return b.build()


def mixed_kernel(iters: int = 1200, footprint_lines: int = 4096,
                 index_lines: int = 256, chase_nodes: int = 256,
                 stream_weight: int = 1, indirect_weight: int = 1,
                 chase_weight: int = 0, compute_weight: int = 1,
                 store_weight: int = 0, branch_entropy: bool = True,
                 div_in_compute: bool = False, seed: int = 23,
                 name: str = "mixed") -> Program:
    """Weighted composition: each loop iteration runs each enabled
    behaviour ``weight`` times, calling shared subroutines (exercising
    CALL/RET and the RAS)."""
    _require_pow2(footprint_lines, "footprint_lines")
    rng = random.Random(seed)
    b = ProgramBuilder(name)
    # data: index array for the indirect part, linked list for the chase.
    index_words = index_lines * 8
    for word in range(index_words):
        b.data(BASE_A + word * 8, rng.randrange(footprint_lines))
    order = list(range(chase_nodes))
    rng.shuffle(order)
    chase_addr = [BASE_B + idx * LINE for idx in range(chase_nodes)]
    for pos in range(chase_nodes):
        here = chase_addr[order[pos]]
        succ = chase_addr[order[(pos + 1) % chase_nodes]]
        b.data(here, succ)
        b.data(here + 8, rng.getrandbits(32))
    counter, seed_reg, acc = 1, 2, 3
    saddr, iaddr, ptr = 6, 7, 8
    val, idx, tmp, tmp2 = 16, 17, 18, 19
    b.li(counter, iters)
    b.li(seed_reg, seed)
    b.li(acc, 0)
    b.li(saddr, BASE_C)
    b.li(iaddr, BASE_A)
    b.li(ptr, chase_addr[order[0]])
    b.jmp("loop")

    # --- subroutines -----------------------------------------------------
    b.label("sub_stream")
    b.load(val, saddr)
    b.alu(Op.ADD, acc, acc, val)
    b.alu(Op.ADD, saddr, saddr, imm=LINE)
    b.alu(Op.SUB, tmp, saddr, imm=BASE_C)
    b.li(tmp2, footprint_lines * LINE - 1)
    b.alu(Op.AND, tmp, tmp, tmp2)
    b.alu(Op.ADD, saddr, tmp, imm=BASE_C)
    b.ret()

    b.label("sub_indirect")
    b.load(idx, iaddr)
    b.alu(Op.SHL, tmp, idx, imm=6)
    b.alu(Op.ADD, tmp, tmp, imm=BASE_C)
    b.load(val, tmp)
    b.alu(Op.ADD, acc, acc, val)
    b.alu(Op.ADD, iaddr, iaddr, imm=8)
    b.alu(Op.SUB, tmp, iaddr, imm=BASE_A)
    b.li(tmp2, index_words * 8 - 1)
    b.alu(Op.AND, tmp, tmp, tmp2)
    b.alu(Op.ADD, iaddr, tmp, imm=BASE_A)
    b.ret()

    b.label("sub_chase")
    b.load(val, ptr, imm=8)
    b.load(ptr, ptr)
    b.alu(Op.ADD, acc, acc, val)
    b.ret()

    b.label("sub_compute")
    b.alu(Op.MUL, tmp, seed_reg, imm=0)  # tmp = 0 (cheap dep break)
    b.alu(Op.ADD, tmp, acc, imm=17)
    b.alu(Op.MUL, acc, acc, imm=0)       # acc*0 keeps values bounded
    b.alu(Op.ADD, acc, acc, tmp)
    if div_in_compute:
        b.li(tmp2, 3)
        b.alu(Op.DIV, acc, acc, tmp2)
        b.alu(Op.ADD, acc, acc, imm=5)
    b.alu(Op.FADD, acc, acc, imm=2)
    b.ret()

    # --- main loop ---------------------------------------------------------
    b.label("loop")
    _emit_lcg_step(b, seed_reg, tmp)
    for _ in range(stream_weight):
        b.call("sub_stream")
    for _ in range(indirect_weight):
        b.call("sub_indirect")
    for _ in range(chase_weight):
        b.call("sub_chase")
    for _ in range(compute_weight):
        b.call("sub_compute")
    if store_weight:
        for s in range(store_weight):
            b.alu(Op.AND, tmp, seed_reg, imm=(footprint_lines - 1))
            b.alu(Op.SHL, tmp, tmp, imm=6)
            b.alu(Op.ADD, tmp, tmp, imm=BASE_C + s * 8)
            b.store(tmp, acc)
    if branch_entropy:
        b.alu(Op.AND, tmp, seed_reg, imm=1)
        b.bnez(tmp, "entropy_taken")
        b.alu(Op.ADD, acc, acc, imm=1)
        b.jmp("entropy_join")
        b.label("entropy_taken")
        b.alu(Op.XOR, acc, acc, seed_reg)
        b.label("entropy_join")
    b.alu(Op.SUB, counter, counter, imm=1)
    b.bnez(counter, "loop")
    b.halt()
    return b.build()
