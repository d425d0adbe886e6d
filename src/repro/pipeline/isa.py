"""The mini-ISA executed by both the reference interpreter and the
out-of-order core.

A small RISC-like register machine: 32 64-bit integer registers
(``r31`` doubles as the link register for CALL/RET), a flat 64-bit byte
address space, and explicit HALT.  FP opcodes (FADD/FMUL/FDIV/FSQRT)
carry floating-point *timing* (FP functional units, non-pipelined
dividers) with integer *semantics* — the paper's experiments depend on
execution timing, never on FP numerics (DESIGN.md note 7).

Program counters are instruction indices; instruction memory addresses
are ``pc * 4`` so a 64-byte I-cache line holds 16 instructions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

NUM_REGS = 32
LINK_REG = 31
MASK64 = (1 << 64) - 1
INST_BYTES = 4


class Op(enum.Enum):
    # integer ALU (1 cycle, pipelined, INT units)
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    CMPLT = "cmplt"
    CMPEQ = "cmpeq"
    LI = "li"
    MOV = "mov"
    # multiply/divide (MULDIV units; DIV/REM non-pipelined)
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    # floating-point timing classes (FP units)
    FADD = "fadd"
    FMUL = "fmul"
    FDIV = "fdiv"      # non-pipelined
    FSQRT = "fsqrt"    # non-pipelined
    # memory
    LOAD = "load"
    STORE = "store"
    # control
    BEQZ = "beqz"
    BNEZ = "bnez"
    JMP = "jmp"
    CALL = "call"
    RET = "ret"
    # misc
    NOP = "nop"
    HALT = "halt"
    # cycle-counter read (the attacker's rdtsc).  Optional rs1 creates a
    # data dependency so the read can be ordered after a measured load.
    RDCYC = "rdcyc"


ALU_OPS = frozenset({Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SHL,
                     Op.SHR, Op.CMPLT, Op.CMPEQ, Op.LI, Op.MOV})
MULDIV_OPS = frozenset({Op.MUL, Op.DIV, Op.REM})
FP_OPS = frozenset({Op.FADD, Op.FMUL, Op.FDIV, Op.FSQRT})
BRANCH_OPS = frozenset({Op.BEQZ, Op.BNEZ, Op.JMP, Op.CALL, Op.RET})
COND_BRANCH_OPS = frozenset({Op.BEQZ, Op.BNEZ})
MEM_OPS = frozenset({Op.LOAD, Op.STORE})
NONPIPELINED_OPS = frozenset({Op.DIV, Op.REM, Op.FDIV, Op.FSQRT})

#: Functional-unit classes, in the index order of
#: :attr:`Instr.fu_index` (``FUPool`` keeps its per-class state so).
FU_CLASSES = ("int", "fp", "muldiv")
FU_INDEX = {name: index for index, name in enumerate(FU_CLASSES)}

#: functional-unit class per op.
FU_CLASS = {}
for _op in ALU_OPS | BRANCH_OPS | MEM_OPS | {Op.NOP, Op.HALT, Op.RDCYC}:
    FU_CLASS[_op] = "int"
for _op in MULDIV_OPS:
    FU_CLASS[_op] = "muldiv"
for _op in FP_OPS:
    FU_CLASS[_op] = "fp"

#: execution latency in cycles (memory ops: address generation only).
LATENCY = {Op.MUL: 3, Op.DIV: 20, Op.REM: 20,
           Op.FADD: 4, Op.FMUL: 4, Op.FDIV: 12, Op.FSQRT: 24}
DEFAULT_LATENCY = 1


@dataclass
class Instr:
    """One static instruction.

    ``rs2`` and ``imm`` are alternatives for the second ALU operand:
    when ``rs2`` is None the immediate is used.  For STORE, ``rs1`` is
    the base address register and ``rs2`` the value register.  ``target``
    is an instruction index for direct branches (RET is indirect via
    ``r31``).
    """

    op: Op
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: int = 0
    target: Optional[int] = None

    def __post_init__(self) -> None:
        for reg in (self.rd, self.rs1, self.rs2):
            if reg is not None and not 0 <= reg < NUM_REGS:
                raise ValueError("register out of range: %r" % (reg,))
        op = self.op
        if op in COND_BRANCH_OPS | {Op.JMP, Op.CALL}:
            if self.target is None:
                raise ValueError("%s requires a target" % op.value)
        # -- classification, precomputed once per static instruction --
        # Every per-cycle consumer (the step loop, the stall analysis,
        # the interpreter) reads these as plain attributes; the old
        # per-access @property set-membership tests were measurable
        # churn in the dense loop.
        self.is_branch = op in BRANCH_OPS
        self.is_cond_branch = op in COND_BRANCH_OPS
        self.is_load = op is Op.LOAD
        self.is_store = op is Op.STORE
        self.is_mem = op in MEM_OPS
        self.is_alu = op in ALU_OPS or op in MULDIV_OPS or op in FP_OPS
        self.fu_class = FU_CLASS[op]
        self.fu_index = FU_INDEX[self.fu_class]
        #: The op's semantics from :data:`EVALUATE` (None for ops that
        #: are not evaluated: memory, control, NOP/HALT, RDCYC), read by
        #: the core's issue stage without a table probe per op.
        self.evaluator = EVALUATE.get(op)
        self.latency = LATENCY.get(op, DEFAULT_LATENCY)
        self.pipelined = op not in NONPIPELINED_OPS
        self.writes_reg = LINK_REG if op is Op.CALL else self.rd
        #: True when the op flows through the issue queue (everything
        #: except NOP/HALT and direct jumps, which finish at dispatch).
        self.needs_iq = op not in (Op.NOP, Op.HALT, Op.JMP, Op.CALL)
        if op is Op.RET:
            self.srcs = (LINK_REG,)
        elif self.rs1 is not None:
            self.srcs = ((self.rs1, self.rs2)
                         if self.rs2 is not None else (self.rs1,))
        else:
            self.srcs = (self.rs2,) if self.rs2 is not None else ()

    def src_regs(self) -> "tuple":
        """Architectural source registers, in operand order."""
        return self.srcs

    def __repr__(self) -> str:
        parts = [self.op.value]
        if self.rd is not None:
            parts.append("r%d" % self.rd)
        if self.rs1 is not None:
            parts.append("r%d" % self.rs1)
        if self.rs2 is not None:
            parts.append("r%d" % self.rs2)
        if self.imm:
            parts.append("#%d" % self.imm)
        if self.target is not None:
            parts.append("@%s" % (self.target,))
        return "<%s>" % " ".join(parts)


def _ev_add(a: int, b: int, imm: int) -> int:
    return (a + b) & MASK64


def _ev_sub(a: int, b: int, imm: int) -> int:
    return (a - b) & MASK64


def _ev_and(a: int, b: int, imm: int) -> int:
    return a & b


def _ev_or(a: int, b: int, imm: int) -> int:
    return a | b


def _ev_xor(a: int, b: int, imm: int) -> int:
    return a ^ b


def _ev_shl(a: int, b: int, imm: int) -> int:
    return (a << (b & 63)) & MASK64


def _ev_shr(a: int, b: int, imm: int) -> int:
    return (a >> (b & 63)) & MASK64


def _ev_cmplt(a: int, b: int, imm: int) -> int:
    return 1 if a < b else 0


def _ev_cmpeq(a: int, b: int, imm: int) -> int:
    return 1 if a == b else 0


def _ev_li(a: int, b: int, imm: int) -> int:
    return imm & MASK64


def _ev_mov(a: int, b: int, imm: int) -> int:
    return a & MASK64


def _ev_mul(a: int, b: int, imm: int) -> int:
    return (a * b) & MASK64


def _ev_div(a: int, b: int, imm: int) -> int:
    return (a // b) & MASK64 if b else 0


def _ev_rem(a: int, b: int, imm: int) -> int:
    return (a % b) & MASK64 if b else 0


def _ev_fsqrt(a: int, b: int, imm: int) -> int:
    return _isqrt(a)


#: ALU semantics dispatch table, the one source of op semantics: the
#: interpreter probes it per executed op through :func:`evaluate`, and
#: each :class:`Instr` records its entry once as ``evaluator`` for the
#: OoO core's issue stage.
EVALUATE = {
    Op.ADD: _ev_add, Op.FADD: _ev_add,
    Op.SUB: _ev_sub,
    Op.AND: _ev_and,
    Op.OR: _ev_or,
    Op.XOR: _ev_xor,
    Op.SHL: _ev_shl,
    Op.SHR: _ev_shr,
    Op.CMPLT: _ev_cmplt,
    Op.CMPEQ: _ev_cmpeq,
    Op.LI: _ev_li,
    Op.MOV: _ev_mov,
    Op.MUL: _ev_mul, Op.FMUL: _ev_mul,
    Op.DIV: _ev_div, Op.FDIV: _ev_div,
    Op.REM: _ev_rem,
    Op.FSQRT: _ev_fsqrt,
}


def evaluate(op: Op, a: int, b: int, imm: int) -> int:
    """Pure ALU semantics: the interpreter's entry point into
    :data:`EVALUATE`.

    ``a`` is the first operand value, ``b`` the second (already the
    immediate when rs2 was absent).  The OoO core calls the same table
    entry through the decoded ``Instr.evaluator`` instead, skipping the
    per-op probe.
    """
    fn = EVALUATE.get(op)
    if fn is None:
        raise ValueError("evaluate() called on non-ALU op %s" % op)
    return fn(a, b, imm)


def _isqrt(value: int) -> int:
    if value < 0:
        return 0
    return int(value ** 0.5) if value < (1 << 52) else _int_sqrt(value)


def _int_sqrt(value: int) -> int:
    guess = value
    bound = (value + 1) // 2
    while bound < guess:
        guess = bound
        bound = (bound + value // bound) // 2
    return guess
