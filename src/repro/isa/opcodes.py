"""Opcode definitions and per-opcode semantic metadata.

The reproduction uses a small 64-bit RISC ISA (64 logical registers,
word-addressed loads/stores with byte addresses) that plays the role the
Alpha ISA played in the paper's SimpleScalar setup.  Every opcode carries:

* a functional-unit class (used by the timing model's FU pools),
* an evaluation function (used by the functional interpreter and by the
  speculative replica engine), and
* structural properties (does it write a register, is it a branch, ...).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict

MASK64 = (1 << 64) - 1
SIGN64 = 1 << 63


def to_signed(v: int) -> int:
    """Interpret a 64-bit unsigned value as two's-complement signed."""
    v &= MASK64
    return v - (1 << 64) if v & SIGN64 else v


def to_unsigned(v: int) -> int:
    """Wrap a Python int into the 64-bit unsigned domain."""
    return v & MASK64


class FUClass(enum.IntEnum):
    """Functional-unit classes, matching Table 1 of the paper."""

    INT_ALU = 0   # 6 units, 1-cycle latency
    INT_MUL = 1   # 3 units, 2-cycle latency
    INT_DIV = 2   # shares the 3 mul/div units, 12-cycle latency
    FP_ADD = 3    # 4 units, 2-cycle latency
    FP_MUL = 4    # 2 units, 4-cycle latency
    FP_DIV = 5    # shares the 2 FP mul/div units, 14-cycle latency
    MEM = 6       # load/store pipeline (address generation)
    BRANCH = 7    # resolved on an INT_ALU in hardware; tracked separately
    NONE = 8      # NOP / HALT


class Op(enum.IntEnum):
    """Instruction opcodes."""

    # Register-register ALU.
    ADD = enum.auto()
    SUB = enum.auto()
    MUL = enum.auto()
    DIV = enum.auto()
    REM = enum.auto()
    AND = enum.auto()
    OR = enum.auto()
    XOR = enum.auto()
    SLL = enum.auto()
    SRL = enum.auto()
    SRA = enum.auto()
    SLT = enum.auto()
    SLE = enum.auto()
    SEQ = enum.auto()
    MIN = enum.auto()
    MAX = enum.auto()
    # Register-immediate ALU.
    ADDI = enum.auto()
    MULI = enum.auto()
    ANDI = enum.auto()
    ORI = enum.auto()
    XORI = enum.auto()
    SLLI = enum.auto()
    SRLI = enum.auto()
    SLTI = enum.auto()
    SEQI = enum.auto()
    LI = enum.auto()     # rd <- imm
    MOV = enum.auto()    # rd <- rs1
    # Floating point (values live in the same registers, as Python floats).
    FADD = enum.auto()
    FSUB = enum.auto()
    FMUL = enum.auto()
    FDIV = enum.auto()
    ITOF = enum.auto()
    FTOI = enum.auto()
    # Memory.
    LD = enum.auto()     # rd <- MEM[rs1 + imm]
    ST = enum.auto()     # MEM[rs1 + imm] <- rs2
    # Control flow.
    BEQ = enum.auto()    # if rs1 == rs2 goto target
    BNE = enum.auto()
    BLT = enum.auto()
    BGE = enum.auto()
    BLE = enum.auto()
    BGT = enum.auto()
    BEQZ = enum.auto()   # if rs1 == 0 goto target
    BNEZ = enum.auto()
    BLTZ = enum.auto()
    BGEZ = enum.auto()
    J = enum.auto()      # unconditional direct jump
    # Misc.
    NOP = enum.auto()
    HALT = enum.auto()


def _div(a: int, b: int) -> int:
    sa, sb = to_signed(a), to_signed(b)
    if sb == 0:
        return 0
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return to_unsigned(q)


def _rem(a: int, b: int) -> int:
    sa, sb = to_signed(a), to_signed(b)
    if sb == 0:
        return 0
    r = abs(sa) % abs(sb)
    if sa < 0:
        r = -r
    return to_unsigned(r)


def _f(v: int) -> float:
    """View a register value as a float for the lightweight FP ops.

    Registers hold Python numbers; FP instructions simply operate in the
    float domain.  This keeps a single register file (as the paper's
    mechanism is about integer codes, FP only exercises the FP unit pools).
    """
    return float(v) if not isinstance(v, float) else v


# rd <- f(rs1_value, rs2_value, imm)
ALU_EVAL: Dict[Op, Callable[[int, int, int], int]] = {
    Op.ADD: lambda a, b, i: (a + b) & MASK64,
    Op.SUB: lambda a, b, i: (a - b) & MASK64,
    Op.MUL: lambda a, b, i: (a * b) & MASK64,
    Op.DIV: lambda a, b, i: _div(a, b),
    Op.REM: lambda a, b, i: _rem(a, b),
    Op.AND: lambda a, b, i: a & b,
    Op.OR: lambda a, b, i: a | b,
    Op.XOR: lambda a, b, i: a ^ b,
    Op.SLL: lambda a, b, i: (a << (b & 63)) & MASK64,
    Op.SRL: lambda a, b, i: (a & MASK64) >> (b & 63),
    Op.SRA: lambda a, b, i: to_unsigned(to_signed(a) >> (b & 63)),
    Op.SLT: lambda a, b, i: 1 if to_signed(a) < to_signed(b) else 0,
    Op.SLE: lambda a, b, i: 1 if to_signed(a) <= to_signed(b) else 0,
    Op.SEQ: lambda a, b, i: 1 if a == b else 0,
    Op.MIN: lambda a, b, i: a if to_signed(a) < to_signed(b) else b,
    Op.MAX: lambda a, b, i: a if to_signed(a) > to_signed(b) else b,
    Op.ADDI: lambda a, b, i: (a + i) & MASK64,
    Op.MULI: lambda a, b, i: (a * i) & MASK64,
    Op.ANDI: lambda a, b, i: a & (i & MASK64),
    Op.ORI: lambda a, b, i: a | (i & MASK64),
    Op.XORI: lambda a, b, i: a ^ (i & MASK64),
    Op.SLLI: lambda a, b, i: (a << (i & 63)) & MASK64,
    Op.SRLI: lambda a, b, i: (a & MASK64) >> (i & 63),
    Op.SLTI: lambda a, b, i: 1 if to_signed(a) < i else 0,
    Op.SEQI: lambda a, b, i: 1 if to_signed(a) == i else 0,
    Op.LI: lambda a, b, i: to_unsigned(i),
    Op.MOV: lambda a, b, i: a,
    Op.FADD: lambda a, b, i: _f(a) + _f(b),
    Op.FSUB: lambda a, b, i: _f(a) - _f(b),
    Op.FMUL: lambda a, b, i: _f(a) * _f(b),
    Op.FDIV: lambda a, b, i: _f(a) / _f(b) if _f(b) != 0.0 else 0.0,
    Op.ITOF: lambda a, b, i: float(to_signed(a) if isinstance(a, int) else a),
    Op.FTOI: lambda a, b, i: to_unsigned(int(_f(a))),
}

# Branch condition: f(rs1_value, rs2_value) -> bool
BRANCH_COND: Dict[Op, Callable[[int, int], bool]] = {
    Op.BEQ: lambda a, b: a == b,
    Op.BNE: lambda a, b: a != b,
    Op.BLT: lambda a, b: to_signed(a) < to_signed(b),
    Op.BGE: lambda a, b: to_signed(a) >= to_signed(b),
    Op.BLE: lambda a, b: to_signed(a) <= to_signed(b),
    Op.BGT: lambda a, b: to_signed(a) > to_signed(b),
    Op.BEQZ: lambda a, b: a == 0,
    Op.BNEZ: lambda a, b: a != 0,
    Op.BLTZ: lambda a, b: to_signed(a) < 0,
    Op.BGEZ: lambda a, b: to_signed(a) >= 0,
}

COND_BRANCHES = frozenset(BRANCH_COND)
TWO_SRC_BRANCHES = frozenset({Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLE, Op.BGT})
REG_REG_ALU = frozenset({
    Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.REM, Op.AND, Op.OR, Op.XOR,
    Op.SLL, Op.SRL, Op.SRA, Op.SLT, Op.SLE, Op.SEQ, Op.MIN, Op.MAX,
    Op.FADD, Op.FSUB, Op.FMUL, Op.FDIV,
})
REG_IMM_ALU = frozenset({
    Op.ADDI, Op.MULI, Op.ANDI, Op.ORI, Op.XORI, Op.SLLI, Op.SRLI,
    Op.SLTI, Op.SEQI,
})
ONE_SRC_ALU = frozenset({Op.MOV, Op.ITOF, Op.FTOI}) | REG_IMM_ALU
NO_SRC_ALU = frozenset({Op.LI})

FU_OF_OP: Dict[Op, FUClass] = {}
for _op in Op:
    if _op in (Op.MUL, Op.MULI):
        FU_OF_OP[_op] = FUClass.INT_MUL
    elif _op in (Op.DIV, Op.REM):
        FU_OF_OP[_op] = FUClass.INT_DIV
    elif _op in (Op.FADD, Op.FSUB, Op.ITOF, Op.FTOI):
        FU_OF_OP[_op] = FUClass.FP_ADD
    elif _op is Op.FMUL:
        FU_OF_OP[_op] = FUClass.FP_MUL
    elif _op is Op.FDIV:
        FU_OF_OP[_op] = FUClass.FP_DIV
    elif _op in (Op.LD, Op.ST):
        FU_OF_OP[_op] = FUClass.MEM
    elif _op in COND_BRANCHES or _op is Op.J:
        FU_OF_OP[_op] = FUClass.BRANCH
    elif _op in (Op.NOP, Op.HALT):
        FU_OF_OP[_op] = FUClass.NONE
    else:
        FU_OF_OP[_op] = FUClass.INT_ALU

#: Timing-model execution latency per FU class (cycles), per Table 1.
FU_LATENCY: Dict[FUClass, int] = {
    FUClass.INT_ALU: 1,
    FUClass.INT_MUL: 2,
    FUClass.INT_DIV: 12,
    FUClass.FP_ADD: 2,
    FUClass.FP_MUL: 4,
    FUClass.FP_DIV: 14,
    FUClass.MEM: 1,      # address generation; cache latency is added on top
    FUClass.BRANCH: 1,
    FUClass.NONE: 1,
}

#: Per-cycle issue budget each FU class draws on.  Classes sharing
#: physical units share a slot (Table 1): divides issue on the mul/div
#: units and branches resolve on the integer ALUs.  The predecoded image
#: resolves every PC's slot once (``ProgramImage.fu_slot``) and the core
#: keeps one flat counter per slot (``repro.uarch.funits.FUPool``).
FU_SLOT: Dict[FUClass, int] = {
    FUClass.INT_ALU: 0,
    FUClass.BRANCH: 0,
    FUClass.INT_MUL: 1,
    FUClass.INT_DIV: 1,
    FUClass.FP_ADD: 2,
    FUClass.FP_MUL: 3,
    FUClass.FP_DIV: 3,
    FUClass.MEM: 4,
    FUClass.NONE: 5,
}
NUM_FU_SLOTS = 6
