"""Static instruction representation.

``Instruction`` is the decoded, label-resolved form a program is made of.
PCs are instruction indices (the ISA is word-addressed for code); the
paper's "instruction situated one location above the target address" is
``program.code[target - 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .opcodes import (
    ALU_EVAL,
    BRANCH_COND,
    COND_BRANCHES,
    FU_OF_OP,
    NO_SRC_ALU,
    ONE_SRC_ALU,
    REG_REG_ALU,
    TWO_SRC_BRANCHES,
    FUClass,
    Op,
)

NUM_LOGICAL_REGS = 64

# Execution-dispatch kinds, precomputed per instruction so the timing
# core and the functional interpreter branch on one int instead of a
# chain of ``op in ALU_EVAL`` / ``op is Op.LD`` tests per dynamic
# instruction (measured hot path; ``perfbench/benchmark.py`` times it).
K_ALU = 0
K_LOAD = 1
K_STORE = 2
K_BRANCH = 3
K_JUMP = 4
K_NOP = 5
K_HALT = 6

#: op -> kind, indexable by ``int(op)``
KIND_OF_OP = [K_NOP] * (max(Op) + 1)
for _op in Op:
    if _op in ALU_EVAL:
        KIND_OF_OP[_op] = K_ALU
    elif _op is Op.LD:
        KIND_OF_OP[_op] = K_LOAD
    elif _op is Op.ST:
        KIND_OF_OP[_op] = K_STORE
    elif _op in BRANCH_COND:
        KIND_OF_OP[_op] = K_BRANCH
    elif _op is Op.J:
        KIND_OF_OP[_op] = K_JUMP
    elif _op is Op.HALT:
        KIND_OF_OP[_op] = K_HALT


@dataclass(frozen=True)
class Instruction:
    """One static instruction.

    ``rd``/``rs1``/``rs2`` are logical register numbers (or ``None``).
    ``imm`` is the immediate (also the displacement of loads/stores).
    ``target`` is the resolved branch/jump destination PC.
    """

    op: Op
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: int = 0
    target: Optional[int] = None
    pc: int = -1
    #: original assembly text — debugging metadata, excluded from equality
    text: str = field(default="", compare=False)
    srcs: Tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "srcs", self._compute_srcs())
        self._precompute()

    def _precompute(self) -> None:
        """Materialise the structural predicates as plain attributes.

        These used to be ``@property`` lookups; the timing core reads
        them several times per dynamic instruction, so descriptor +
        enum-comparison overhead was a measurable slice of simulation
        time.  ``alu_fn``/``branch_fn`` are the evaluation callables
        (or ``None``), resolved once per *static* instruction.
        """
        op = self.op
        _set = object.__setattr__
        _set(self, "kind", KIND_OF_OP[op])
        _set(self, "is_load", op is Op.LD)
        _set(self, "is_store", op is Op.ST)
        _set(self, "is_mem", op is Op.LD or op is Op.ST)
        _set(self, "is_cond_branch", op in COND_BRANCHES)
        _set(self, "is_jump", op is Op.J)
        _set(self, "is_control", op in COND_BRANCHES or op is Op.J)
        _set(self, "is_halt", op is Op.HALT)
        _set(self, "writes_reg", self.rd is not None)
        _set(self, "fu_class", FU_OF_OP[op])
        has_target = self.target is not None
        is_cond = op in COND_BRANCHES
        _set(self, "is_backward_branch",
             is_cond and has_target and self.target <= self.pc)
        _set(self, "is_forward_branch",
             is_cond and has_target and self.target > self.pc)
        _set(self, "alu_fn", ALU_EVAL.get(op))
        _set(self, "branch_fn", BRANCH_COND.get(op))

    # The evaluation callables are module-level lambdas and do not
    # pickle; strip them from the state and rebuild on load.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("alu_fn", None)
        state.pop("branch_fn", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._precompute()

    def _compute_srcs(self) -> Tuple[int, ...]:
        op = self.op
        if op in REG_REG_ALU or op in TWO_SRC_BRANCHES:
            return (self.rs1, self.rs2)
        if op in ONE_SRC_ALU or op is Op.LD:
            return (self.rs1,)
        if op in COND_BRANCHES:  # single-source zero-compare branches
            return (self.rs1,)
        if op is Op.ST:
            return (self.rs1, self.rs2)  # address base, stored value
        return ()

    # -- structural attributes (set by ``_precompute``) ------------------
    # ``is_load`` / ``is_store`` / ``is_mem`` / ``is_cond_branch`` /
    # ``is_jump`` / ``is_control`` / ``is_halt`` / ``writes_reg`` —
    # structural predicates of the opcode.
    # ``fu_class`` — the functional-unit class (FU_OF_OP[op]).
    # ``kind`` — execution-dispatch kind (K_ALU, K_LOAD, ...).
    # ``is_backward_branch`` — conditional branch whose target precedes
    # it (the paper's re-convergence heuristic treats these as
    # loop-closing branches); ``is_forward_branch`` its complement.
    # ``alu_fn`` / ``branch_fn`` — evaluation callables or None.

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.text:
            return f"{self.pc:5d}: {self.text}"
        return f"{self.pc:5d}: {self.op.name}"


def make_nop(pc: int = -1) -> Instruction:
    return Instruction(op=Op.NOP, pc=pc, text="nop")


_validity_checked = set()


def validate(instr: Instruction) -> None:
    """Sanity-check field population for an opcode (used by the assembler)."""
    op = instr.op
    if op in REG_REG_ALU:
        assert instr.rd is not None and instr.rs1 is not None and instr.rs2 is not None
    elif op in ONE_SRC_ALU:
        assert instr.rd is not None and instr.rs1 is not None
    elif op in NO_SRC_ALU:
        assert instr.rd is not None
    elif op is Op.LD:
        assert instr.rd is not None and instr.rs1 is not None
    elif op is Op.ST:
        assert instr.rs1 is not None and instr.rs2 is not None and instr.rd is None
    elif op in COND_BRANCHES or op is Op.J:
        assert instr.target is not None
    for r in instr.srcs + ((instr.rd,) if instr.rd is not None else ()):
        assert r is not None and 0 <= r < NUM_LOGICAL_REGS, f"bad register in {instr}"
