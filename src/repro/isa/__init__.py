"""ISA substrate: opcodes, instructions, assembler, functional interpreter."""

from .assembler import Assembler, AssemblerError, assemble
from .instructions import NUM_LOGICAL_REGS, Instruction, make_nop
from .interp import (
    InterpError,
    InterpResult,
    StepLimitExceeded,
    run,
)
from .opcodes import (
    ALU_EVAL,
    BRANCH_COND,
    COND_BRANCHES,
    FU_LATENCY,
    FU_OF_OP,
    FU_SLOT,
    MASK64,
    NUM_FU_SLOTS,
    FUClass,
    Op,
    to_signed,
    to_unsigned,
)
from .predecode import ProgramImage, image_digest, predecode
from .program import DATA_BASE, WORD, Program

__all__ = [
    "ALU_EVAL",
    "Assembler",
    "AssemblerError",
    "BRANCH_COND",
    "COND_BRANCHES",
    "DATA_BASE",
    "FUClass",
    "FU_LATENCY",
    "FU_OF_OP",
    "FU_SLOT",
    "Instruction",
    "InterpError",
    "InterpResult",
    "StepLimitExceeded",
    "MASK64",
    "NUM_FU_SLOTS",
    "NUM_LOGICAL_REGS",
    "Op",
    "Program",
    "ProgramImage",
    "WORD",
    "assemble",
    "image_digest",
    "make_nop",
    "predecode",
    "run",
    "to_signed",
    "to_unsigned",
]
from .encoding import (INSTRUCTION_SIZE, EncodingError, decode_instruction, decode_program, encode_instruction, encode_program)
