"""Functional interpreter for the reproduction ISA.

Serves three roles:

* oracle for the timing simulator's correctness checks,
* dynamic-trace generator for the trace-driven analysis tools, and
* executable semantics for the workload test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .instructions import (
    K_ALU,
    K_BRANCH,
    K_HALT,
    K_JUMP,
    K_LOAD,
    K_NOP,
    K_STORE,
    NUM_LOGICAL_REGS,
    Instruction,
)
from .program import Program


class InterpError(RuntimeError):
    """Raised on runaway executions or malformed memory accesses.

    Step-limit exhaustion raises the :class:`StepLimitExceeded` subclass
    explicitly (unless the caller opts into partial results with
    ``allow_partial=True``), so a truncated functional run can never
    masquerade as a completed one.
    """


class StepLimitExceeded(InterpError):
    """``run`` consumed ``max_steps`` without reaching HALT.

    Carries the in-flight :class:`InterpResult` (``halted=False``, with
    the ``pc`` cursor) as ``partial`` so diagnostic callers can inspect
    how far execution got without opting into ``allow_partial``.
    """

    def __init__(self, message: str, partial: "InterpResult"):
        super().__init__(message)
        self.partial = partial


@dataclass
class InterpResult:
    """Outcome of one functional execution."""

    steps: int
    halted: bool
    regs: List[int]
    memory: Dict[int, int]
    #: dynamic conditional-branch count and taken count (quick stats)
    branches: int = 0
    taken: int = 0
    loads: int = 0
    stores: int = 0
    #: resume cursor: the next PC to execute (the HALT's own pc when
    #: ``halted``; out of code range when execution ran off the end)
    pc: int = 0

    def reg(self, n: int) -> int:
        return self.regs[n]

    def mem_word(self, addr: int) -> int:
        return self.memory.get(addr, 0)


#: Optional per-instruction observer: fn(pc, instr, result_value, eff_addr)
TraceHook = Callable[[int, Instruction, Optional[int], Optional[int]], None]


def run(
    program: Program,
    max_steps: int = 2_000_000,
    trace_hook: Optional[TraceHook] = None,
    regs: Optional[List[int]] = None,
    memory: Optional[Dict[int, int]] = None,
    start_pc: int = 0,
    allow_partial: bool = False,
) -> InterpResult:
    """Execute ``program`` functionally until HALT or ``max_steps``.

    ``regs``/``memory`` may be supplied to resume or seed state; they are
    mutated in place when given, and ``start_pc`` sets the resume cursor
    (together these three are exactly a functional checkpoint — see
    :mod:`repro.sampling.checkpoint`).

    Exhausting ``max_steps`` raises :class:`StepLimitExceeded` so a
    truncated run cannot masquerade as a completed one.  Fast-forward
    callers that *want* to stop at an instruction boundary pass
    ``allow_partial=True`` and receive the partial :class:`InterpResult`
    (``halted=False``) with the ``pc`` cursor ready for resumption.
    """
    code = program.code
    if regs is None:
        regs = [0] * NUM_LOGICAL_REGS
    if memory is None:
        memory = program.initial_memory()

    # Interpret over the shared decode-once image (repro.isa.predecode):
    # flat per-pc tuples replace attribute chases, and the or-zero
    # register encoding makes operand reads branchless (evaluation
    # callables ignore their unused operands).
    from .predecode import predecode
    image = predecode(program)
    ncode = image.n
    kind_a = image.kind
    rd_a = image.rd
    rs1_a = image.rs1
    rs2_a = image.rs2
    imm_a = image.imm
    target_a = image.target
    alu_a = image.alu_fn
    branch_a = image.branch_fn

    pc = start_pc
    steps = branches = taken = loads = stores = 0
    mask64 = (1 << 64) - 1
    mem_get = memory.get

    while 0 <= pc < ncode:
        if steps >= max_steps:
            partial = InterpResult(steps=steps, halted=False, regs=regs,
                                   memory=memory, branches=branches,
                                   taken=taken, loads=loads, stores=stores,
                                   pc=pc)
            if allow_partial:
                return partial
            raise StepLimitExceeded(
                f"program {program.name!r} exceeded {max_steps} steps "
                f"(pc={pc}) without reaching HALT", partial)
        steps += 1
        kind = kind_a[pc]
        next_pc = pc + 1
        result: Optional[int] = None
        eff_addr: Optional[int] = None

        if kind == K_ALU:
            result = alu_a[pc](regs[rs1_a[pc]], regs[rs2_a[pc]], imm_a[pc])
            regs[rd_a[pc]] = result
        elif kind == K_LOAD:
            eff_addr = (regs[rs1_a[pc]] + imm_a[pc]) & mask64
            result = mem_get(eff_addr, 0)
            regs[rd_a[pc]] = result
            loads += 1
        elif kind == K_STORE:
            eff_addr = (regs[rs1_a[pc]] + imm_a[pc]) & mask64
            memory[eff_addr] = regs[rs2_a[pc]]
            stores += 1
        elif kind == K_BRANCH:
            branches += 1
            if branch_a[pc](regs[rs1_a[pc]], regs[rs2_a[pc]]):
                taken += 1
                next_pc = target_a[pc]
        elif kind == K_JUMP:
            next_pc = target_a[pc]
        elif kind == K_HALT:
            if trace_hook is not None:
                trace_hook(pc, code[pc], None, None)
            return InterpResult(steps=steps, halted=True, regs=regs,
                                memory=memory, branches=branches, taken=taken,
                                loads=loads, stores=stores, pc=pc)
        elif kind == K_NOP:
            pass
        else:  # pragma: no cover - defensive
            raise InterpError(
                f"unimplemented opcode {code[pc].op!r} at pc={pc}")

        if trace_hook is not None:
            trace_hook(pc, code[pc], result, eff_addr)
        pc = next_pc

    return InterpResult(steps=steps, halted=False, regs=regs, memory=memory,
                        branches=branches, taken=taken, loads=loads,
                        stores=stores, pc=pc)
