"""Dynamic instructions and the unified instruction window (RUU-style)."""

from __future__ import annotations

from typing import List, Optional

from ..isa import Instruction

#: sentinel distinguishing "no previous memory value" from value 0
MEM_ABSENT = object()


class DynInst:
    """One in-flight dynamic instruction: a cursor over the static image.

    Functional results are computed at dispatch (sim-outorder style); the
    timing fields decide when they become architecturally visible.

    All static per-instruction facts live in the shared
    :class:`~repro.isa.predecode.ProgramImage` (indexed by ``pc``); a
    ``DynInst`` carries only its dynamic state.  ``__slots__`` keeps
    attribute access on the fast path — the core reads these fields many
    times per dynamic instruction, wrong paths included.

    A consumer references its producer through ``forward_store`` or its
    undo record ``rename_undo`` (its destination's previous owner), so
    the producer's ``consumers`` list would close a reference cycle.  The
    core therefore allocates that list on the first consumer and drops
    it at writeback or squash, and drops ``rename_undo`` at commit or
    undo: reference counting alone frees every instruction (DESIGN.md
    §9.6).
    """

    __slots__ = (
        "seq", "instr", "pc",
        # functional
        "result", "eff_addr", "actual_taken", "actual_next_pc",
        # branch prediction
        "pred_taken", "bp_history",
        # timing
        "num_pending", "consumers", "issued", "done", "done_cycle",
        "in_ready",
        # undo records
        "rename_undo", "mem_old", "reg_allocated", "sreg_old",
        # lifecycle
        "squashed", "committed",
        # memory dependence
        "forward_store",
        # control-independence mechanism
        "validated", "validated_entry", "hard_branch",
        "commit_ready_at",
    )

    def __init__(self, seq: int, instr: Instruction):
        self.seq = seq
        self.instr = instr
        self.pc = instr.pc
        self.result: Optional[int] = None
        self.eff_addr: Optional[int] = None
        self.actual_taken: Optional[bool] = None
        self.actual_next_pc: int = instr.pc + 1
        self.pred_taken: Optional[bool] = None
        self.bp_history: int = 0
        self.num_pending = 0
        self.consumers: Optional[List["DynInst"]] = None
        self.issued = False
        self.done = False
        self.done_cycle = -1
        self.in_ready = False
        self.rename_undo: Optional["DynInst"] = None
        self.mem_old = MEM_ABSENT
        self.reg_allocated = False
        self.sreg_old: Optional[int] = None
        self.squashed = False
        self.committed = False
        self.forward_store: Optional["DynInst"] = None
        self.validated = False
        self.validated_entry = None
        self.hard_branch = False
        #: validated instructions may commit before their copy µop finishes
        #: moving the value out of the speculative data memory
        self.commit_ready_at = -1

    @property
    def mispredicted(self) -> bool:
        return (self.instr.is_cond_branch
                and self.pred_taken is not None
                and self.pred_taken != self.actual_taken)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(c for c, f in (
            ("I", self.issued), ("D", self.done), ("C", self.committed),
            ("S", self.squashed), ("V", self.validated)) if f)
        return f"<#{self.seq} pc={self.pc} {self.instr.op.name} {flags}>"
