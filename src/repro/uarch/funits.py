"""Functional-unit pools: flat per-cycle issue budgets."""

from __future__ import annotations

from ..isa import FU_SLOT, NUM_FU_SLOTS, FUClass
from .config import ProcessorConfig


class FUPool:
    """Issue-slot budgets for one cycle, one flat counter per FU slot.

    Fully pipelined units: an instruction occupies its unit only in the
    issue cycle (as in SimpleScalar's default), so the budget resets
    every cycle.  Classes sharing physical units draw on one slot
    (``FU_SLOT``: divides on the multipliers, branches on the int ALUs,
    Table 1).  The core indexes ``avail`` by ``ProgramImage.fu_slot``
    and resets it each cycle with ``avail[:] = capacity``.
    """

    __slots__ = ("capacity", "avail")

    def __init__(self, cfg: ProcessorConfig):
        capacity = [0] * NUM_FU_SLOTS
        for fu, units in ((FUClass.INT_ALU, cfg.num_int_alu),
                          (FUClass.INT_MUL, cfg.num_int_muldiv),
                          (FUClass.FP_ADD, cfg.num_fp_add),
                          (FUClass.FP_MUL, cfg.num_fp_muldiv),
                          (FUClass.MEM, cfg.num_mem_units),
                          (FUClass.NONE, cfg.issue_width)):
            capacity[FU_SLOT[fu]] = units
        self.capacity = tuple(capacity)
        self.avail = capacity
