"""The rename map's stridedPC and V/S+Seq fields (DESIGN.md §7.1).

``strided_pcs`` holds the PCs of the strided loads in a value's backward
slice, capped at ``strided_pcs_per_entry`` (Section 2.3.2, Figure 4's
knob); ``vect_pc`` is Figure 7's V/S bit + Seq field, the PC of the
latest vectorized producer or ``None``.  Only the mechanism reads them,
so the pipeline keeps them and undoes them per register writer; an
undo record ``(seq, reg, vect_pc, strided_pcs)`` holds no instruction.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..isa import NUM_LOGICAL_REGS


class RenameFields:
    """stridedPC and V/S+Seq per logical register, undone per writer."""

    def __init__(self, cap: int, stats):
        self.cap = cap
        self.stats = stats
        self.vect_pc: List[Optional[int]] = [None] * NUM_LOGICAL_REGS
        self.strided_pcs: List[Tuple[int, ...]] = [()] * NUM_LOGICAL_REGS
        #: the dispatching writer's destination V/S before its write
        self.vect_before: Optional[int] = None
        #: one record per in-flight register writer, in window order
        self.undo: Deque[tuple] = deque()

    def on_dispatch(self, inst) -> None:
        """Rename the destination: record its undo, clear its V/S and
        write its sources' merged stridedPCs (a load starts empty)."""
        instr = inst.instr
        rd = instr.rd
        if rd is None:
            return
        before = self.vect_before = self.vect_pc[rd]
        self.undo.append((inst.seq, rd, before, self.strided_pcs[rd]))
        self.vect_pc[rd] = None
        srcs = instr.srcs
        self.write(rd, self.merge(srcs) if srcs and not instr.is_load
                   else ())

    def merge(self, srcs) -> Tuple[int, ...]:
        """Union of the sources' stridedPC sets, preserving order."""
        strided = self.strided_pcs
        out: List[int] = []
        for r in srcs:
            for pc in strided[r]:
                if pc not in out:
                    out.append(pc)
        return tuple(out)

    def write(self, r: int, strided_pcs: Tuple[int, ...]) -> None:
        if len(strided_pcs) > self.cap:
            self.stats.stridedpc_overflow += 1
            strided_pcs = strided_pcs[: self.cap]
        if strided_pcs:
            self.stats.stridedpc_assignments += 1
            self.stats.stridedpc_sum += len(strided_pcs)
        self.strided_pcs[r] = strided_pcs

    def seed_load(self, r: int, pc: int) -> None:
        """A confident strided load starts its slice, past the cap."""
        self.strided_pcs[r] = (pc,)
        self.stats.stridedpc_assignments += 1
        self.stats.stridedpc_sum += 1

    def on_recovery(self, pivot_seq: int) -> None:
        """Undo every writer younger than the pivot, youngest first."""
        undo = self.undo
        while undo and undo[-1][0] > pivot_seq:
            _, r, vect, spcs = undo.pop()
            self.vect_pc[r] = vect
            self.strided_pcs[r] = spcs

    def on_commit(self, inst) -> None:
        """A retired writer can no longer be undone: drop its record."""
        if self.undo and self.undo[0][0] == inst.seq:
            self.undo.popleft()
