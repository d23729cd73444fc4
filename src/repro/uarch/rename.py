"""Rename map table with the paper's extensions, plus the free list.

Each logical register maps to:

* ``owner`` — the youngest in-flight producer (``None`` once the value is
  architectural), used by the timing model for wakeup;
* ``vect_pc`` — the V/S bit + Seq field of Figure 7: the PC of the latest
  vectorized producer, or ``None``;
* ``strided_pcs`` — the stridedPC extension (Section 2.3.2): the PCs of
  the strided loads in the value's backward slice, capped at
  ``strided_pcs_per_entry`` (Figure 4's knob).
"""

from __future__ import annotations

from typing import List, Optional, Tuple


class RenameTable:
    """64-entry rename map with checkpoint-free undo (per-instruction)."""

    def __init__(self, num_regs: int = 64, strided_pcs_per_entry: int = 2):
        self.num_regs = num_regs
        self.cap = strided_pcs_per_entry
        self.owner: List[Optional[object]] = [None] * num_regs
        self.vect_pc: List[Optional[int]] = [None] * num_regs
        self.strided_pcs: List[Tuple[int, ...]] = [()] * num_regs
        #: stats hooks (wired by the core)
        self.overflow_count = 0
        self.assign_count = 0
        self.assign_sum = 0

    def snapshot_reg(self, r: int) -> tuple:
        """Undo record for logical register ``r``."""
        return (r, self.owner[r], self.vect_pc[r], self.strided_pcs[r])

    def restore_reg(self, rec: tuple) -> None:
        r, owner, vect, spcs = rec
        self.owner[r] = owner
        self.vect_pc[r] = vect
        self.strided_pcs[r] = spcs

    def write(self, r: int, owner: object, vect_pc: Optional[int],
              strided_pcs: Tuple[int, ...]) -> None:
        self.owner[r] = owner
        self.vect_pc[r] = vect_pc
        if len(strided_pcs) > self.cap:
            self.overflow_count += 1
            strided_pcs = strided_pcs[: self.cap]
        if strided_pcs:
            self.assign_count += 1
            self.assign_sum += len(strided_pcs)
        self.strided_pcs[r] = strided_pcs

    def merge_strided(self, srcs) -> Tuple[int, ...]:
        """Union of the sources' stridedPC sets, preserving order."""
        out: List[int] = []
        for r in srcs:
            for pc in self.strided_pcs[r]:
                if pc not in out:
                    out.append(pc)
        return tuple(out)

    def clear_owner_if(self, r: int, inst: object) -> None:
        """Called at commit: the value becomes architectural."""
        if self.owner[r] is inst:
            self.owner[r] = None


class FreeList:
    """Counted capacity pool: the physical-register free list (values
    live with instructions) or the speculative data memory's positions.

    For registers, ``capacity`` is the number available for renaming
    beyond the 64 architectural ones.  The control-independence
    mechanism's replicas draw from the same pool in monolithic mode
    (Section 2.4.2), and from a second ``FreeList`` sized
    ``spec_mem_size`` when a speculative data memory holds them
    (Section 2.4.6).

    ``slack`` is the proof behind capacity derivation (DESIGN §9.7):
    every allocation decision so far had at least ``slack`` entries to
    spare, so a pool up to ``slack`` entries smaller would have decided
    each one the same way, with ``free`` lower by a constant.  Every
    read of ``free`` that steers the machine goes through a method
    below, each recording its margin.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.free = capacity
        self.slack = capacity

    @property
    def in_use(self) -> int:
        return self.capacity - self.free

    def alloc(self, n: int = 1) -> bool:
        """Try to allocate ``n`` registers; all-or-nothing."""
        free = self.free - n
        if free < 0:
            return False  # a smaller file refuses too: no margin
        self.free = free
        if free < self.slack:
            self.slack = free
        return True

    def alloc_up_to(self, n: int, headroom: int = 0) -> int:
        """Allocate as many as possible, up to ``n``, while leaving
        ``headroom`` registers free; returns the count."""
        avail = self.free - max(0, headroom)
        if avail <= 0:
            return 0
        if avail < n:
            n = avail
            self.slack = 0  # cut short: any smaller file grants less
        elif avail - n < self.slack:
            self.slack = avail - n
        self.free -= n
        return n

    def free_at_least(self, need: int) -> bool:
        """Are ``min(need, capacity - 4)`` registers free?  (The stalled
        vector instruction's resume test.)"""
        free = self.free
        if free >= need:
            if free - need < self.slack:
                self.slack = free - need
            return True
        # Open only within 4 of full, which a smaller file reaches at
        # the same point: no margin.
        return free >= self.capacity - 4

    def release(self, n: int = 1) -> None:
        self.free += n
        assert self.free <= self.capacity, "free-list overflow (double release)"
