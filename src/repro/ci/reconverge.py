"""Re-convergent point estimation: NRBQ, CRP, and the paper's heuristics.

Step 1 of the mechanism (Section 2.3.1) plus the mask machinery of step 2
(Section 2.3.2).

Heuristics (identification need not be correct — wrong estimates only cost
performance, never correctness):

* **Backward branch** (loop-closing): the re-convergent point is the next
  sequential instruction after the branch.
* **Forward branch**: inspect the instruction one location *above* the
  branch target.  If it is an unconditional forward branch (the common
  if-then-else shape), the re-convergent point is that branch's target;
  otherwise (if-then shape) it is the conditional branch's own target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..isa import Instruction, Program


def estimate_reconvergent_point(program: Program, branch: Instruction) -> int:
    """Apply the paper's static heuristic to a conditional branch.

    Returns the estimated re-convergent PC.  The estimate may be wrong for
    irregular control flow; callers treat it as a hint.
    """
    if not branch.is_cond_branch:
        raise ValueError(f"not a conditional branch: {branch}")
    if branch.is_backward_branch:
        return branch.pc + 1
    above = program.instruction_above(branch.target)
    if above is not None and above.is_jump and above.target is not None \
            and above.target > above.pc:
        # if-then-else: `j join` sits right above the else-part entry.
        return above.target
    # if-then: both paths re-join at the branch target.
    return branch.target


@dataclass
class NRBQEntry:
    """One in-flight conditional branch tracked by the NRBQ."""

    branch_pc: int
    reconv_pc: int
    seq: int          # dynamic sequence number of the branch


class NRBQ:
    """Not Retired Branch Queue (16 entries in the paper's configuration).

    The queue is ordered oldest → youngest; a newly fetched conditional
    branch appends an entry carrying its estimated re-convergent point.
    The paper also keeps a per-entry register write mask here to seed the
    CRP.  This model derives that mask from the squashed wrong path
    instead (``ReconvergenceTracker._wrong_path_mask``), so entries carry
    none.
    """

    def __init__(self, capacity: int = 16):
        self.capacity = capacity
        self.entries: List[NRBQEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def on_branch_fetch(self, branch_pc: int, reconv_pc: int, seq: int) -> Optional[NRBQEntry]:
        """Append an entry for a newly fetched conditional branch.

        Returns the new entry, or ``None`` if the queue is full (the branch
        is then simply not tracked — a performance-only loss).
        """
        if len(self.entries) >= self.capacity:
            return None
        entry = NRBQEntry(branch_pc=branch_pc, reconv_pc=reconv_pc, seq=seq)
        self.entries.append(entry)
        return entry

    def on_branch_retire(self, seq: int) -> None:
        """Drop entries for branches at least as old as ``seq``."""
        while self.entries and self.entries[0].seq <= seq:
            self.entries.pop(0)

    def squash_younger(self, seq: int) -> None:
        """Remove entries for squashed (younger-than-``seq``) branches."""
        while self.entries and self.entries[-1].seq > seq:
            self.entries.pop()

    def find(self, seq: int) -> Optional[NRBQEntry]:
        for e in self.entries:
            if e.seq == seq:
                return e
        return None


@dataclass
class CRP:
    """Current Re-convergent Point register.

    Holds the estimated re-convergent PC of the most recent qualifying
    misprediction, the R (reached) flag, and the dirty-register mask
    accumulated since the branch was fetched (wrong path from the squashed
    instructions, correct path via :meth:`on_decode`).
    """

    pc: int = -1
    reached: bool = False
    mask: int = 0
    active: bool = False
    branch_pc: int = -1
    branch_seq: int = -1

    def arm(self, branch_pc: int, branch_seq: int, reconv_pc: int, initial_mask: int) -> None:
        self.pc = reconv_pc
        self.reached = False
        self.mask = initial_mask
        self.active = True
        self.branch_pc = branch_pc
        self.branch_seq = branch_seq

    def disarm(self) -> None:
        self.active = False
        self.reached = False
        self.pc = -1
        self.mask = 0

    def on_decode(self, pc: int, dest_reg: Optional[int]) -> bool:
        """Process one decoded correct-path instruction.

        Returns ``True`` if this instruction is at or past the re-convergent
        point (i.e. a candidate control-independent instruction).
        """
        if not self.active:
            return False
        if not self.reached:
            if pc == self.pc:
                self.reached = True
                return True
            if dest_reg is not None:
                self.mask |= 1 << dest_reg
            return False
        return True

    def sources_clean(self, srcs) -> bool:
        """True iff none of ``srcs`` was written between branch and CRP."""
        for r in srcs:
            if self.mask & (1 << r):
                return False
        return True
