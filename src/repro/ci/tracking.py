"""Re-convergence tracking — NRBQ/CRP mask machinery (step 2).

The second component of the mechanism pipeline: follow every fetched
hard branch in the NRBQ with its estimated re-convergent point, and on a
hard misprediction arm the CRP with the wrong-path register mask so
post-re-convergence instructions with clean sources can be recognised as
control independent.

Two variants:

* :class:`ReconvergenceTracker`      — the paper's static single-pass
  heuristic (``estimate_reconvergent_point``), cached per branch PC;
* :class:`IdealReconvergenceTracker` — exact immediate post-dominators
  from the full CFG (the ``ci-ideal-reconv`` ablation): an upper bound
  on what a better re-convergence predictor — e.g. dynamic merge-point
  prediction — could recover over the heuristic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from ..isa import Instruction, Program
from ..isa.predecode import F_COND_BRANCH, F_WRITES_REG
from ..observe.events import ReuseEvent
from .reconverge import CRP, NRBQ, estimate_reconvergent_point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..uarch.rob import DynInst
    from .pipeline import MechanismPipeline


class ReconvergenceTracker:
    """NRBQ + CRP: track branches, arm on hard mispredictions."""

    kind = "static"

    def attach(self, pipeline: "MechanismPipeline") -> None:
        self.pipeline = pipeline
        cfg = pipeline.cfg
        self.cfg = cfg
        self.obs = pipeline.obs
        self.stats = pipeline.stats
        self.nrbq = NRBQ(cfg.nrbq_size)
        self.crp = CRP()
        self._reconv_cache: Dict[int, int] = {}
        #: the reuse event of the most recent armed misprediction
        self.event: Optional[ReuseEvent] = None
        self._decodes_since_reached = 0
        self._decodes_since_armed = 0
        # Decode-once image views for the per-dispatch hot path.  The
        # image's rd array is or-zero encoded, so precompute a per-PC
        # "destination or None" that the CRP mask can consume
        # directly (feeding the 0 placeholder would dirty register r0).
        image = pipeline.core.image
        self._flags = image.flags
        self._rd_or_none = tuple(
            rd if (f & F_WRITES_REG) else None
            for f, rd in zip(image.flags, image.rd))

    # -- re-convergence estimates (cached per branch PC) -----------------
    def _estimate(self, program: Program, instr: Instruction) -> int:
        return estimate_reconvergent_point(program, instr)

    def reconv(self, instr: Instruction) -> int:
        pc = instr.pc
        est = self._reconv_cache.get(pc)
        if est is None:
            est = self._estimate(self.pipeline.core.program, instr)
            self._reconv_cache[pc] = est
        return est

    # -- dispatch: NRBQ tracking + CRP mask -------------------------------
    def on_dispatch(self, inst: "DynInst") -> None:
        pc = inst.pc
        if self._flags[pc] & F_COND_BRANCH:
            est = self._reconv_cache.get(pc)
            if est is None:
                est = self._estimate(self.pipeline.core.program, inst.instr)
                self._reconv_cache[pc] = est
            self.nrbq.on_branch_fetch(pc, est, inst.seq)
        crp = self.crp
        if not crp.active:
            return
        past_reconv = crp.on_decode(pc, self._rd_or_none[pc])
        if not crp.active:
            return
        if past_reconv:
            self._decodes_since_reached += 1
            selector = self.pipeline.selector
            if selector is not None:
                selector.on_ci_candidate(inst)
            if self._decodes_since_reached > self.cfg.ci_select_window:
                self.crp.disarm()
                if self.obs is not None:
                    self.obs.on_crp_disarm("window-exhausted",
                                           self.pipeline.core.cycle)
        else:
            self._decodes_since_armed += 1
            if self._decodes_since_armed > 4 * self.cfg.ci_select_window:
                self.crp.disarm()  # estimate was never reached: give up
                if self.obs is not None:
                    self.obs.on_crp_disarm("never-reached",
                                           self.pipeline.core.cycle)

    # -- recovery: arm on a hard misprediction ---------------------------
    def on_misprediction(self, pivot: "DynInst",
                         squashed: List["DynInst"]) -> None:
        """A hard conditional branch mispredicted; try to arm the CRP.

        When the policy carries a squash-reuse unit instead of a CRP
        (``ci-iw``), the harvested results *are* the reuse — the unit
        takes over from the mask construction."""
        obs = self.obs
        nrbq_entry = self.nrbq.find(pivot.seq)
        if nrbq_entry is None:
            if obs is not None:
                obs.on_ci_untracked(pivot.pc, pivot.seq,
                                    self.pipeline.core.cycle)
            return  # branch was not tracked (NRBQ full)
        self.stats.ci_events += 1
        event = ReuseEvent(branch_pc=pivot.pc, seq=pivot.seq)
        self.event = event
        if obs is not None:
            obs.on_ci_event(event, pivot.pc, pivot.seq,
                            self.pipeline.core.cycle)
        mask0 = self._wrong_path_mask(nrbq_entry.reconv_pc, squashed)
        squash_reuse = self.pipeline.squash_reuse
        if squash_reuse is not None:
            squash_reuse.harvest(nrbq_entry.reconv_pc, mask0, squashed,
                                 event, pivot)
        else:
            self.crp.arm(pivot.pc, pivot.seq, nrbq_entry.reconv_pc, mask0)
            self._decodes_since_reached = 0
            self._decodes_since_armed = 0

    def squash_younger(self, seq: int) -> None:
        self.nrbq.squash_younger(seq)

    def on_branch_retire(self, seq: int) -> None:
        self.nrbq.on_branch_retire(seq)

    @staticmethod
    def _wrong_path_mask(reconv_pc: int, squashed: List["DynInst"]) -> int:
        """Registers written on the wrong path *before* the re-convergent
        point was reached (Section 2.3.2's CRP mask semantics: "written
        since the branch was fetched and before the re-convergent point is
        reached, in either the wrong or the correct path").  Wrong-path
        writes past re-convergence do not dirty the mask — those are the
        very instructions whose results control independence preserves."""
        mask = 0
        for inst in squashed:
            if inst.pc == reconv_pc:
                break
            rd = inst.instr.rd
            if rd is not None:
                mask |= 1 << rd
        return mask


# ---------------------------------------------------------------------------
# Ideal (CFG post-dominator) variant.
# ---------------------------------------------------------------------------

def compute_ipdoms(program: Program) -> Dict[int, int]:
    """Immediate post-dominator of every PC, from the full static CFG.

    A virtual exit node post-dominates everything (HALT and running off
    the end of the code both lead to it); branches whose only
    post-dominator is the exit map to ``-1`` (no re-convergent point
    inside the program).  Bitset dataflow — programs are kernel-sized.
    """
    code = program.code
    n = len(code)
    exit_node = n  # virtual exit
    succs: List[List[int]] = []
    for pc in range(n):
        instr = code[pc]
        if instr.is_halt:
            succs.append([exit_node])
        elif instr.is_jump:
            t = instr.target
            succs.append([t if 0 <= t < n else exit_node])
        elif instr.is_cond_branch:
            out = []
            for t in (pc + 1, instr.target):
                out.append(t if 0 <= t < n else exit_node)
            succs.append(out)
        else:
            succs.append([pc + 1 if pc + 1 < n else exit_node])
    full = (1 << (n + 1)) - 1
    pdom = [full] * (n + 1)
    pdom[exit_node] = 1 << exit_node
    changed = True
    while changed:
        changed = False
        for v in range(n - 1, -1, -1):
            acc = full
            for s in succs[v]:
                acc &= pdom[s]
            new = acc | (1 << v)
            if new != pdom[v]:
                pdom[v] = new
                changed = True
    # idom identity: pdom(ipdom(v)) == pdom(v) without v itself.
    ipdom: Dict[int, int] = {}
    for v in range(n):
        strict = pdom[v] & ~(1 << v)
        found = -1
        cand = strict
        while cand:
            c = (cand & -cand).bit_length() - 1
            if pdom[c] == strict:
                found = c if c != exit_node else -1
                break
            cand &= cand - 1
        ipdom[v] = found
    return ipdom


class IdealReconvergenceTracker(ReconvergenceTracker):
    """Exact re-convergent points from immediate post-dominators.

    Replaces the static forward-scan heuristic with the true immediate
    post-dominator of each branch (computed once per program).  Branches
    that only re-converge at program exit fall back to the heuristic's
    estimate so the NRBQ always has *some* PC to watch — matching how
    the paper's hardware always tracks an estimate.
    """

    kind = "ideal"

    def attach(self, pipeline: "MechanismPipeline") -> None:
        super().attach(pipeline)
        self._ipdoms = compute_ipdoms(pipeline.core.program)

    def _estimate(self, program: Program, instr: Instruction) -> int:
        ipdom = self._ipdoms.get(instr.pc, -1)
        if ipdom < 0:
            return estimate_reconvergent_point(program, instr)
        return ipdom
