"""Per-cycle state-machine invariant checking (``--check`` / ``REPRO_CHECK``).

:class:`InvariantChecker` is a read-only observer that audits the
simulator's cross-layer bookkeeping at the end of every cycle:

**core** — the window is seq-ordered and holds no committed instruction;
``lsq_count`` equals the memory instructions actually in the window; the
rename free list stays within ``[0, capacity]`` and its in-use count
equals the registers held by in-flight instructions plus live replica
batches; the committed counter is monotone.

**NRBQ** — never exceeds capacity; entries stay seq-ascending (oldest →
youngest, the order squash/retire depend on).

**CRP** — the disarmed state is fully cleared (``pc == -1``, ``reached``
False, ``mask`` 0); an armed CRP has a real re-convergent PC.

**SRSMT** — per entry: ``0 <= commit, decode <= nregs``; a completed
replica was issued; in-flight issue count equals issued-minus-done;
``regs_held`` is non-negative; and (with the recovery-time cursor repair
enabled, the default) ``commit <= decode`` — replicas never commit past
the decode cursor.  Every replica parked on an operand waits on a live
entry: deallocation drops the wait lists keyed by the dead entry.

**stride predictor** — confidence stays within the 2-bit counter range.

Violations are collected (``strict=False``) or raised immediately as
:class:`InvariantViolation` (``strict=True``, the ``--check`` default).
Checking is opt-in and costs a window walk per cycle, so the default
path pays nothing.
"""

from __future__ import annotations

from typing import List, Optional

from ..observe.base import Observer

#: 2-bit stride-confidence counter bound (mirrors ci/stride.py)
_CONF_MAX = 3


class InvariantViolation(RuntimeError):
    """A state-machine invariant did not hold at the end of a cycle."""


class InvariantChecker(Observer):
    """Read-only observer asserting simulator invariants every cycle."""

    name = "invariants"

    def __init__(self, strict: bool = True):
        self.strict = strict
        self.violations: List[str] = []
        self.checked_cycles = 0
        self._last_committed = 0

    # ------------------------------------------------------------------
    def _fail(self, core, msg: str) -> None:
        text = f"{core.program.name} cycle {core.cycle}: {msg}"
        self.violations.append(text)
        if self.strict:
            raise InvariantViolation(text)

    @staticmethod
    def _mechanism(core):
        """The mechanism pipeline, unwrapping a fault injector if present."""
        hooks = core.hooks
        hooks = getattr(hooks, "inner", hooks)
        return hooks if getattr(hooks, "tracker", None) is not None \
            or getattr(hooks, "replicas", None) is not None else None

    # ------------------------------------------------------------------
    def on_cycle_end(self, core) -> None:
        self.checked_cycles += 1
        self._check_core(core)
        mech = self._mechanism(core)
        if mech is not None:
            if mech.tracker is not None:
                self._check_tracker(core, mech.tracker)
            if mech.replicas is not None:
                self._check_replicas(core, mech)
            if mech.selector is not None:
                self._check_stride(core, mech.selector.stride)

    # -- core ------------------------------------------------------------
    def _check_core(self, core) -> None:
        prev_seq = -1
        mem_insts = 0
        regs_in_window = 0
        for inst in core.window:
            if inst.seq <= prev_seq:
                self._fail(core, f"window out of order: seq {inst.seq} "
                                 f"after {prev_seq}")
            prev_seq = inst.seq
            if inst.committed:
                self._fail(core, f"committed instruction #{inst.seq} "
                                 f"still in window")
            if inst.instr.is_mem:
                mem_insts += 1
            if inst.reg_allocated:
                regs_in_window += 1
        if core.lsq_count != mem_insts:
            self._fail(core, f"lsq_count={core.lsq_count} but window holds "
                             f"{mem_insts} memory instruction(s)")
        fl = core.freelist
        if not 0 <= fl.free <= fl.capacity:
            self._fail(core, f"free list out of range: free={fl.free} "
                             f"capacity={fl.capacity}")
        mech = self._mechanism(core)
        replica_regs = 0
        accountable = True
        if mech is not None and mech.replicas is not None:
            if mech.spec_mem is not None:
                accountable = False  # replicas live in the spec memory
            else:
                replica_regs = sum(e.regs_held
                                   for e in mech.replicas.srsmt.all_entries())
        if accountable and fl.in_use != regs_in_window + replica_regs:
            self._fail(core, f"free-list leak: in_use={fl.in_use} but "
                             f"window holds {regs_in_window} and replicas "
                             f"hold {replica_regs}")
        if core.stats.committed < self._last_committed:
            self._fail(core, "committed counter went backwards")
        self._last_committed = core.stats.committed

    # -- re-convergence tracking ----------------------------------------
    def _check_tracker(self, core, tracker) -> None:
        nrbq = tracker.nrbq
        if len(nrbq.entries) > nrbq.capacity:
            self._fail(core, f"NRBQ over capacity: {len(nrbq.entries)} > "
                             f"{nrbq.capacity}")
        prev = -1
        for e in nrbq.entries:
            if e.seq <= prev:
                self._fail(core, f"NRBQ out of order: seq {e.seq} "
                                 f"after {prev}")
            prev = e.seq
        crp = tracker.crp
        if crp.active:
            if crp.pc < 0:
                self._fail(core, "armed CRP has no re-convergent pc")
        elif crp.reached or crp.pc != -1 or crp.mask != 0:
            self._fail(core, f"disarmed CRP not cleared: pc={crp.pc} "
                             f"reached={crp.reached} mask={crp.mask:#x}")

    # -- replica management ---------------------------------------------
    def _check_replicas(self, core, mech) -> None:
        repair = core.cfg.ci_recovery_repair
        entries = mech.replicas.srsmt.all_entries()
        for e in entries:
            if not 0 <= e.commit <= e.nregs:
                self._fail(core, f"SRSMT pc={e.pc}: commit cursor "
                                 f"{e.commit} outside [0, {e.nregs}]")
            if not 0 <= e.decode <= e.nregs:
                self._fail(core, f"SRSMT pc={e.pc}: decode cursor "
                                 f"{e.decode} outside [0, {e.nregs}]")
            if repair and e.commit > e.decode:
                self._fail(core, f"SRSMT pc={e.pc}: commit {e.commit} "
                                 f"passed decode {e.decode}")
            in_flight = sum(1 for i, d in zip(e.issued, e.done) if i and not d)
            if e.issue != in_flight:
                self._fail(core, f"SRSMT pc={e.pc}: issue={e.issue} but "
                                 f"{in_flight} replica(s) in flight")
            for i in range(e.nregs):
                if e.done[i] and not e.issued[i]:
                    self._fail(core, f"SRSMT pc={e.pc}: replica {i} done "
                                     f"but never issued")
            if e.regs_held < 0:
                self._fail(core, f"SRSMT pc={e.pc}: negative regs_held "
                                 f"{e.regs_held}")
        live = {id(e) for e in entries}
        for producer, idx in mech.replicas.scheduler._waiters:
            if producer not in live:
                self._fail(core, f"replicas parked on output {idx} of a "
                                 f"deallocated SRSMT entry")

    # -- stride predictor -------------------------------------------------
    def _check_stride(self, core, stride) -> None:
        for pc, e in stride.table.items():
            if not 0 <= e.confidence <= _CONF_MAX:
                self._fail(core, f"stride pc={pc}: confidence "
                                 f"{e.confidence} outside [0, {_CONF_MAX}]")

    # ------------------------------------------------------------------
    def render(self) -> str:
        if not self.violations:
            return (f"invariants: OK "
                    f"({self.checked_cycles} cycle(s) checked)")
        lines = [f"invariants: {len(self.violations)} violation(s) over "
                 f"{self.checked_cycles} cycle(s)"]
        lines.extend(f"  {v}" for v in self.violations[:20])
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)

    def export_data(self) -> dict:
        return {"violations": list(self.violations),
                "checked_cycles": self.checked_cycles}
