"""FaultInjector — perturb a live simulation through the event table.

The injector is a subscriber of the core's event table, listed ahead of
the mechanism (``uarch/hooks.py``): it overrides only the events it acts
on — branch resolution, the end-of-cycle hook and the skip-ahead query
— and fires the armed faults of its :class:`~repro.faults.plan.FaultPlan`
at their cycles.  Faults are injected through legitimate
microarchitectural entry points only — a forced squash flips the
recorded branch prediction before the core's recovery check, replica
faults go through the :class:`~repro.ci.pipeline.MechanismPipeline`
fault port — so every injection exercises a real recovery path rather
than corrupting simulator bookkeeping.

Correctness contract: no fault kind may change the *architectural*
outcome of the program.  Squashes re-fetch the correct path; poisoned
replicas and forced validation failures make reuse fail and the
instance re-execute; denied allocations just skip a replica batch.  The
differential oracle (:mod:`repro.faults.oracle`) holds the injector to
that contract after every run.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, List, Optional

from ..observe.events import EventKind
from ..uarch.hooks import MechanismHooks
from .plan import FaultPlan, FaultSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..uarch.core import Core, PortState
    from ..uarch.rob import DynInst

#: XOR mask used to corrupt a precomputed replica value (any non-zero
#: constant works; validation must catch the mismatch)
POISON_MASK = 0x5A5A5A5A


class InjectedCrash(RuntimeError):
    """A planned ``crash`` fault fired (runtime-resilience testing)."""


class FaultInjector(MechanismHooks):
    """Fire the plan's faults at their cycles, ahead of the mechanism."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        #: chronological log of fired faults (dicts; see ``_record``)
        self.injected: List[dict] = []

    # ------------------------------------------------------------------
    def attach(self, core: "Core") -> None:
        super().attach(core)
        self._emit_fault_injected = core.events[EventKind.FAULT_INJECTED]
        # Mechanism-internal faults (alloc denial, validation failure) are
        # pulled by the pipeline through this port at its decision sites;
        # the state poisons reach into its components.  Only a mechanism
        # has the port: an observer's ``faults`` (the audit trail's log)
        # is not one, and scal/wb runs have no mechanism at all.  The
        # core owns both subscribers, so neither edge between them owns
        # the other (DESIGN.md §9.6).
        mechanism = next(
            (s for s in core.subscribers if s is not self
             and isinstance(s, MechanismHooks) and hasattr(s, "faults")),
            None)
        self.mechanism = None
        if mechanism is not None:
            self.mechanism = weakref.proxy(mechanism)
            mechanism.faults = weakref.proxy(self)
        #: per-kind FIFO of armed specs for this program, cycle-ordered
        self._queues: Dict[str, List[FaultSpec]] = {}
        for spec in self.plan.for_program(core.program.name):
            self._queues.setdefault(spec.kind, []).append(spec)

    # ------------------------------------------------------------------
    # Arming / accounting.
    # ------------------------------------------------------------------
    def _due(self, kind: str) -> Optional[FaultSpec]:
        q = self._queues.get(kind)
        if q and q[0].cycle <= self.core.cycle:
            return q.pop(0)
        return None

    def _pending(self, kind: str) -> bool:
        q = self._queues.get(kind)
        return bool(q) and q[0].cycle <= self.core.cycle

    def _record(self, spec: FaultSpec, detail: str) -> None:
        now = self.core.cycle
        self.injected.append({"kind": spec.kind, "armed": spec.cycle,
                              "cycle": now, "detail": detail})
        if self._emit_fault_injected is not None:
            self._emit_fault_injected(spec.kind, detail, now)

    def unapplied(self) -> List[FaultSpec]:
        """Specs that never found an opportunity to fire."""
        return [s for q in self._queues.values() for s in q]

    def report(self) -> str:
        lines = [f"fault plan: {self.plan.describe()}"]
        for f in self.injected:
            lines.append(f"  cycle {f['cycle']:>6}  {f['kind']:<14} "
                         f"{f['detail']} (armed @{f['armed']})")
        left = self.unapplied()
        if left:
            lines.append(f"  {len(left)} fault(s) never applied: "
                         + ", ".join(s.to_spec() for s in left))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Pipeline fault port (pulled by ci/replicas.py).
    # ------------------------------------------------------------------
    def deny_alloc(self) -> bool:
        """True once per armed ``alloc-deny``: refuse this allocation."""
        spec = self._due("alloc-deny")
        if spec is None:
            return False
        self._record(spec, "denied one SRSMT replica-register allocation")
        return True

    def force_validation_failure(self, pc: int) -> bool:
        """True once per armed ``valfail``: fail this (good) validation."""
        spec = self._due("valfail")
        if spec is None:
            return False
        self._record(spec, f"forced validation failure at pc={pc}")
        return True

    # ------------------------------------------------------------------
    # Subscribed events.
    # ------------------------------------------------------------------
    def on_branch_resolved(self, inst: "DynInst") -> None:
        # Forced squash: flip the recorded prediction of a *correctly*
        # predicted, still-live branch.  The core's recovery check runs
        # right after this event and walks the window back to the
        # branch's true target — the standard misprediction path, at a
        # point the predictor got right.  (Flipping an already-mispredicted
        # branch would *suppress* its recovery and corrupt architectural
        # state.)
        if (self._pending("squash") and not inst.squashed
                and inst.pred_taken is not None and not inst.mispredicted):
            spec = self._queues["squash"].pop(0)
            inst.pred_taken = not inst.actual_taken
            self._record(spec, f"forced squash at branch pc={inst.pc} "
                               f"seq={inst.seq}")

    def next_event_cycle(self):
        # Undelivered faults arm/retry from on_cycle (crash timers tick,
        # state poisons probe for a live target), so the core must not
        # skip cycles while any remain queued.
        return 0 if any(self._queues.values()) else None

    def on_cycle(self, leftover_issue_slots: int, ports: "PortState") -> None:
        spec = self._due("crash")
        if spec is not None:
            self._record(spec, "injected worker crash")
            raise InjectedCrash(
                f"injected crash at cycle {self.core.cycle} in "
                f"{self.core.program.name!r}")
        # State-poisoning faults need a live target; they stay armed (and
        # retry every cycle) until one exists, so a fault armed before the
        # predictor warms up still fires.
        if self._pending("stride-poison"):
            detail = self._poison_stride()
            if detail is not None:
                self._record(self._queues["stride-poison"].pop(0), detail)
        if self._pending("replica-poison"):
            detail = self._poison_replica()
            if detail is not None:
                self._record(self._queues["replica-poison"].pop(0), detail)

    # ------------------------------------------------------------------
    # State poisoning.
    # ------------------------------------------------------------------
    def _poison_stride(self) -> Optional[str]:
        """Corrupt the lowest-pc confident stride entry (if any)."""
        selector = getattr(self.mechanism, "selector", None)
        if selector is None:
            return None
        stride = selector.stride
        victim_pc, victim = None, None
        for pc, entry in stride.table.items():
            if entry.confidence >= 2 and entry.stride != 0 \
                    and (victim_pc is None or pc < victim_pc):
                victim_pc, victim = pc, entry
        if victim is None:
            return None
        old = victim.stride
        victim.stride = old + 8
        victim.last_addr += 8
        return (f"poisoned stride predictor at pc={victim_pc} "
                f"(stride {old} -> {victim.stride})")

    def _poison_replica(self) -> Optional[str]:
        """XOR-corrupt the precomputed values of one live replica batch."""
        replicas = getattr(self.mechanism, "replicas", None)
        if replicas is None:
            return None
        entries = sorted(replicas.srsmt.all_entries(), key=lambda e: e.pc)
        for entry in entries:
            hit = 0
            for i in range(entry.decode, entry.nregs):
                if entry.done[i] and entry.values[i] is not None:
                    entry.values[i] ^= POISON_MASK
                    hit += 1
            if hit:
                return (f"poisoned {hit} replica value(s) at pc={entry.pc} "
                        f"(entry generation {entry.generation})")
        return None
