"""MechanismPipeline — policy-assembled components on the typed hooks.

The mechanism layer is four separable hardware concerns (Section 2.3):

1. hard-branch filtering      — :mod:`repro.ci.filters`
2. re-convergence tracking    — :mod:`repro.ci.tracking`
3. strided-slice selection    — :mod:`repro.ci.selection`
4. replica management         — :mod:`repro.ci.replicas`

(plus the ``ci-iw`` squash-reuse unit, :mod:`repro.ci.squash_reuse`).

A :class:`MechanismPipeline` is one assembly of those components, chosen
by a :class:`~repro.ci.registry.PolicySpec` from the policy registry; it
implements the core's typed hook surface
(:class:`~repro.uarch.hooks.MechanismHooks`) by delegating each hook to
whichever components the policy installed.  Policies are therefore data:
``repro list`` lists them, and a new ablation is a new registry
entry, not new engine code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..observe.events import EventKind, ReuseEvent
from ..uarch.hooks import MechanismHooks
from .rename_fields import RenameFields
from .specmem import SpecDataMemory

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..uarch.core import Core, PortState
    from ..uarch.rob import DynInst
    from .filters import HardBranchFilter
    from .registry import PolicySpec
    from .replicas import ReplicaManager
    from .selection import SliceSelector
    from .squash_reuse import SquashReuseUnit
    from .tracking import ReconvergenceTracker


class MechanismPipeline(MechanismHooks):
    """Control-flow independence reuse as a pipeline of typed components."""

    #: fault-injection port (see ``repro.faults.FaultInjector``): an
    #: injector subscribed to the same core sets this to itself, and
    #: components pull planned denials/failures at their decision sites
    #: — injected faults ride the real failure paths instead of
    #: bypassing them
    faults: Optional[Any] = None

    def __init__(self, spec: Optional["PolicySpec"] = None):
        self.spec = spec
        self.core: Optional["Core"] = None

    # ------------------------------------------------------------------
    def attach(self, core: "Core") -> None:
        from .registry import build_components, get_policy
        super().attach(core)
        self._emit_mbs_verdict = core.events[EventKind.MBS_VERDICT]
        cfg = core.cfg
        self.cfg = cfg
        self.stats = core.stats
        spec = self.spec
        if spec is None:
            if cfg.ci_policy is None:
                raise ValueError(
                    "MechanismPipeline needs a PolicySpec or a config "
                    "with ci_policy set")
            spec = self.spec = get_policy(cfg.ci_policy)
        self.policy = spec.name
        self.spec_mem: Optional[SpecDataMemory] = None
        if cfg.spec_mem_size is not None:
            self.spec_mem = SpecDataMemory(
                cfg.spec_mem_latency, cfg.spec_mem_read_ports,
                cfg.spec_mem_write_ports)
        # Build + attach components in dependency order: the selector
        # reads the tracker, the replica manager reads the selector.
        components = build_components(spec, cfg)
        self.filter: "HardBranchFilter" = components["filter"]
        self.tracker: Optional["ReconvergenceTracker"] = components["tracker"]
        self.selector: Optional["SliceSelector"] = components["selector"]
        self.replicas: Optional["ReplicaManager"] = components["replicas"]
        self.squash_reuse: Optional["SquashReuseUnit"] = \
            components["squash_reuse"]
        #: kept with the slice selector that reads it (DESIGN §7.1)
        self.rename_fields = None if self.selector is None else \
            RenameFields(cfg.strided_pcs_per_entry, core.stats)
        self.filter.attach(self)
        if self.tracker is not None:
            self.tracker.attach(self)
        if self.selector is not None:
            self.selector.attach(self)
        if self.replicas is not None:
            self.replicas.attach(self)
        if self.squash_reuse is not None:
            self.squash_reuse.attach(self)
        # The core taxes store commit with the coherence check only when
        # replicated state exists to check against (Section 2.4.3).
        self.has_replicas = self.replicas is not None
        # Flatten the dispatch delegation: it runs for every dynamic
        # instruction (wrong paths included), so bind the installed
        # components' handlers once, the rename fields first (§7.1).
        handlers = tuple(c.on_dispatch for c in
                         (self.rename_fields, self.tracker,
                          self.squash_reuse if self.squash_reuse is not None
                          else self.replicas)
                         if c is not None)
        if handlers:
            def _on_dispatch(inst, _handlers=handlers):
                for handler in _handlers:
                    handler(inst)

            self.on_dispatch = _on_dispatch

    # ------------------------------------------------------------------
    # Shared event accounting (Figure 5 attribution).
    # ------------------------------------------------------------------
    def credit_reuse(self, event) -> None:
        """Credit one successful reuse to its originating misprediction."""
        if isinstance(event, ReuseEvent) and not event.counted_reused:
            event.reused = True
            event.counted_reused = True
            self.stats.ci_reused += 1

    # ------------------------------------------------------------------
    # Hook surface: delegate to the installed components (``attach``
    # installs ``on_dispatch``).
    # ------------------------------------------------------------------
    def on_branch_resolved(self, inst: "DynInst") -> None:
        inst.hard_branch = self.filter.is_hard(inst.pc)
        if self._emit_mbs_verdict is not None:
            self._emit_mbs_verdict(inst.pc, inst.hard_branch,
                                   inst.mispredicted, self.core.cycle)

    def on_recovery(self, pivot: "DynInst", squashed, is_branch: bool) -> None:
        if self.rename_fields is not None:
            self.rename_fields.on_recovery(pivot.seq)
        if self.tracker is not None:
            if is_branch and pivot.hard_branch:
                self.tracker.on_misprediction(pivot, squashed)
            self.tracker.squash_younger(pivot.seq)
        if self.replicas is not None and is_branch:
            self.replicas.on_recovery()

    def on_commit(self, inst: "DynInst") -> None:
        instr = inst.instr
        if instr.is_cond_branch:
            self.filter.train(inst.pc, inst.actual_taken)
            if self.tracker is not None:
                self.tracker.on_branch_retire(inst.seq)
            return
        if self.rename_fields is not None:
            self.rename_fields.on_commit(inst)
        if self.replicas is not None:
            self.replicas.on_commit(inst)

    def on_store_commit(self, inst: "DynInst") -> bool:
        if self.replicas is None:
            return False
        return self.replicas.on_store_commit(inst)

    def dispatch_gate(self) -> bool:
        if self.replicas is None:
            return True
        return self.replicas.dispatch_gate()

    def on_cycle(self, leftover_issue_slots: int, ports: "PortState") -> None:
        if self.replicas is not None:
            self.replicas.on_cycle(leftover_issue_slots, ports)

    def next_event_cycle(self):
        # Only the replica manager does per-cycle work (issue + drain);
        # the filter/tracker/selector/squash-reuse components act solely
        # at core events, which always veto the skip by definition.
        if self.replicas is None:
            return None
        return self.replicas.next_event_cycle()

    def validated_extra_latency(self, inst: "DynInst") -> int:
        if self.spec_mem is None:
            return 0
        self.stats.copy_uops += 1
        # Dependents read the copy through the bypass network as it drains
        # from the speculative memory; with the nominal 2-cycle memory the
        # visible cost is read-port queueing only (the paper reports the
        # copy path as non-critical: a 5-cycle memory costs just ~3%).
        return max(0, self.spec_mem.copy_latency(self.core.cycle) - 2)
