"""The canonical event taxonomy — one vocabulary for every consumer.

Historically the repo grew three parallel event vocabularies: dynamic
trace records in ``trace/events.py``, per-misprediction accounting in
``ci/events.py``, and the observer hook names in ``observe/base.py``.
They are collapsed here into one taxonomy; the timing core, the
mechanism pipeline and the offline tracer all emit through it, and every
consumer (PipeTracer, CPIStack, AuditTrail, ``trace.analysis``) reads
one stream.

The taxonomy has three families:

* **pipeline events** — per-instruction stage transitions plus the
  per-cycle tick, emitted by ``uarch/core.py`` / ``uarch/frontend.py``;
* **mechanism events** — the CI pipeline's decisions (MBS verdicts, CRP
  arm/disarm, selection, allocation, validation, coherence), emitted by
  ``ci/pipeline.py`` and its components;
* **retire records** — :class:`RetireEvent`, the architectural trace of
  one retired dynamic instruction, produced offline by
  ``trace.collect_trace`` (and derivable online from ``COMMIT``).

Each :class:`EventKind` maps to exactly one :class:`Observer` hook
method (:data:`OBSERVER_HOOKS`); the core's event table
(``uarch/hooks.py``) binds observer events from this table, keyed by
kind, so the taxonomy and the hook protocol cannot drift apart.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..isa import Instruction


class EventKind(enum.Enum):
    """Every event the simulation can emit, in one namespace."""

    # -- pipeline family (timing core) -----------------------------------
    FETCH = "fetch"
    DISPATCH = "dispatch"
    ISSUE = "issue"
    WRITEBACK = "writeback"
    COMMIT = "commit"
    SQUASH = "squash"
    RECOVERY = "recovery"
    CYCLE_END = "cycle-end"

    # -- mechanism family (CI pipeline) ----------------------------------
    MBS_VERDICT = "mbs-verdict"
    CI_EVENT = "ci-event"
    CI_UNTRACKED = "ci-untracked"
    CRP_DISARM = "crp-disarm"
    CI_SELECTED = "ci-selected"
    SLICE_MARKED = "slice-marked"
    REPLICAS_CREATED = "replicas-created"
    SRSMT_ALLOC_FAIL = "srsmt-alloc-fail"
    VALIDATION = "validation"
    COHERENCE_CONFLICT = "coherence-conflict"
    #: a fault-injection harness perturbed the run (repro.faults)
    FAULT_INJECTED = "fault-injected"

    # -- retire family (architectural trace) -----------------------------
    RETIRE = "retire"


#: EventKind → the Observer hook method that delivers it.  ``RETIRE`` has
#: no hook: retire records are a data stream (lists of RetireEvent), not
#: a callback.  The core's event table binds observer events from it.
OBSERVER_HOOKS: Dict[EventKind, str] = {
    EventKind.FETCH: "on_fetch",
    EventKind.DISPATCH: "on_dispatch",
    EventKind.ISSUE: "on_issue",
    EventKind.WRITEBACK: "on_writeback",
    EventKind.COMMIT: "on_commit",
    EventKind.SQUASH: "on_squash",
    EventKind.RECOVERY: "on_recovery",
    EventKind.CYCLE_END: "on_cycle_end",
    EventKind.MBS_VERDICT: "on_mbs_verdict",
    EventKind.CI_EVENT: "on_ci_event",
    EventKind.CI_UNTRACKED: "on_ci_untracked",
    EventKind.CRP_DISARM: "on_crp_disarm",
    EventKind.CI_SELECTED: "on_ci_selected",
    EventKind.SLICE_MARKED: "on_slice_marked",
    EventKind.REPLICAS_CREATED: "on_replicas_created",
    EventKind.SRSMT_ALLOC_FAIL: "on_srsmt_alloc_fail",
    EventKind.VALIDATION: "on_validation",
    EventKind.COHERENCE_CONFLICT: "on_coherence_conflict",
    EventKind.FAULT_INJECTED: "on_fault_injected",
}

PIPELINE_KINDS: Tuple[EventKind, ...] = (
    EventKind.FETCH, EventKind.DISPATCH, EventKind.ISSUE,
    EventKind.WRITEBACK, EventKind.COMMIT, EventKind.SQUASH,
    EventKind.RECOVERY, EventKind.CYCLE_END,
)

MECHANISM_KINDS: Tuple[EventKind, ...] = (
    EventKind.MBS_VERDICT, EventKind.CI_EVENT, EventKind.CI_UNTRACKED,
    EventKind.CRP_DISARM, EventKind.CI_SELECTED, EventKind.SLICE_MARKED,
    EventKind.REPLICAS_CREATED, EventKind.SRSMT_ALLOC_FAIL,
    EventKind.VALIDATION, EventKind.COHERENCE_CONFLICT,
    EventKind.FAULT_INJECTED,
)


@dataclass(frozen=True)
class RetireEvent:
    """One retired dynamic instruction (the architectural trace record).

    Produced offline by ``trace.collect_trace`` from the functional
    interpreter; the same record is derivable online from the timing
    core's ``COMMIT`` events.  Feeds the offline analyses (branch bias,
    stride detection, re-convergence validation) and the oracle policy
    components.
    """

    seq: int                  # dynamic sequence number (0-based)
    pc: int                   # static PC (instruction index)
    instr: Instruction        # static instruction
    result: Optional[int]     # destination value (None if no destination)
    eff_addr: Optional[int]   # effective address for loads/stores
    next_pc: int              # PC of the following dynamic instruction
    #: For conditional branches: whether the branch was taken.
    taken: Optional[bool] = None

    kind = EventKind.RETIRE

    @property
    def is_load(self) -> bool:
        return self.instr.is_load

    @property
    def is_store(self) -> bool:
        return self.instr.is_store

    @property
    def is_cond_branch(self) -> bool:
        return self.instr.is_cond_branch


@dataclass
class ReuseEvent:
    """One hard-branch misprediction examined by the mechanism.

    The payload of :data:`EventKind.CI_EVENT`, threaded through the
    selection/validation events it causes (Figure 5 attribution):
    each examined event classifies as no control-independent instruction
    found (``selected`` stays False), at least one selected but never
    reused, or at least one precomputed instance successfully reused.
    """

    branch_pc: int
    seq: int
    selected: bool = False
    reused: bool = False
    #: credited to the stats exactly once each
    counted_selected: bool = False
    counted_reused: bool = False

    kind = EventKind.CI_EVENT
