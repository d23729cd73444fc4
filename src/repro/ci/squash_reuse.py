"""Squash reuse ("ci-iw"): control independence limited to the window.

The paper's hypothetical comparison scheme (Figure 10): only control-
independent results that are already *inside the instruction window* when
the misprediction is detected can be reused.  We implement it as a reuse
buffer harvested during recovery: squashed wrong-path instructions past
the re-convergent point whose sources were untouched keep their results,
and the matching correct-path re-fetches skip execution after a value
check.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from ..observe.events import EventKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..uarch.rob import DynInst
    from .pipeline import MechanismPipeline


@dataclass
class ReuseRecord:
    pc: int
    result: int
    event: object = None


class SquashReuseBuffer:
    """One-misprediction-scoped reuse records (pc → precomputed result)."""

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self.records: Dict[int, ReuseRecord] = {}

    def clear(self) -> None:
        self.records.clear()

    def harvest(self, reconv_pc: int, initial_mask: int, squashed,
                event=None) -> int:
        """Collect reusable results from the squashed wrong path.

        ``squashed`` is the squashed instructions oldest → youngest.
        Returns the number of records harvested.
        """
        self.clear()
        mask = initial_mask
        reached = False
        harvested = 0
        for inst in squashed:
            instr = inst.instr
            if not reached:
                if inst.pc == reconv_pc:
                    reached = True
                else:
                    if instr.rd is not None:
                        mask |= 1 << instr.rd
                    continue
            if reached:
                # "Entered the instruction window" suffices (Figure 10's
                # ci-iw): in-flight wrong-path work past the re-convergent
                # point finishes executing while the front end refills.
                if (instr.rd is not None and not instr.is_store
                        and inst.result is not None
                        and all(not (mask >> r) & 1 for r in instr.srcs)):
                    if len(self.records) < self.capacity and inst.pc not in self.records:
                        self.records[inst.pc] = ReuseRecord(inst.pc, inst.result,
                                                            event)
                        harvested += 1
                elif instr.rd is not None:
                    # Result will differ on the correct path: poison it so
                    # dependents downstream are not harvested either.
                    mask |= 1 << instr.rd
        return harvested

    def match(self, pc: int, result: int) -> Optional[ReuseRecord]:
        """Consume the record for ``pc`` if the precomputed result is
        identical to the correct-path value (the reuse test)."""
        rec = self.records.pop(pc, None)
        if rec is None:
            return None
        if rec.result != result:
            return None
        return rec


class SquashReuseUnit:
    """Pipeline component wrapping the reuse buffer (the ``ci-iw`` policy).

    Replaces the selector + replica manager: on a hard misprediction the
    tracker hands it the squashed wrong path to harvest, and at dispatch
    matching correct-path re-fetches are validated against the harvested
    results instead of executing.
    """

    kind = "squash-reuse"

    def attach(self, pipeline: "MechanismPipeline") -> None:
        # Non-owning back-references (DESIGN.md §9.6); ``pipeline.core``
        # is already one.
        self.pipeline = weakref.proxy(pipeline)
        self.core = pipeline.core
        events = pipeline.core.events
        self._emit_ci_selected = events[EventKind.CI_SELECTED]
        self._emit_validation = events[EventKind.VALIDATION]
        self.stats = pipeline.stats
        self.buffer = SquashReuseBuffer(capacity=pipeline.cfg.window_size)

    def harvest(self, reconv_pc: int, mask0: int,
                squashed: List["DynInst"], event,
                pivot: "DynInst") -> None:
        """Harvest reusable results past the re-convergent point."""
        n = self.buffer.harvest(reconv_pc, mask0, squashed, event)
        if n and not event.counted_selected:
            event.selected = True
            event.counted_selected = True
            self.stats.ci_selected += 1
            if self._emit_ci_selected is not None:
                self._emit_ci_selected(event, pivot.pc,
                                       self.core.cycle)

    def on_dispatch(self, inst: "DynInst") -> None:
        """Validate a correct-path re-fetch against a harvested result."""
        instr = inst.instr
        if instr.rd is None or instr.is_store:
            return
        rec = self.buffer.match(inst.pc, inst.result)
        if rec is None:
            return
        inst.validated = True
        self.stats.replica_validations += 1
        self.pipeline.credit_reuse(rec.event)
        if self._emit_validation is not None:
            self._emit_validation(inst.pc, rec.event, True, "squash-reuse",
                                  self.core.cycle)
