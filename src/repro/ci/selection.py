"""Slice selection — which strided loads get vectorized (steps 2–3).

The third component of the mechanism pipeline.  It owns the stride
predictor and decides *which* confident strided loads are worth
replicating:

* :class:`SliceSelector`       — the paper's CI masking: only loads in
  the backward slice of a control-independent instruction (clean sources
  past the re-convergent point of an armed reuse event) are selected,
  via the stridedPC rename field and the S flag;
* :class:`GreedySliceSelector` — the full dynamic-vectorization
  comparator [12]: *every* confident strided load is vectorized, no
  control-independence filtering at all.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from ..observe.events import EventKind
from .stride import StridePredictor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..uarch.rob import DynInst
    from .pipeline import MechanismPipeline


class SliceSelector:
    """CI masking: select strided loads in control-independent slices."""

    kind = "ci"

    #: greedy selectors vectorize unselected confident loads too
    greedy = False

    def attach(self, pipeline: "MechanismPipeline") -> None:
        # Non-owning back-references (DESIGN.md §9.6); ``pipeline.core``
        # is already one.
        self.pipeline = weakref.proxy(pipeline)
        self.core = pipeline.core
        fields = pipeline.rename_fields
        assert fields is not None  # built with every selector
        self.strided_pcs = fields.strided_pcs
        cfg = pipeline.cfg
        self.cfg = cfg
        events = pipeline.core.events
        self._emit_ci_selected = events[EventKind.CI_SELECTED]
        self._emit_slice_marked = events[EventKind.SLICE_MARKED]
        self.stats = pipeline.stats
        self.stride = StridePredictor(cfg.stride_sets, cfg.stride_ways)

    def on_ci_candidate(self, inst: "DynInst") -> None:
        """Step 2: a post-re-convergence instruction with clean sources is
        control independent; select the strided loads it depends on.

        Called by the tracker for every decode past an armed CRP's
        re-convergent point."""
        instr = inst.instr
        if not instr.srcs and instr.rd is None:
            return
        tracker = self.pipeline.tracker
        assert tracker is not None  # candidates only come from a tracker
        if not tracker.crp.sources_clean(instr.srcs):
            return
        ev = tracker.event
        if ev is not None and not ev.counted_selected:
            ev.selected = True
            ev.counted_selected = True
            self.stats.ci_selected += 1
            if self._emit_ci_selected is not None:
                self._emit_ci_selected(ev, inst.pc, self.core.cycle)
        # Select every strided load in the backward slice (the stridedPC
        # rename field) for vectorization next time it is fetched.
        strided_pcs = self.strided_pcs
        emit_slice_marked = self._emit_slice_marked
        for r in instr.srcs:
            for lpc in strided_pcs[r]:
                ok = self.stride.mark_selected(
                    lpc, ev, conflict_blacklist=self.cfg.ci_conflict_blacklist)
                if emit_slice_marked is not None:
                    emit_slice_marked(ev, lpc, ok, self.core.cycle)


class GreedySliceSelector(SliceSelector):
    """No CI masking: every confident strided load is a candidate [12]."""

    kind = "greedy"
    greedy = True

    def on_ci_candidate(self, inst: "DynInst") -> None:
        """Greedy selection has no notion of CI candidates (and no
        tracker to produce them); selection happens implicitly in the
        replica manager's confidence check."""
