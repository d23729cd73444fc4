"""Hard-branch filters — who is allowed to arm a reuse event.

The first component of the mechanism pipeline (step 1 of Section 2.3):
classify each conditional branch as *hard* (low-bias, worth tracking for
control-independence reuse) or *easy*.  The paper's hardware filter is
the MBS, a set-associative table of 4-bit bias counters; the ablation
variants bound its contribution:

* :class:`MBSFilter`       — the paper's MBS (default);
* :class:`OracleBiasFilter`— offline-profiled branch bias, i.e. a
  perfect MBS with unbounded capacity and no warm-up (``ci-oracle-mbs``);
* :class:`AlwaysHardFilter`— no filtering: every branch may arm (this is
  what ``ci_mbs_filter=False`` configures);
* :class:`NeverHardFilter` — filter everything: an upper bound on how
  much of the policy's cost is filter-independent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from .mbs import MBS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .pipeline import MechanismPipeline


class HardBranchFilter:
    """Base filter: classifies branches; trains on every retired branch."""

    #: registry key (informational; shown by ``repro policies --verbose``)
    kind = "base"

    def attach(self, pipeline: "MechanismPipeline") -> None:
        """Build the filter's tables from ``pipeline.cfg``; a filter keeps
        no reference to the pipeline that owns it."""

    def train(self, pc: int, taken: bool) -> None:
        """One retired conditional branch (``pc`` went ``taken``)."""

    def is_hard(self, pc: int) -> bool:
        """Is the branch at ``pc`` currently classified hard-to-predict?"""
        raise NotImplementedError


class MBSFilter(HardBranchFilter):
    """The paper's Mispredicted Branch Selector (4-bit bias counters)."""

    kind = "mbs"

    def attach(self, pipeline: "MechanismPipeline") -> None:
        super().attach(pipeline)
        cfg = pipeline.cfg
        self.mbs = MBS(cfg.mbs_sets, cfg.mbs_ways)

    def train(self, pc: int, taken: bool) -> None:
        self.mbs.update(pc, taken)

    def is_hard(self, pc: int) -> bool:
        return self.mbs.is_hard(pc)


class AlwaysHardFilter(HardBranchFilter):
    """No filtering: every mispredicted branch may arm a reuse event."""

    kind = "always"

    def is_hard(self, pc: int) -> bool:
        return True


class NeverHardFilter(HardBranchFilter):
    """Filter everything: the mechanism never arms (cost floor)."""

    kind = "never"

    def is_hard(self, pc: int) -> bool:
        return False


class OracleBiasFilter(HardBranchFilter):
    """Perfect bias knowledge from an offline functional trace.

    At attach time the program runs once through the functional
    interpreter; each static branch's dynamic bias decides hardness with
    the same thresholds :class:`repro.trace.analysis.BranchStats` uses
    (``execs >= 8 and bias < 0.95``).  Branches the profile never saw
    (wrong-path-only PCs) default to hard, matching a cold MBS.  This is
    the ``ci-oracle-mbs`` ablation: it bounds how much of the mechanism's
    headroom the finite, late-training MBS leaves on the table.
    """

    kind = "oracle"

    def attach(self, pipeline: "MechanismPipeline") -> None:
        super().attach(pipeline)
        # Imported lazily: repro.trace imports repro.ci.reconverge, so a
        # module-level import here would tangle package initialisation.
        from ..trace import collect_trace, profile_trace
        profile = profile_trace(collect_trace(pipeline.core.program))
        self._hard: Dict[int, bool] = {
            pc: b.is_hard for pc, b in profile.branches.items()}

    def is_hard(self, pc: int) -> bool:
        return self._hard.get(pc, True)
