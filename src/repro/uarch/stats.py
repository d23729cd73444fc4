"""Simulation statistics — one counter per number the paper reports."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict


class SampledFloat(float):
    """A float derived from a sampled *estimate*, not an exact run.

    Behaves exactly like ``float`` everywhere (arithmetic returns plain
    floats), but carries ``sampled_marker`` so table renderers can
    prefix the value with ``~`` without every call site learning about
    sampling.  JSON serialisation is unchanged (it is a float).
    """

    sampled_marker = True


@dataclass
class SimStats:
    """Counters gathered by one timing-simulation run."""

    # Progress.
    cycles: int = 0
    fetched: int = 0
    dispatched: int = 0
    committed: int = 0
    #: committed instructions whose execution was skipped thanks to a
    #: validated replica (the "Reuse" portion of Figure 12)
    committed_reused: int = 0
    #: dispatched instructions later squashed by branch mispredictions
    #: (the "specBP" portion of Figure 12)
    squashed: int = 0

    # Branches.
    cond_branches: int = 0                # committed conditional branches
    mispredicts: int = 0                  # committed-path mispredictions
    mispredicts_hard: int = 0             # ... of MBS-hard branches

    # Control-independence accounting (Figure 5).
    ci_events: int = 0                    # hard mispredictions examined
    ci_selected: int = 0                  # ... with >=1 CI instruction found
    ci_reused: int = 0                    # ... with >=1 successful reuse

    # Replicas (the "specCI" portion of Figure 12).
    replicas_created: int = 0
    replicas_executed: int = 0
    replica_validations: int = 0
    replica_validation_failures: int = 0
    replica_batches: int = 0
    srsmt_alloc_failures: int = 0
    copy_uops: int = 0

    # Memory system.
    l1d_accesses: int = 0                 # Figure 8
    l1d_load_accesses: int = 0
    l1d_store_accesses: int = 0
    l1d_replica_accesses: int = 0
    l1d_misses: int = 0
    store_forwards: int = 0
    coherence_squashes: int = 0           # Section 2.4.3 conflicts
    stores_committed: int = 0

    # Register file pressure (Section 2.4.2).
    regs_in_use_samples: int = 0
    regs_in_use_sum: int = 0
    regs_in_use_peak: int = 0
    rename_stall_cycles: int = 0

    # Strided-PC propagation (Figure 4 / in-text 1.7 average).
    stridedpc_assignments: int = 0
    stridedpc_sum: int = 0
    stridedpc_overflow: int = 0

    # Speculative data memory.
    spec_mem_alloc_failures: int = 0

    #: IPC timeline: committed-instruction count sampled every
    #: ``interval_cycles`` cycles (shows predictor/mechanism warm-up)
    interval_cycles: int = 256
    interval_committed: list = field(default_factory=list)

    #: cycles the core advanced without ticking because every stage was
    #: provably stalled (idle-cycle skip-ahead, DESIGN §9); purely a
    #: simulator-efficiency diagnostic — identical runs with skip-ahead
    #: disabled produce the same ``cycles`` with ``skipped_cycles == 0``
    skipped_cycles: int = 0

    #: registers the free list never needed: a register file up to this
    #: many smaller makes every decision of this run the same way, so
    #: the runner answers it from these stats (DESIGN §9.7).  0 means
    #: no proof.  Like ``skipped_cycles`` it is simulator bookkeeping,
    #: kept out of ``as_dict``
    regs_slack: int = 0
    #: the same proof for the speculative data memory's positions: a
    #: memory up to this many positions smaller behaves identically.
    #: 0 without a spec memory (there is nothing to shrink) and, like
    #: ``regs_slack``, kept out of ``as_dict``
    spec_mem_slack: int = 0

    #: provenance: True when these stats are a sampled *estimate*
    #: stitched from detailed intervals (repro.sampling.estimate), never
    #: for an exact run.  ``sample_intervals`` is the interval count and
    #: ``sample_rel_ci`` the 95% relative half-width of the CPI estimate
    #: derived from interval-to-interval variance.
    sampled: bool = False
    sample_intervals: int = 0
    sample_rel_ci: float = 0.0

    def record_interval(self) -> None:
        self.interval_committed.append(self.committed)

    @property
    def interval_ipc(self) -> list:
        """Per-interval IPC series derived from the committed samples."""
        out = []
        prev = 0
        for c in self.interval_committed:
            out.append((c - prev) / self.interval_cycles)
            prev = c
        return out

    @property
    def ipc(self) -> float:
        value = self.committed / self.cycles if self.cycles else 0.0
        return SampledFloat(value) if self.sampled else value

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.cond_branches if self.cond_branches else 0.0

    @property
    def avg_regs_in_use(self) -> float:
        if not self.regs_in_use_samples:
            return 0.0
        return self.regs_in_use_sum / self.regs_in_use_samples

    @property
    def avg_stridedpcs(self) -> float:
        if not self.stridedpc_assignments:
            return 0.0
        return self.stridedpc_sum / self.stridedpc_assignments

    @property
    def reuse_fraction(self) -> float:
        """Fraction of committed instructions that reused a replica."""
        return self.committed_reused / self.committed if self.committed else 0.0

    @property
    def wrong_spec_activity(self) -> float:
        """Wrongly speculated work / total executed (in-text comparison)."""
        wasted = self.squashed + (self.replicas_executed - self.replica_validations)
        total = self.committed + self.squashed + self.replicas_executed
        return wasted / total if total else 0.0

    def record_reg_usage(self, in_use: int) -> None:
        self.regs_in_use_samples += 1
        self.regs_in_use_sum += in_use
        if in_use > self.regs_in_use_peak:
            self.regs_in_use_peak = in_use

    def as_dict(self) -> Dict[str, float]:
        """Reporting view: scalar counters plus the derived rates.

        The raw ``interval_committed`` sample list and the
        ``interval_cycles`` knob stay out (``interval_ipc`` is the
        derived series); use ``to_dict`` for the lossless form.  The
        sampling provenance fields appear only on sampled estimates, so
        exact-run reporting payloads (and the goldens pinning them) are
        unchanged by the sampling subsystem's existence.
        """
        skip = {"interval_committed", "interval_cycles", "skipped_cycles",
                "regs_slack", "spec_mem_slack"}
        if not self.sampled:
            skip |= {"sampled", "sample_intervals", "sample_rel_ci"}
        d = {k: v for k, v in self.__dict__.items() if k not in skip}
        d["ipc"] = self.ipc
        d["mispredict_rate"] = self.mispredict_rate
        d["avg_regs_in_use"] = self.avg_regs_in_use
        d["avg_stridedpcs"] = self.avg_stridedpcs
        d["reuse_fraction"] = self.reuse_fraction
        d["interval_ipc"] = self.interval_ipc
        d["wrong_spec_activity"] = self.wrong_spec_activity
        return d

    # ------------------------------------------------------------------
    # Lossless round-trip, used by the persistent result cache and for
    # shipping results back from simulation worker processes.  Unlike
    # ``as_dict`` (which mixes in derived rates for reporting), these
    # carry exactly the dataclass fields.
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-data form holding every field (JSON-serialisable)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimStats":
        """Rebuild a ``SimStats`` from ``to_dict`` output.

        Unknown keys are ignored so caches written by a newer schema
        degrade gracefully; missing keys keep their defaults.
        """
        names = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in names}
        if "interval_committed" in kwargs:
            kwargs["interval_committed"] = list(kwargs["interval_committed"])
        return cls(**kwargs)
