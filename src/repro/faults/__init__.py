"""Fault injection + invariant checking for the simulation pipeline.

The mechanism reproduced here is defined by its recovery paths —
replica-validation failure, squash at a mispredicted re-convergence
estimate, SRSMT allocation pressure — so this subsystem exercises them
systematically instead of waiting for a workload to stumble into them:

* :class:`FaultPlan` / :class:`FaultSpec` — deterministic, seeded plans
  of forced squashes, replica-validation failures, SRSMT alloc denials,
  stride-predictor poisoning, replica-value poisoning, and (for the
  runtime-resilience tests) worker crashes;
* :class:`FaultInjector` — a subscriber of the core's event table,
  ahead of the mechanism, that fires the plan through legitimate
  microarchitectural entry points (the pipeline's fault port, the
  branch-resolution hook);
* :mod:`repro.faults.oracle` — the differential oracle holding every
  faulted run to the correctness contract: final architectural state
  (register file + memory) identical to the functional ``isa/interp``
  reference;
* :class:`InvariantChecker` — per-cycle CRP/NRBQ/SRSMT/core
  state-machine auditing (``--check`` / ``REPRO_CHECK``).

:func:`run_checked` bundles all of it into one call and returns a
:class:`FaultReport`; ``repro faults`` sweeps it across the suite.

One level up, :mod:`repro.faults.chaos` applies the same discipline to
the *serving* stack: seeded :class:`ChaosPlan` drills (daemon kills,
worker kills, dropped connections, journal corruption) against a real
``repro serve`` subprocess, audited for journal consistency and
stats equivalence with a serial reference — ``repro chaos`` runs them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .chaos import (CHAOS_KINDS, ChaosDriver, ChaosPlan, ChaosReport,
                    ChaosSpec, run_chaos)
from .injector import FaultInjector, InjectedCrash, POISON_MASK
from .invariants import InvariantChecker, InvariantViolation
from .oracle import (
    OracleMismatch,
    check_final_state,
    committed_state,
    diff_against_interpreter,
)
from .plan import CYCLE_LO, FAULT_KINDS, FaultPlan, FaultSpec

__all__ = [
    "CHAOS_KINDS",
    "ChaosDriver",
    "ChaosPlan",
    "ChaosReport",
    "ChaosSpec",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultReport",
    "FaultSpec",
    "InjectedCrash",
    "InvariantChecker",
    "InvariantViolation",
    "OracleMismatch",
    "POISON_MASK",
    "check_final_state",
    "committed_state",
    "diff_against_interpreter",
    "plan_for_run",
    "run_chaos",
    "run_checked",
]


def plan_for_run(program, cfg=None, count: int = 5, seed: int = 0,
                 kinds=FAULT_KINDS[:-1]) -> FaultPlan:
    """A generated plan whose arming cycles land inside the actual run.

    The default generation window (:data:`~repro.faults.plan.CYCLE_LO` /
    ``CYCLE_HI``) overshoots short kernels, leaving every fault armed
    past the halt.  This helper first runs the program *clean* to learn
    its cycle count, then seeds the plan into the first 90% of it, so
    sweeps inject faults that actually land.
    """
    from .. import hooks_for
    from ..uarch import ProcessorConfig, simulate

    cfg = cfg or ProcessorConfig()
    clean = simulate(program, cfg, hooks=hooks_for(cfg))
    hi = max(2, int(clean.cycles * 0.9))
    lo = min(CYCLE_LO, max(1, clean.cycles // 10))
    if lo >= hi:
        lo = 1
    return FaultPlan.generate(seed=seed, count=count, kinds=kinds,
                              lo=lo, hi=hi)


@dataclass
class FaultReport:
    """Outcome of one fault-injected, oracle-checked simulation."""

    program: str
    policy: Optional[str]
    stats: Optional[object]            # SimStats; None if the run crashed
    injected: List[dict] = field(default_factory=list)
    unapplied: int = 0
    violations: List[str] = field(default_factory=list)
    oracle_diffs: List[str] = field(default_factory=list)
    crashed: Optional[str] = None      # InjectedCrash message, if any

    @property
    def ok(self) -> bool:
        """No invariant violation and no architectural divergence.

        A planned crash is an *expected* outcome, not a failure — the
        oracle simply cannot compare a mid-program state."""
        return not self.violations and not self.oracle_diffs

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAIL"
        parts = [f"{self.program}[{self.policy or 'base'}]: {verdict}",
                 f"{len(self.injected)} injected"]
        if self.unapplied:
            parts.append(f"{self.unapplied} unapplied")
        if self.crashed:
            parts.append("crashed (planned)")
        if self.violations:
            parts.append(f"{len(self.violations)} invariant violation(s)")
        if self.oracle_diffs:
            parts.append(f"{len(self.oracle_diffs)} oracle diff(s)")
        return ", ".join(parts)


def run_checked(program, cfg=None, plan: Optional[FaultPlan] = None,
                observer=None,
                max_instructions: Optional[int] = None) -> FaultReport:
    """Simulate ``program`` with faults injected and every check armed.

    Builds the same subscriber list as :func:`repro.run_program` — a
    :class:`FaultInjector` (when ``plan`` is given), the config's
    mechanism, any caller observer, and a non-strict
    :class:`InvariantChecker` — runs the core, and compares the final
    architectural state against the functional interpreter.  A planned
    ``crash`` fault is caught and reported; real simulation errors
    propagate.
    """
    from .. import subscribers
    from ..uarch import Core, ProcessorConfig

    cfg = cfg or ProcessorConfig()
    injector = FaultInjector(plan) if plan is not None else None
    checker = InvariantChecker(strict=False)
    core = Core(cfg, program, subscribers(cfg, observer, injector, checker))
    report = FaultReport(program=program.name, policy=cfg.ci_policy,
                         stats=None)
    try:
        report.stats = core.run(max_instructions=max_instructions)
    except InjectedCrash as exc:
        report.crashed = str(exc)
    if injector is not None:
        report.injected = list(injector.injected)
        report.unapplied = len(injector.unapplied())
    report.violations = list(checker.violations)
    report.oracle_diffs = diff_against_interpreter(core)
    return report
