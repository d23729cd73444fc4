"""repro — reproduction of "Control-Flow Independence Reuse via Dynamic
Vectorization" (Pajuelo, Gonzalez, Valero, IPDPS 2005).

Public API quick tour::

    from repro import run_kernel, configs
    stats = run_kernel("bzip2", configs.ci(ports=1, regs=512))
    print(stats.ipc, stats.reuse_fraction)

See README.md for the full walkthrough and DESIGN.md for the system map.
"""

import os
from typing import Optional

from . import isa, observe, uarch, workloads
from . import runtime
from .ci import MechanismPipeline, PolicySpec
from .isa import Program, assemble
from .observe import Observer
from .uarch import Core, MechanismHooks, ProcessorConfig, SimStats, simulate
from .uarch import config as configs
from .workloads import build_program, build_suite, kernel_names

__version__ = "1.0.0"


def hooks_for(cfg: ProcessorConfig) -> Optional[MechanismHooks]:
    """The mechanism hooks matching ``cfg.ci_policy`` (None for baseline).

    The policy name resolves against the registry at attach time, so a
    policy registered after config construction still works."""
    return MechanismPipeline() if cfg.ci_policy else None


def run_program(program: Program, cfg: Optional[ProcessorConfig] = None,
                max_instructions: Optional[int] = None,
                observer: Optional[Observer] = None,
                faults=None, check: Optional[bool] = None) -> SimStats:
    """Simulate ``program`` under ``cfg`` with the right mechanism attached.

    ``faults`` (or ``REPRO_FAULTS``) is a fault-plan spec string or
    :class:`repro.faults.FaultPlan`; the run executes under a
    :class:`~repro.faults.FaultInjector`.  ``check`` (or ``REPRO_CHECK=1``)
    attaches the per-cycle invariant checker and the end-of-run
    architectural-state oracle, raising on the first violation.  With
    neither active this is the plain fast path — no fault machinery is
    even imported.
    """
    cfg = cfg or ProcessorConfig()
    if faults is None:
        faults = os.environ.get("REPRO_FAULTS") or None
    if check is None:
        check = os.environ.get("REPRO_CHECK", "").lower() in (
            "1", "on", "yes", "true")
    hooks = hooks_for(cfg)
    if faults is None and not check:
        return simulate(program, cfg, hooks=hooks,
                        max_instructions=max_instructions, observer=observer)
    from .faults import FaultInjector, FaultPlan, InvariantChecker
    from .faults.oracle import check_final_state
    from .observe import MultiObserver
    if faults is not None:
        plan = faults if isinstance(faults, FaultPlan) \
            else FaultPlan.parse(str(faults))
        hooks = FaultInjector(plan, inner=hooks)
    obs = observer
    if check:
        checker = InvariantChecker(strict=True)
        obs = checker if obs is None else MultiObserver([obs, checker])
    core = Core(cfg, program, hooks, observer=obs)
    stats = core.run(max_instructions=max_instructions)
    if check:
        check_final_state(core)
    return stats


def run_kernel(name: str, cfg: Optional[ProcessorConfig] = None,
               scale: float = 1.0, seed: int = 1,
               max_instructions: Optional[int] = None,
               observer: Optional[Observer] = None) -> SimStats:
    """Build one suite kernel and simulate it under ``cfg``."""
    return run_program(build_program(name, scale, seed), cfg,
                       max_instructions=max_instructions, observer=observer)


__all__ = [
    "Core",
    "MechanismHooks",
    "MechanismPipeline",
    "PolicySpec",
    "ProcessorConfig",
    "Program",
    "SimStats",
    "assemble",
    "build_program",
    "build_suite",
    "configs",
    "hooks_for",
    "isa",
    "kernel_names",
    "observe",
    "Observer",
    "run_kernel",
    "run_program",
    "runtime",
    "simulate",
    "uarch",
    "workloads",
]
