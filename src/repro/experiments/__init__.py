"""Experiment harness: one module per reproduced table/figure.

Each module declares its simulation matrix as ``SWEEP`` and turns the
resolved :class:`SweepResult` into a :class:`Figure` with ``render``;
``compute(runner)`` does both for one figure.  ``generate_report()``
resolves every figure's sweep as ONE batch and renders each figure from
its own slice, returning the full text report used to build
EXPERIMENTS.md.
"""

from __future__ import annotations

from types import ModuleType
from typing import Callable, Dict, List, Optional

from ..runtime import ParallelRunner
from . import ablations, fig04, fig05, fig08, fig09, fig10, fig11, fig12, fig13, fig14, intext
from .common import (
    Check,
    EXPERIMENT_SCALE,
    Figure,
    REG_POINTS,
    default_runner,
    reg_label,
)
from .sweeps import SweepResult, SweepSpec, run_sweep, run_sweeps

#: experiment id -> module (``SWEEP`` + ``render``), in the paper's
#: presentation order
EXPERIMENTS: Dict[str, ModuleType] = {
    "fig04": fig04,
    "fig05": fig05,
    "fig08": fig08,
    "fig09": fig09,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "intext": intext,
}

#: experiment id -> compute function (one figure, one batch)
ALL_EXPERIMENTS: Dict[str, Callable[..., Figure]] = {
    key: module.compute for key, module in EXPERIMENTS.items()}

#: design-choice ablations (not paper figures; see ablations.py)
ALL_ABLATIONS = ablations.ALL_ABLATIONS


def run_all(runner: Optional[ParallelRunner] = None) -> Dict[str, Figure]:
    """Every experiment, its sweeps resolved as one batch."""
    runner = runner or default_runner()
    results = run_sweeps(runner, [m.SWEEP for m in EXPERIMENTS.values()])
    return {key: module.render(result)
            for (key, module), result in zip(EXPERIMENTS.items(), results)}


def generate_report(runner: Optional[ParallelRunner] = None) -> str:
    figures = run_all(runner)
    parts: List[str] = []
    for fig in figures.values():
        parts.append(fig.render())
        parts.append("")
    total = sum(len(f.checks) for f in figures.values())
    passed = sum(sum(c.passed for c in f.checks) for f in figures.values())
    parts.append(f"shape checks: {passed}/{total} passed")
    return "\n".join(parts)


__all__ = [
    "ALL_ABLATIONS",
    "ALL_EXPERIMENTS",
    "EXPERIMENTS",
    "Check",
    "EXPERIMENT_SCALE",
    "Figure",
    "REG_POINTS",
    "ParallelRunner",
    "SweepResult",
    "SweepSpec",
    "default_runner",
    "generate_report",
    "reg_label",
    "run_all",
    "run_sweep",
    "run_sweeps",
]
