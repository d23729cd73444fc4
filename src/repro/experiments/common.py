"""Shared infrastructure for the per-figure experiment harness.

Every ``figXX`` module exposes ``compute(runner) -> Figure``: it simulates
the configurations the paper's figure sweeps, renders the same rows/series
as a text table, and evaluates *shape checks* — the qualitative claims
(who wins, where crossovers fall) that the reproduction must preserve.

Simulation results are memoised per (kernel, scale, seed, config) and
persisted through the runtime layer's disk cache, so figures sharing
configurations (e.g. the Figure 9 baselines reused by Figures 10, 13
and 14) pay for each run once per process — and re-running a figure
across sessions only pays for new configurations.  Suite sweeps fan out
over the runtime's worker pool (``--jobs`` / ``REPRO_JOBS``); the
runner is the runtime's own :class:`~repro.runtime.ParallelRunner`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..analysis import format_table
from ..runtime import ParallelRunner
from ..uarch.config import INF_REGS

#: default workload scale for experiments; override with REPRO_SCALE
EXPERIMENT_SCALE = float(os.environ.get("REPRO_SCALE", "0.5"))
EXPERIMENT_SEED = int(os.environ.get("REPRO_SEED", "1"))

#: the register-file sweep of Figures 9, 11, 13 and 14
REG_POINTS: Tuple[int, ...] = (128, 256, 512, 768, INF_REGS)


def reg_label(regs: int) -> str:
    return "inf" if regs >= INF_REGS else str(regs)


@dataclass
class Check:
    """One qualitative claim from the paper, evaluated on our data."""

    description: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        mark = "PASS" if self.passed else "DEVIATION"
        out = f"[{mark}] {self.description}"
        if self.detail:
            out += f" — {self.detail}"
        return out


@dataclass
class Figure:
    """One reproduced table/figure plus its shape checks."""

    fig_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]]
    notes: List[str] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)

    def render(self) -> str:
        parts = [format_table(f"{self.fig_id}: {self.title}",
                              self.headers, self.rows)]
        if self.checks:
            parts.append("")
            parts.extend(c.render() for c in self.checks)
        if self.notes:
            parts.append("")
            parts.extend(f"note: {n}" for n in self.notes)
        return "\n".join(parts)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


_default_runner: Optional[ParallelRunner] = None


def default_runner() -> ParallelRunner:
    """Process-wide runner so figures share cached simulations."""
    global _default_runner
    if _default_runner is None:
        _default_runner = ParallelRunner(scale=EXPERIMENT_SCALE,
                                         seed=EXPERIMENT_SEED)
    return _default_runner


def monotone_nondecreasing(xs: Sequence[float], tol: float = 1e-9) -> bool:
    return all(b >= a - tol for a, b in zip(xs, xs[1:]))
