"""cProfile harness for the simulation hot loop (``repro profile``).

Used to find and verify the measured micro-optimisations in
``uarch/core.py`` / ``isa/interp.py``; keep it wired so future changes
to the cycle loop can be profiled with one command.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Tuple

from .. import run_program
from ..uarch import ProcessorConfig, SimStats
from ..workloads import build_program

SORT_KEYS = ("cumulative", "tottime", "ncalls")


def profile_kernel(kernel: str, cfg: ProcessorConfig,
                   scale: float = 0.5, seed: int = 1,
                   sort: str = "cumulative",
                   limit: int = 30) -> Tuple[SimStats, str]:
    """Simulate ``kernel`` under cProfile; returns (stats, report text)."""
    prog = build_program(kernel, scale, seed)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        stats = run_program(prog, cfg)
    finally:
        profiler.disable()
    buf = io.StringIO()
    ps = pstats.Stats(profiler, stream=buf)
    ps.sort_stats(sort).print_stats(limit)
    return stats, buf.getvalue()
