"""Figure 5: classification of hard mispredicted branches.

For each kernel: the percentage of examined (hard, mispredicted) branches
for which no control-independent instruction is found, at least one is
selected but never reused, and at least one precomputed instance is
successfully reused.  Paper: ~70% selected, ~49% with reuse.
"""

from __future__ import annotations

from typing import Optional

from ..analysis import aggregate_breakdown, ci_breakdown
from ..runtime import ParallelRunner
from ..uarch.config import ci
from ..workloads import kernel_names
from .common import Check, Figure, default_runner
from .sweeps import SweepResult, SweepSpec, run_sweep

CFG = ci(ports=1, regs=512)

SWEEP = SweepSpec("fig05", (("ci", CFG),))


def compute(runner: Optional[ParallelRunner] = None) -> Figure:
    return render(run_sweep(runner or default_runner(), SWEEP))


def render(result: SweepResult) -> Figure:
    stats = result.suite("ci")
    rows = []
    for name in kernel_names():
        b = ci_breakdown(stats[name])
        rows.append([name, b.events, b.reused_pct, b.selected_no_reuse_pct,
                     b.not_found_pct])
    agg = aggregate_breakdown(stats)
    rows.append(["INT", agg.events, agg.reused_pct,
                 agg.selected_no_reuse_pct, agg.not_found_pct])

    checks = [
        Check("CI instructions selected for most hard mispredictions "
              "(paper: ~70%)",
              agg.reused_pct + agg.selected_no_reuse_pct > 55.0,
              f"selected={agg.reused_pct + agg.selected_no_reuse_pct:.1f}%"),
        Check("reuse achieved for roughly half of them (paper: 49%)",
              35.0 <= agg.reused_pct <= 75.0,
              f"reused={agg.reused_pct:.1f}%"),
        Check("mcf reuses the fewest committed instructions "
              "(non-strided pointer chase)",
              stats["mcf"].reuse_fraction
              <= min(stats[k].reuse_fraction
                     for k in ("bzip2", "perlbmk", "twolf")),
              f"mcf={stats['mcf'].reuse_fraction:.1%}"),
    ]
    return Figure(
        fig_id="Figure 5",
        title="% hard mispredicted branches: reuse / selected-no-reuse / not-found",
        headers=["kernel", "events", ">=1 reuse %", "no reuse %", "not found %"],
        rows=rows,
        checks=checks,
    )


def main() -> None:  # pragma: no cover
    print(compute().render())


if __name__ == "__main__":  # pragma: no cover
    main()
