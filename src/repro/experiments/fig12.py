"""Figure 12: committed/speculative instruction breakdown, 2 vs 4 replicas.

Per kernel: committed instructions that did not reuse (noR), committed
instructions that reused a precomputed value (Reuse), fetched instructions
squashed by mispredictions (specBP), and replica instructions generated by
the mechanism (specCI).  Paper: going from 2 to 4 replicas lifts reuse
from 12.3% to 14% of committed instructions, at the cost of noticeably
more speculative mechanism activity, which is comparable in volume to the
wrong-path activity.
"""

from __future__ import annotations

from typing import Optional

from ..analysis import commit_breakdown
from ..runtime import ParallelRunner
from ..uarch.config import ci
from ..workloads import kernel_names
from .common import Check, Figure, default_runner
from .sweeps import SweepResult, SweepSpec, run_sweep

CFGS = {2: ci(1, 512, replicas=2), 4: ci(1, 512, replicas=4)}

SWEEP = SweepSpec("fig12", tuple(
    (f"{n}rep", cfg) for n, cfg in CFGS.items()))


def compute(runner: Optional[ParallelRunner] = None) -> Figure:
    return render(run_sweep(runner or default_runner(), SWEEP))


def render(result: SweepResult) -> Figure:
    per_n = {n: result.suite(f"{n}rep") for n in CFGS}
    rows = []
    agg = {n: [0, 0, 0, 0] for n in CFGS}
    for name in kernel_names():
        row = [name]
        for n in (2, 4):
            b = commit_breakdown(per_n[n][name])
            row += [b.no_reuse, b.reuse, b.spec_bp, b.spec_ci]
            agg[n][0] += b.no_reuse
            agg[n][1] += b.reuse
            agg[n][2] += b.spec_bp
            agg[n][3] += b.spec_ci
        rows.append(row)
    rows.append(["INT"] + agg[2] + agg[4])

    reuse_pct = {n: 100.0 * agg[n][1] / (agg[n][0] + agg[n][1]) for n in CFGS}
    checks = [
        Check("4 replicas reuse more committed instructions than 2 "
              "(paper: 12.3% -> 14%)",
              reuse_pct[4] > reuse_pct[2],
              f"2rep={reuse_pct[2]:.1f}% 4rep={reuse_pct[4]:.1f}%"),
        Check("extra reuse costs extra mechanism activity (specCI grows)",
              agg[4][3] > agg[2][3],
              f"2rep={agg[2][3]} 4rep={agg[4][3]}"),
        Check("mechanism activity is comparable to wrong-path activity "
              "(same order of magnitude)",
              0.2 < agg[4][3] / max(1, agg[4][2]) < 5.0,
              f"specCI/specBP={agg[4][3] / max(1, agg[4][2]):.2f}"),
    ]
    return Figure(
        fig_id="Figure 12",
        title="Instruction breakdown with 2 (left) and 4 (right) replicas",
        headers=["kernel", "noR/2", "Reuse/2", "specBP/2", "specCI/2",
                 "noR/4", "Reuse/4", "specBP/4", "specCI/4"],
        rows=rows,
        checks=checks,
    )


def main() -> None:  # pragma: no cover
    print(compute().render())


if __name__ == "__main__":  # pragma: no cover
    main()
