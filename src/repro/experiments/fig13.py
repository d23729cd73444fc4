"""Figure 13: the speculative data memory (Section 2.4.6).

scal / wb / ci (monolithic) against ci with a small slow memory holding
128/256/512/768 speculative values, across the register sweep.  Paper's
headline: 256 registers + 768 positions performs like an unbounded
single-level register file.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..runtime import ParallelRunner
from ..uarch.config import INF_REGS, ci, scal, wb, with_spec_mem
from .common import Check, Figure, REG_POINTS, default_runner, reg_label
from .sweeps import SweepResult, SweepSpec, run_sweep

SPEC_SIZES = (128, 256, 512, 768)

SWEEP = SweepSpec("fig13", tuple(
    [(f"scal@{regs}", scal(1, regs)) for regs in REG_POINTS]
    + [(f"wb@{regs}", wb(1, regs)) for regs in REG_POINTS]
    + [(f"ci@{regs}", ci(1, regs)) for regs in REG_POINTS]
    + [(f"ci-h-{size}@{regs}", with_spec_mem(ci(1, regs), size))
       for size in SPEC_SIZES for regs in REG_POINTS]))


def compute(runner: Optional[ParallelRunner] = None) -> Figure:
    return render(run_sweep(runner or default_runner(), SWEEP))


def render(result: SweepResult) -> Figure:
    data: Dict[str, Dict[int, float]] = {
        label: {regs: result.hmean_ipc(f"{label}@{regs}")
                for regs in REG_POINTS}
        for label in ["scal", "wb", "ci"]
        + [f"ci-h-{s}" for s in SPEC_SIZES]}
    labels = ["scal", "wb", "ci"] + [f"ci-h-{s}" for s in SPEC_SIZES]
    rows = [[reg_label(regs)] + [data[l][regs] for l in labels]
            for regs in REG_POINTS]

    unbounded = data["ci"][REG_POINTS[-1]]
    headline = data["ci-h-768"][256]
    checks = [
        Check("256 regs + 768 positions ~ unbounded monolithic RF "
              "(paper's headline)",
              headline >= unbounded * 0.95,
              f"ci-h-768@256={headline:.3f} ci@inf={unbounded:.3f}"),
        Check("the spec memory rescues the 128-register configuration",
              data["ci-h-768"][128] > data["ci"][128] * 1.10,
              f"ci-h-768@128={data['ci-h-768'][128]:.3f} "
              f"ci@128={data['ci'][128]:.3f}"),
        Check("ci-h curves are nearly flat across register counts",
              max(data["ci-h-768"].values())
              - min(data["ci-h-768"].values()) < 0.45),
    ]
    return Figure(
        fig_id="Figure 13",
        title="Harmonic-mean IPC with the speculative data memory (1 wide port)",
        headers=["regs"] + labels,
        rows=rows,
        checks=checks,
        notes=["all sizes >=128 coincide for our suite: its live replica "
               "population (~100 values) fits the smallest memory, unlike "
               "SpecInt2000's larger static footprint (see EXPERIMENTS.md)"],
    )


def main() -> None:  # pragma: no cover
    print(compute().render())


if __name__ == "__main__":  # pragma: no cover
    main()
