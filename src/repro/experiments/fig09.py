"""Figure 9: IPC vs physical registers for scal / wb / ci, 1 and 2 ports.

Harmonic mean over the suite.  Expected shape: wide buses beat scalar
ports (more with 1 port than 2); the mechanism degrades slightly at 128
registers, and its gains grow and saturate from 512 registers on.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..runtime import ParallelRunner
from ..uarch.config import ci, scal, wb
from .common import (
    Check,
    Figure,
    REG_POINTS,
    default_runner,
    monotone_nondecreasing,
    reg_label,
)
from .sweeps import SweepResult, SweepSpec, run_sweep

SERIES = [
    ("scal1p", lambda regs: scal(1, regs)),
    ("wb1p", lambda regs: wb(1, regs)),
    ("ci1p", lambda regs: ci(1, regs)),
    ("scal2p", lambda regs: scal(2, regs)),
    ("wb2p", lambda regs: wb(2, regs)),
    ("ci2p", lambda regs: ci(2, regs)),
]

SWEEP = SweepSpec("fig09", tuple(
    (f"{label}@{regs}", make(regs))
    for label, make in SERIES for regs in REG_POINTS))


def compute(runner: Optional[ParallelRunner] = None) -> Figure:
    return render(run_sweep(runner or default_runner(), SWEEP))


def render(result: SweepResult) -> Figure:
    data: Dict[str, Dict[int, float]] = {
        label: {regs: result.hmean_ipc(f"{label}@{regs}")
                for regs in REG_POINTS}
        for label, _ in SERIES}
    rows = [[reg_label(regs)] + [data[label][regs] for label, _ in SERIES]
            for regs in REG_POINTS]

    big = REG_POINTS[2]  # 512
    gain1 = data["ci1p"][big] / data["wb1p"][big] - 1
    gain2 = data["ci2p"][big] / data["wb2p"][big] - 1
    wb_gain_1p = data["wb1p"][big] / data["scal1p"][big] - 1
    wb_gain_2p = data["wb2p"][big] / data["scal2p"][big] - 1
    checks = [
        Check("wide buses help the superscalar; the benefit shrinks with "
              "a second port (paper: decreases)",
              wb_gain_1p > 0.05 and wb_gain_1p > wb_gain_2p >= -0.01,
              f"1p={wb_gain_1p:+.1%} 2p={wb_gain_2p:+.1%}"),
        Check("ci gains 14-25% over wb at >=512 regs (paper: 17.8%)",
              0.10 <= gain1 <= 0.30 and 0.10 <= gain2 <= 0.30,
              f"1p={gain1:+.1%} 2p={gain2:+.1%}"),
        Check("ci degrades (or at best ties) wb at 128 regs",
              data["ci1p"][128] <= data["wb1p"][128] * 1.02,
              f"ci1p={data['ci1p'][128]:.3f} wb1p={data['wb1p'][128]:.3f}"),
        Check("ci keeps improving with more registers while wb flattens",
              monotone_nondecreasing([data["ci1p"][r] for r in REG_POINTS])
              and data["wb1p"][REG_POINTS[-1]] - data["wb1p"][256] < 0.1),
        Check("unbounded == 768 for every series (saturation)",
              all(abs(data[l][REG_POINTS[-1]] - data[l][768]) < 0.02
                  for l, _ in SERIES)),
    ]
    return Figure(
        fig_id="Figure 9",
        title="Harmonic-mean IPC vs registers (scal/wb/ci x 1,2 ports)",
        headers=["regs"] + [label for label, _ in SERIES],
        rows=rows,
        checks=checks,
        notes=["ci's gain at 256 regs is larger than the paper's (~0%): "
               "our kernels' conventional path holds fewer live registers "
               "than SpecInt2000 did on the authors' compiler/machine, so "
               "the pressure crossover sits lower (see EXPERIMENTS.md)"],
    )


def main() -> None:  # pragma: no cover
    print(compute().render())


if __name__ == "__main__":  # pragma: no cover
    main()
