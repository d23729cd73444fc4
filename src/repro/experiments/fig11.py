"""Figure 11: IPC vs number of replicas per vectorized instruction.

1/2/4/8 replicas across the register sweep, plus the scal and wb
baselines.  Paper: 2 or 4 replicas are the sweet spot; 1 loses many
opportunities; 8 only helps with very many registers.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..runtime import ParallelRunner
from ..uarch.config import ci, scal, wb
from .common import Check, Figure, REG_POINTS, default_runner, reg_label
from .sweeps import SweepResult, SweepSpec, run_sweep

REPLICA_COUNTS = (1, 2, 4, 8)

SWEEP = SweepSpec("fig11", tuple(
    [(f"sc@{regs}", scal(1, regs)) for regs in REG_POINTS]
    + [(f"wb@{regs}", wb(1, regs)) for regs in REG_POINTS]
    + [(f"{n}rep@{regs}", ci(1, regs, replicas=n))
       for n in REPLICA_COUNTS for regs in REG_POINTS]))


def compute(runner: Optional[ParallelRunner] = None) -> Figure:
    return render(run_sweep(runner or default_runner(), SWEEP))


def render(result: SweepResult) -> Figure:
    data: Dict[str, Dict[int, float]] = {"sc": {}, "wb": {}}
    for regs in REG_POINTS:
        data["sc"][regs] = result.hmean_ipc(f"sc@{regs}")
        data["wb"][regs] = result.hmean_ipc(f"wb@{regs}")
    for n in REPLICA_COUNTS:
        data[f"{n}rep"] = {regs: result.hmean_ipc(f"{n}rep@{regs}")
                           for regs in REG_POINTS}
    labels = ["sc", "wb"] + [f"{n}rep" for n in REPLICA_COUNTS]
    rows = [[reg_label(regs)] + [data[l][regs] for l in labels]
            for regs in REG_POINTS]

    big = REG_POINTS[-1]
    checks = [
        Check("1 replica loses many reuse opportunities (paper)",
              data["1rep"][big] < data["4rep"][big] * 0.97,
              f"1rep={data['1rep'][big]:.3f} 4rep={data['4rep'][big]:.3f}"),
        Check("2 and 4 replicas are the sweet spot (within a few %)",
              abs(data["2rep"][big] - data["4rep"][big])
              / data["4rep"][big] < 0.05),
        Check("8 replicas add little even with unbounded registers",
              data["8rep"][big] <= data["4rep"][big] * 1.05),
        Check("every replica count beats the wb baseline at >=512 regs",
              all(data[f"{n}rep"][512] > data["wb"][512]
                  for n in REPLICA_COUNTS)),
    ]
    return Figure(
        fig_id="Figure 11",
        title="Harmonic-mean IPC vs replicas per vectorized instruction (1 wide port)",
        headers=["regs"] + labels,
        rows=rows,
        checks=checks,
    )


def main() -> None:  # pragma: no cover
    print(compute().render())


if __name__ == "__main__":  # pragma: no cover
    main()
