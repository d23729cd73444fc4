"""Figure 4: IPC vs number of propagated stridedPCs per rename entry.

The paper varies the stridedPC field count (1, 2, 4) and finds that going
from 2 to 4 hardly changes performance, while 1 loses a little.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..analysis import harmonic_mean
from ..runtime import ParallelRunner
from ..uarch.config import ci
from ..workloads import kernel_names
from .common import Check, Figure, default_runner
from .sweeps import SweepResult, SweepSpec, run_sweep

SLOT_COUNTS = (1, 2, 4)
BASE = ci(ports=2, regs=512)

SWEEP = SweepSpec("fig04", tuple(
    (f"{n}PC", replace(BASE, strided_pcs_per_entry=n))
    for n in SLOT_COUNTS))


def compute(runner: Optional[ParallelRunner] = None) -> Figure:
    return render(run_sweep(runner or default_runner(), SWEEP))


def render(result: SweepResult) -> Figure:
    per_kernel = {
        name: {n: result.ipc(f"{n}PC", name) for n in SLOT_COUNTS}
        for name in kernel_names()
    }
    rows = [[name] + [per_kernel[name][n] for n in SLOT_COUNTS]
            for name in kernel_names()]
    means = {n: harmonic_mean(per_kernel[k][n] for k in kernel_names())
             for n in SLOT_COUNTS}
    rows.append(["INT(hmean)"] + [means[n] for n in SLOT_COUNTS])

    checks = [
        Check("2 -> 4 PCs hardly changes performance (paper: flat)",
              abs(means[4] - means[2]) / means[2] < 0.03,
              f"2PC={means[2]:.3f} 4PC={means[4]:.3f}"),
        Check("1 PC loses little but never wins",
              means[1] <= means[2] * 1.01,
              f"1PC={means[1]:.3f} 2PC={means[2]:.3f}"),
    ]
    return Figure(
        fig_id="Figure 4",
        title="IPC vs propagated stridedPCs per rename entry (ci, 2 wide ports, 512 regs)",
        headers=["kernel", "1PC", "2PC", "4PC"],
        rows=rows,
        checks=checks,
        notes=["paper: SpecInt2000 needs on average 1.7 PCs per entry; "
               "2 slots suffice"],
    )


def main() -> None:  # pragma: no cover - CLI convenience
    print(compute().render())


if __name__ == "__main__":  # pragma: no cover
    main()
