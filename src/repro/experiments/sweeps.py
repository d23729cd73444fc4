"""Declarative experiment sweeps: config matrices as data.

Every figure/ablation module used to interleave *what to simulate* with
*how to render it*, issuing one ``run_suite`` call per configuration.
Here the what becomes a value: a :class:`SweepSpec` names a labelled
series of configurations and the kernels to run them over (empty =
the whole workload registry), and :meth:`SweepSpec.specs` expands it to
the flat list of canonical :class:`~repro.runtime.RunSpec` values —
the same vocabulary the pool, cache and serve layers speak.

:func:`run_sweep` resolves the entire matrix as ONE ``run_many`` batch
(maximal pool fan-out; memo/disk/coalescing still deduplicate repeated
points across sweeps) and returns a :class:`SweepResult` the module's
render function reads; :func:`run_sweeps` does the same for several
sweeps at once (the full report).  Stats are deterministic, so
rendering from a sweep result is byte-identical to the historical
per-config loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..analysis import harmonic_mean
from ..runtime import ParallelRunner, RunSpec
from ..uarch import ProcessorConfig, SimStats
from ..workloads import kernel_names


@dataclass(frozen=True)
class SweepSpec:
    """One experiment's simulation matrix: labelled configs × kernels."""

    name: str
    #: (label, config) pairs, in presentation order
    series: Tuple[Tuple[str, ProcessorConfig], ...]
    #: kernels to run each config over; empty = the whole registry
    kernels: Tuple[str, ...] = ()

    def labels(self) -> List[str]:
        return [label for label, _ in self.series]

    def kernel_list(self) -> List[str]:
        return list(self.kernels) if self.kernels else kernel_names()

    def config(self, label: str) -> ProcessorConfig:
        for lab, cfg in self.series:
            if lab == label:
                return cfg
        raise KeyError(f"sweep {self.name!r} has no series {label!r}")

    def specs(self, scale: float, seed: int) -> List[RunSpec]:
        """The matrix as canonical run specs (series-major order)."""
        kernels = self.kernel_list()
        return [RunSpec(kernel, scale, seed, cfg)
                for _, cfg in self.series for kernel in kernels]


class SweepResult:
    """Resolved stats of one sweep: ``stats[label][kernel]``."""

    def __init__(self, sweep: SweepSpec,
                 stats: Dict[str, Dict[str, SimStats]]):
        self.sweep = sweep
        self.stats = stats

    def suite(self, label: str) -> Dict[str, SimStats]:
        """One series' per-kernel stats (kernel order = registry order)."""
        return self.stats[label]

    def ipc(self, label: str, kernel: str) -> float:
        return self.stats[label][kernel].ipc

    def hmean_ipc(self, label: str) -> float:
        return harmonic_mean(s.ipc for s in self.stats[label].values())


def run_sweep(runner: ParallelRunner, sweep: SweepSpec) -> SweepResult:
    """Resolve a whole sweep as one order-preserving batch."""
    return run_sweeps(runner, [sweep])[0]


def run_sweeps(runner: ParallelRunner,
               sweeps: Sequence[SweepSpec]) -> List[SweepResult]:
    """Resolve several sweeps as ONE batch, each result from its own
    slice.

    A point shared between sweeps is resolved once, and capacity
    derivation sees every sibling of the whole batch (DESIGN §9.7).
    """
    flat = runner.run_many([spec for sweep in sweeps
                            for spec in sweep.specs(runner.scale,
                                                    runner.seed)])
    results: List[SweepResult] = []
    at = 0
    for sweep in sweeps:
        kernels = sweep.kernel_list()
        stats: Dict[str, Dict[str, SimStats]] = {}
        for label, _ in sweep.series:
            stats[label] = dict(zip(kernels, flat[at:at + len(kernels)]))
            at += len(kernels)
        results.append(SweepResult(sweep, stats))
    return results
