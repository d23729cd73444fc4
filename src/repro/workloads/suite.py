"""Benchmark suite views over the workload registry.

The suite itself lives in :mod:`repro.workloads.registry` (one
:class:`~repro.workloads.registry.WorkloadSpec` per kernel, registered
in the paper's presentation order).  This module keeps the historical
suite-shaped API — ``SUITE`` / ``BY_NAME`` / ``kernel_names`` /
``get_kernel`` / ``build_program`` / ``build_suite`` — as thin views so
long-standing callers and tests keep working unchanged.
"""

from __future__ import annotations

from typing import Dict, List

from ..isa import Program
from .registry import (
    WorkloadSpec,
    all_workloads,
    get_workload,
    workload_names,
)

#: Suite members in the paper's presentation order (a registry view).
SUITE: List[WorkloadSpec] = all_workloads()

BY_NAME: Dict[str, WorkloadSpec] = {k.name: k for k in SUITE}


def kernel_names() -> List[str]:
    return workload_names()


def get_kernel(name: str) -> WorkloadSpec:
    """Resolve a kernel name (raises with did-you-mean suggestions)."""
    return get_workload(name)


def build_program(name: str, scale: float = 1.0, seed: int = 1) -> Program:
    """Assemble one suite kernel."""
    return get_workload(name).program(scale, seed)


def build_suite(scale: float = 1.0, seed: int = 1) -> Dict[str, Program]:
    """Assemble the whole suite."""
    return {k.name: k.program(scale, seed) for k in all_workloads()}
