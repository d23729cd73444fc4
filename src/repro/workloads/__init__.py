"""Synthetic SpecInt2000-like workload suite (registry-backed)."""

from .registry import (
    UnknownWorkloadError,
    WorkloadSpec,
    all_workloads,
    build_program,
    get_workload,
    kernel_names,
    register_workload,
)

__all__ = [
    "UnknownWorkloadError",
    "WorkloadSpec",
    "all_workloads",
    "build_program",
    "get_workload",
    "kernel_names",
    "register_workload",
]
