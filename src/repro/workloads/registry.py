"""The workload registry — suite kernels as data.

Mirrors the mechanism-policy registry (:mod:`repro.ci.registry`): one
:class:`WorkloadSpec` per kernel naming its assembly-source builder, its
functional reference model, a characterisation line and the scales it is
usually swept at.  Registration order is the paper's presentation order
and is what every suite sweep, figure, fault matrix and the serve layer
enumerate — there is no second private kernel list anywhere.

``repro kernels`` renders this table; :func:`get_workload` resolves
names with the shared did-you-mean helper, so an unknown kernel fails
identically at the CLI, in a ``RunSpec`` and over the serve protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..isa import Program, assemble
from ..suggest import unknown_name_message
from . import kernels

#: the scales sweeps usually run a kernel at: (smoke, test, experiment)
DEFAULT_SCALES: Tuple[float, ...] = (0.1, 0.3, 0.5)


class UnknownWorkloadError(KeyError):
    """An unregistered kernel name (message carries suggestions).

    Subclasses :class:`KeyError` for compatibility with the pre-registry
    lookup; ``str()`` returns the plain message (no ``KeyError`` repr
    quoting) so protocol and CLI errors can surface it verbatim.
    """

    def __str__(self) -> str:
        return self.args[0] if self.args else "unknown workload"


@dataclass(frozen=True)
class WorkloadSpec:
    """One suite member: builder, reference model and characterisation."""

    name: str
    build_source: Callable[[float, int], str]
    reference: Callable[[float, int], Dict[int, int]]
    description: str
    traits: str
    #: coarse behaviour class (what the kernel stresses)
    category: str = "mixed"
    #: the scales this kernel is usually swept at
    default_scales: Tuple[float, ...] = DEFAULT_SCALES

    def program(self, scale: float = 1.0, seed: int = 1) -> Program:
        return assemble(self.build_source(scale, seed), name=self.name)


_REGISTRY: Dict[str, WorkloadSpec] = {}


def register_workload(spec: WorkloadSpec) -> WorkloadSpec:
    """Register ``spec``; registration order is presentation order."""
    if not spec.name:
        raise ValueError("workload spec needs a name")
    _REGISTRY[spec.name] = spec
    return spec


def get_workload(name: str) -> WorkloadSpec:
    """Resolve a kernel name, with close-match suggestions on failure."""
    spec = _REGISTRY.get(name)
    if spec is not None:
        return spec
    raise UnknownWorkloadError(
        unknown_name_message("kernel", name, kernel_names()))


def kernel_names() -> List[str]:
    """Every registered kernel, in registration (paper) order."""
    return list(_REGISTRY)


def all_workloads() -> List[WorkloadSpec]:
    return list(_REGISTRY.values())


def build_program(name: str, scale: float = 1.0, seed: int = 1) -> Program:
    """Assemble one registered kernel."""
    return get_workload(name).program(scale, seed)


# ---------------------------------------------------------------------------
# Built-in suite: the 12 SpecInt2000-like kernels, paper order.
# ---------------------------------------------------------------------------

register_workload(WorkloadSpec(
    "bzip2", kernels.build_bzip2, kernels.ref_bzip2,
    "byte-frequency pass with prefix-sum store-out",
    "hard threshold hammock, unit-stride loads and stores",
    category="hammock"))

register_workload(WorkloadSpec(
    "crafty", kernels.build_crafty, kernels.ref_crafty,
    "bitboard bit tests with in-place data evolution",
    "data-dependent bit-test hammock, unit-stride loads",
    category="hammock"))

register_workload(WorkloadSpec(
    "eon", kernels.build_eon, kernels.ref_eon,
    "FP-flavoured pixel pass with highly biased branch",
    "easy branches (MBS filters them), FP unit pressure",
    category="biased"))

register_workload(WorkloadSpec(
    "gap", kernels.build_gap, kernels.ref_gap,
    "permutation walk with indirect value lookup",
    "mixed strided + indirect loads",
    category="indirect"))

register_workload(WorkloadSpec(
    "gcc", kernels.build_gcc, kernels.ref_gcc,
    "branch-dense classification (2 hammocks + if-then)",
    "many hard branches, short CI regions",
    category="branchy"))

register_workload(WorkloadSpec(
    "gzip", kernels.build_gzip, kernels.ref_gzip,
    "LZ-style match loop with geometric trip counts",
    "variable-trip inner loop, drifting strides",
    category="loopy"))

register_workload(WorkloadSpec(
    "mcf", kernels.build_mcf, kernels.ref_mcf,
    "pointer chase over a random cycle",
    "non-strided loads: CI selected but rarely reused",
    category="pointer"))

register_workload(WorkloadSpec(
    "parser", kernels.build_parser, kernels.ref_parser,
    "nested character classification",
    "nested hammocks, path-dependent token register",
    category="branchy"))

register_workload(WorkloadSpec(
    "perlbmk", kernels.build_perlbmk, kernels.ref_perlbmk,
    "multiplicative hash chain",
    "self-recurrent vectorizable chain through INT_MUL",
    category="chain"))

register_workload(WorkloadSpec(
    "twolf", kernels.build_twolf, kernels.ref_twolf,
    "annealing accept/reject against evolving incumbent",
    "hard branch, one arm writes a CI-blocking register",
    category="hammock"))

register_workload(WorkloadSpec(
    "vortex", kernels.build_vortex, kernels.ref_vortex,
    "record updates with in-place stores",
    "stride-16 loads, store/replica coherence pressure",
    category="stores"))

register_workload(WorkloadSpec(
    "vpr", kernels.build_vpr, kernels.ref_vpr,
    "|a-b| placement cost with both-arms-write hammock",
    "CI blocked for diff consumers, clean accumulator reusable",
    category="hammock"))
