"""The paper's contribution: control-flow independence reuse via dynamic
vectorization, as a composable pipeline of typed components.

Structures: MBS, NRBQ/CRP, stride predictor, SRSMT, replica scheduler,
the speculative data memory, and the squash-reuse buffer.  Components:
hard-branch filters, re-convergence trackers, slice selectors, replica
managers.  Policies (``ci`` / ``ci-iw`` / ``vect`` / ablations) are
registry entries assembling those components — see
:mod:`repro.ci.registry`.
"""

from ..observe.events import ReuseEvent
from .filters import (
    AlwaysHardFilter,
    HardBranchFilter,
    MBSFilter,
    NeverHardFilter,
    OracleBiasFilter,
)
from .mbs import MBS, MBSEntry
from .pipeline import MechanismPipeline
from .reconverge import CRP, NRBQ, NRBQEntry, estimate_reconvergent_point
from .registry import (
    PolicySpec,
    all_policies,
    build_components,
    get_policy,
    policy_names,
    register_policy,
)
from .replicas import ReplicaManager
from .selection import GreedySliceSelector, SliceSelector
from .specmem import SpecDataMemory
from .squash_reuse import ReuseRecord, SquashReuseBuffer, SquashReuseUnit
from .srsmt import Operand, ReplicaScheduler, SRSMT, SRSMTEntry
from .stride import StrideEntry, StridePredictor
from .tracking import (
    IdealReconvergenceTracker,
    ReconvergenceTracker,
    compute_ipdoms,
)

__all__ = [
    "AlwaysHardFilter",
    "CRP",
    "GreedySliceSelector",
    "HardBranchFilter",
    "IdealReconvergenceTracker",
    "MBS",
    "MBSEntry",
    "MBSFilter",
    "MechanismPipeline",
    "NRBQ",
    "NRBQEntry",
    "NeverHardFilter",
    "Operand",
    "OracleBiasFilter",
    "PolicySpec",
    "ReconvergenceTracker",
    "ReplicaManager",
    "ReplicaScheduler",
    "ReuseEvent",
    "ReuseRecord",
    "SRSMT",
    "SRSMTEntry",
    "SliceSelector",
    "SpecDataMemory",
    "SquashReuseBuffer",
    "SquashReuseUnit",
    "StrideEntry",
    "StridePredictor",
    "all_policies",
    "build_components",
    "compute_ipdoms",
    "estimate_reconvergent_point",
    "get_policy",
    "policy_names",
    "register_policy",
]
