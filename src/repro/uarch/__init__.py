"""Out-of-order superscalar substrate (the paper's SimpleScalar stand-in)."""

from .bpred import Bimodal, Gshare, StaticBTFN, make_predictor
from .caches import CacheLevel, MemoryHierarchy
from .config import (
    INF_REGS,
    CacheConfig,
    ProcessorConfig,
    ci,
    scal,
    wb,
    with_spec_mem,
)
from .core import Core, PortState, SimulationError, simulate
from .frontend import FetchUnit
from .hooks import MechanismHooks
from .funits import FUPool
from .rename import FreeList
from .rob import DynInst, MEM_ABSENT
from .stats import SimStats

__all__ = [
    "CacheConfig",
    "CacheLevel",
    "Core",
    "DynInst",
    "FetchUnit",
    "Bimodal",
    "FreeList",
    "FUPool",
    "Gshare",
    "StaticBTFN",
    "make_predictor",
    "INF_REGS",
    "MechanismHooks",
    "MEM_ABSENT",
    "MemoryHierarchy",
    "PortState",
    "ProcessorConfig",
    "SimStats",
    "SimulationError",
    "ci",
    "scal",
    "simulate",
    "wb",
    "with_spec_mem",
]
