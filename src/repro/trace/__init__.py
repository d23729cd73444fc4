"""Trace-driven front end: dynamic traces and offline analyses.

Trace records are the canonical :class:`~repro.observe.events.RetireEvent`.
"""

from ..observe.events import RetireEvent
from .analysis import (
    BranchStats,
    LoadStats,
    ReconvergenceCheck,
    TraceProfile,
    check_reconvergence,
    profile_trace,
)
from .tracer import collect_trace

__all__ = [
    "BranchStats",
    "LoadStats",
    "ReconvergenceCheck",
    "RetireEvent",
    "TraceProfile",
    "check_reconvergence",
    "collect_trace",
    "profile_trace",
]
