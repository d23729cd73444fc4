"""Pipeline observability: event tracing, CPI stacks, mechanism audits.

The subsystem has one producer side — hook points in the timing core
(``uarch/core.py`` / ``uarch/frontend.py``) and the mechanism pipeline
(``ci/pipeline.py`` and its components) that emit structured events —
and three consumers.  The event vocabulary itself is canonical here:
:mod:`repro.observe.events` defines :class:`EventKind`, the
kind→observer-hook table, and the shared record types
(:class:`RetireEvent` for functional traces, :class:`ReuseEvent` for
the mechanism's per-misprediction accounting).  The consumers:

* :class:`PipeTracer`  — per-instruction stage timestamps; exports
  JSONL, the Konata/O3-pipeview log format, and an ASCII diagram
  (``repro pipeview``);
* :class:`CPIStack`    — top-down cycle accounting whose components sum
  exactly to ``stats.cycles``;
* :class:`AuditTrail`  — per-branch "why was this (not) reused" causal
  chains (``repro why``).

Observation is opt-in (``--observe`` / ``REPRO_OBSERVE``); observers
subscribe to the core's event table after the mechanism, and an event
no observer overrides binds to ``None``, so the default path adds no
work to the core loop.
Observers compose with the process-pool runtime: workers ship
``Observer.export()`` payloads back with their stats and
:func:`merge_payloads` merges them deterministically in job order.
"""

from .audit import REASONS, AuditTrail, EventAudit
from .base import (
    Observer,
    make_observer,
    merge_payloads,
    observer_names,
    render_all,
)
from .cpistack import COMPONENTS, CPIStack
from .events import (
    MECHANISM_KINDS,
    OBSERVER_HOOKS,
    PIPELINE_KINDS,
    EventKind,
    RetireEvent,
    ReuseEvent,
)
from .pipetrace import InstRecord, PipeTracer, parse_konata

__all__ = [
    "AuditTrail",
    "COMPONENTS",
    "CPIStack",
    "EventAudit",
    "EventKind",
    "InstRecord",
    "MECHANISM_KINDS",
    "OBSERVER_HOOKS",
    "Observer",
    "PIPELINE_KINDS",
    "PipeTracer",
    "REASONS",
    "RetireEvent",
    "ReuseEvent",
    "make_observer",
    "merge_payloads",
    "observer_names",
    "parse_konata",
    "render_all",
]
