"""``repro serve`` — the async simulation service.

A long-running daemon owning one persistent runner pool and the result
cache, so interactive sweeps and CI jobs share warm state instead of
paying cold-start per invocation.  The serving layer re-applies the
paper's reuse idea at request granularity: identical in-flight requests
*coalesce* onto one execution (keyed by the runtime's content-addressed
cache key) exactly as the mechanism reuses a control-independent slice
instead of re-executing it.

Modules: ``protocol`` (versioned wire types), ``queue`` (arrival-order
FIFO + coalescing), ``scheduler`` (dispatch + pool supervision),
``journal`` (the crash-safety write-ahead log), ``server`` (asyncio
front end and its bounded-depth admission check), ``client`` (resilient
wire client + thin-client runner), ``metrics`` (Prometheus / healthz).
"""

from .client import RemoteRunner, ServeClient, ServeError, parse_address
from .journal import JobJournal, JournalReplay, replay_journal
from .metrics import ServerMetrics
from .protocol import (DEFAULT_PORT, PROTOCOL_VERSION, ErrorInfo, JobStatus,
                       ProtocolError)
from .queue import ServeQueue
from .scheduler import Dispatcher, PoolSupervisor, SimExecutor
from .server import ServeServer, serve_main

__all__ = [
    "DEFAULT_PORT",
    "Dispatcher",
    "ErrorInfo",
    "JobJournal",
    "JobStatus",
    "JournalReplay",
    "PROTOCOL_VERSION",
    "PoolSupervisor",
    "ProtocolError",
    "RemoteRunner",
    "ServeClient",
    "ServeError",
    "ServeQueue",
    "ServeServer",
    "ServerMetrics",
    "SimExecutor",
    "parse_address",
    "replay_journal",
    "serve_main",
]
