"""Arrival-order job queue with request coalescing.

The queue applies the paper's reuse idea one level up: just as the
mechanism validates a control-independent slice once and *skips*
re-executing it, the server detects identical in-flight simulation
requests and runs them once.  Identity is the runtime's existing
content-addressed cache key (predecode image digest + resolved config +
scale/seed — :func:`repro.runtime.job_key`), so "identical" here means
*provably the same simulation*, not merely the same argument strings.

Structure:

* a :class:`Ticket` is one client-visible submission (what ``status`` /
  ``result`` address by id);
* an :class:`Entry` is one unit of execution — the fan-in point.  N
  tickets with the same key attach to one entry and fan out N responses
  when it finishes;
* entries wait in one FIFO and dispatch in arrival order; a ticket that
  coalesces onto a queued entry rides along without moving it.

Thread discipline: every method here runs on the server's event-loop
thread.  The executor thread only ever touches the ``Entry`` objects a
dispatch pass handed it.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from typing import Deque, Dict, List, Optional

from ..runtime import RunSpec
from . import protocol
from .protocol import ErrorInfo, JobStatus

_ids = itertools.count(1)


def _new_ticket_id() -> str:
    return f"j{next(_ids):06d}-{os.urandom(3).hex()}"


class Ticket:
    """One client-visible submission (identified by ``id``)."""

    __slots__ = ("id", "spec", "key", "state", "source", "error", "stats",
                 "coalesced")

    def __init__(self, spec: RunSpec, key: str):
        self.id = _new_ticket_id()
        self.spec = spec
        self.key = key
        self.state = protocol.QUEUED
        self.source = ""
        self.error: Optional[ErrorInfo] = None
        self.stats: Optional[dict] = None     # SimStats.to_dict payload
        #: True when this ticket attached to an entry that already existed
        self.coalesced = False

    def status(self) -> JobStatus:
        return JobStatus(id=self.id, kernel=self.spec.kernel,
                         state=self.state, source=self.source,
                         error=self.error)

    @property
    def terminal(self) -> bool:
        return self.state in protocol.TERMINAL_STATES


class Entry:
    """One unit of execution: every ticket sharing one cache key."""

    __slots__ = ("key", "spec", "tickets", "state")

    def __init__(self, ticket: Ticket):
        self.key = ticket.key
        self.spec = ticket.spec             # representative spec
        self.tickets: List[Ticket] = [ticket]
        self.state = protocol.QUEUED


class ServeQueue:
    """The daemon's admission queue: one FIFO plus the coalesce index.

    Admission *decisions* (queue full, breaker open) live in the
    server; this class only implements the structure they act on.
    """

    def __init__(self) -> None:
        #: key -> in-flight entry (queued or running): the coalesce index
        self.entries: Dict[str, Entry] = {}
        #: queued (not yet dispatched) entries, oldest first
        self._fifo: Deque[Entry] = deque()
        #: entries currently executing
        self.inflight = 0

    @property
    def depth(self) -> int:
        """Queued (not yet dispatched) entries."""
        return len(self._fifo)

    # -- submission ------------------------------------------------------
    def coalesce(self, ticket: Ticket) -> Optional[Entry]:
        """Attach ``ticket`` to an in-flight entry with the same key.

        Returns the entry (ticket rides along; state mirrors the
        entry's), or None when no such entry exists.
        """
        entry = self.entries.get(ticket.key)
        if entry is None:
            return None
        entry.tickets.append(ticket)
        ticket.coalesced = True
        ticket.state = entry.state
        return entry

    def push(self, ticket: Ticket) -> Entry:
        """Queue a brand-new entry for ``ticket`` (no coalesce target)."""
        entry = Entry(ticket)
        self.entries[entry.key] = entry
        self._fifo.append(entry)
        return entry

    # -- dispatch --------------------------------------------------------
    def pop_batch(self, max_n: int) -> List[Entry]:
        """Take up to ``max_n`` queued entries, oldest first.

        Popped entries transition to RUNNING (their tickets with them)
        and stay in the coalesce index until :meth:`finish`.
        """
        out = [self._fifo.popleft()
               for _ in range(min(max_n, len(self._fifo)))]
        for entry in out:
            entry.state = protocol.RUNNING
            for t in entry.tickets:
                t.state = protocol.RUNNING
        self.inflight += len(out)
        return out

    def finish(self, entry: Entry) -> None:
        """Retire a dispatched entry (tickets already finalised)."""
        self.entries.pop(entry.key, None)
        self.inflight -= 1

    # -- shutdown --------------------------------------------------------
    def drain(self) -> List[Entry]:
        """Remove every queued entry (shutdown path); returns them."""
        drained = list(self._fifo)
        self._fifo.clear()
        for entry in drained:
            del self.entries[entry.key]
        return drained

    # -- introspection ---------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        queued_tickets = sum(
            len(e.tickets) for e in self.entries.values()
            if e.state == protocol.QUEUED)
        return {"depth": self.depth, "inflight": self.inflight,
                "queued_tickets": queued_tickets}
