"""Asyncio front end of the simulation service.

``repro serve`` runs one :class:`ServeServer`: an ``asyncio.start_server``
listener speaking the minimal HTTP/JSON dialect of ``protocol.py``, one
:class:`~.queue.ServeQueue`, one :class:`~.scheduler.Dispatcher` and the
long-lived :class:`~.scheduler.SimExecutor` (warm runners + disk cache).

Connections are one-request (``Connection: close``) — clients poll, the
daemon stays simple, and there is no connection state to drain.

``GET /healthz`` is the daemon's one telemetry face: its state (HTTP 200
for ``ok``, 503 otherwise), the queue, the ``jobs_*`` counters, the
executor's merged source record and worker-pool rebuilds.  Per-run
observability stays with ``--observe`` on a local run.

Admission is bounded-depth backpressure.  Like *variable instruction
fetch rate* throttling fetch under branch uncertainty, the server
throttles intake under load instead of melting down: a submission that
coalesces onto an in-flight twin is always admitted (it adds no work);
otherwise an open circuit breaker answers ``degraded`` and a queue
holding ``queue_depth`` entries answers 429 ``rejected``, each with a
``Retry-After`` hint.

Graceful drain (SIGTERM/SIGINT, or :meth:`ServeServer.request_shutdown`):

1. stop admitting — submits answer 503 ``draining``;
2. cancel everything still queued (their tickets report ``cancelled``
   with a ``draining`` message);
3. let the in-flight batch finish — the pool is never abandoned
   mid-simulation, so no orphaned workers;
4. hold the listener open for a short grace period so clients polling
   ``status``/``result`` can collect terminal states, then close.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import traceback
from collections import deque
from typing import Deque, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..runtime import ResultCache, pool_restart_count
from . import protocol
from .journal import JobJournal, JournalReplay
from .protocol import ErrorInfo, ProtocolError
from .queue import ServeQueue, Ticket
from .scheduler import CircuitBreaker, Dispatcher, SimExecutor

#: largest accepted request body (a 12-kernel suite submit is ~20 KiB)
MAX_BODY = 16 * 1024 * 1024

#: finished tickets kept addressable for late pollers
FINISHED_CAP = 4096

#: the server's counters (zero until first increment)
COUNTER_NAMES = (
    "requests", "jobs_submitted", "jobs_coalesced", "jobs_completed",
    "jobs_failed", "jobs_cancelled", "jobs_rejected", "jobs_replayed",
    "jobs_rejected_degraded", "circuit_trips",
)

#: seconds a client waits before resubmitting to a full queue (a full
#: queue at the default depth holds minutes of simulation)
RETRY_AFTER = 30.0

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}


def _refused(err: ErrorInfo) -> dict:
    return {"accepted": False, "error": err.to_dict()}


class ServeServer:
    """The daemon: HTTP front end + queue + dispatcher + executor."""

    def __init__(self, host: str = "127.0.0.1",
                 port: int = protocol.DEFAULT_PORT,
                 jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 queue_depth: int = 256,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None,
                 batch_max: int = 32,
                 grace: float = 0.25,
                 journal: Optional[object] = None,
                 breaker: Optional[CircuitBreaker] = None):
        self.host = host
        self.port = port
        self.queue = ServeQueue()
        self.executor = SimExecutor(cache=cache, jobs=jobs,
                                    timeout=timeout, retries=retries)
        #: admission and ticket outcomes (:data:`COUNTER_NAMES`)
        self.counters: Dict[str, int] = dict.fromkeys(COUNTER_NAMES, 0)
        #: admission bound: queued entries beyond this are refused
        self.queue_depth = max(1, queue_depth)
        #: the write-ahead log; None disables crash safety (tests,
        #: throwaway servers).  Accepts a path or a JobJournal.
        if isinstance(journal, str):
            journal = JobJournal(journal)
        self.journal: Optional[JobJournal] = journal
        self.breaker = CircuitBreaker() if breaker is None else breaker
        self.dispatcher = Dispatcher(self.queue, self.executor,
                                     self.counters, batch_max=batch_max,
                                     breaker=self.breaker,
                                     journal=self.journal)
        self.grace = grace
        self.draining = False
        self.replaying = False
        #: startup replay outcome (None when journaling is disabled)
        self.journal_replay: Optional[JournalReplay] = None
        self._tickets: Dict[str, Ticket] = {}
        self._finished_order: Deque[str] = deque()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped = asyncio.Event()
        self._shutdown_task: Optional[asyncio.Task] = None
        self.address: Tuple[str, int] = (host, port)

    # -- state -----------------------------------------------------------
    @property
    def state(self) -> str:
        """The structured ``/healthz`` state: ``ok``,
        ``replaying-journal``, ``degraded:circuit-open`` or
        ``draining``."""
        if self.draining:
            return "draining"
        if self.replaying:
            return "replaying-journal"
        if self.breaker.state != CircuitBreaker.OK:
            return f"degraded:{self.breaker.state}"
        return "ok"

    def health(self) -> Dict[str, object]:
        """The ``/healthz`` JSON payload (without its envelope)."""
        tally = self.executor.tally()
        out: Dict[str, object] = {
            "status": self.state,
            "queue": self.queue.snapshot(),
            "counters": dict(self.counters),
            "sims_run": tally["sim"],
            "cache_hits": tally["disk"] + tally["memo"] + tally["derived"],
            "worker_restarts": pool_restart_count(),
        }
        if self.journal is not None:
            replay = self.journal_replay
            out["journal"] = {
                # epochs counts this incarnation's server-start record too
                "epochs": (replay.epochs if replay is not None else 0) + 1,
                "records": replay.records if replay is not None else 0,
                "replayed": self.counters["jobs_replayed"],
                "quarantined": replay.corrupt if replay is not None else 0,
            }
        return out

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        if self.journal is not None:
            self.replaying = True
            try:
                await asyncio.to_thread(self._recover)
            finally:
                self.replaying = False
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        self.port = self.address[1]
        self.dispatcher.start()

    def _recover(self) -> None:
        """Replay the journal: re-enqueue incomplete jobs, heal the
        file, stamp this incarnation's epoch record.

        Completed jobs need no action — their results live in the
        result cache, so a resubmission is served from disk (the replay
        history still guards against re-simulating them, via the
        duplicate-sim audit).  Incomplete jobs are re-enqueued under
        their journaled key; a resubmitting client coalesces onto the
        replayed entry instead of duplicating the work.
        """
        assert self.journal is not None
        replay = self.journal.replay(quarantine=True)
        self.journal_replay = replay
        for key, record in replay.incomplete.items():
            spec_dict = record.get("spec")
            try:
                spec = protocol.parse_job(spec_dict)
            except Exception as exc:
                # Registry drift (kernel/policy gone): close the job in
                # the journal instead of resurrecting a zombie.
                self.journal.note_cancelled(
                    key, reason=f"unreplayable spec: {exc}")
                continue
            # No client holds this ticket's id: it gives the re-enqueued
            # job an entry for resubmitting clients to coalesce on.
            ticket = Ticket(spec, key)
            if self.queue.coalesce(ticket) is None:
                self.queue.push(ticket)
            self._register(ticket)
            self.counters["jobs_replayed"] += 1
        self.journal.note_server_start(
            replayed=self.counters["jobs_replayed"],
            quarantined=replay.corrupt)
        if replay.epochs or replay.records:
            print(f"repro serve: journal replay — {replay.describe()}",
                  file=sys.stderr, flush=True)

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    def request_shutdown(self) -> None:
        """Begin the graceful drain (idempotent; loop thread only)."""
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.get_event_loop().create_task(
                self._shutdown())

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_event_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

    async def _shutdown(self) -> None:
        self.draining = True
        drained = self.queue.drain()
        for entry in drained:
            for ticket in entry.tickets:
                ticket.state = protocol.CANCELLED
                ticket.error = ErrorInfo(
                    kind="cancelled",
                    message="server draining before the job was "
                            "dispatched")
                self._retire(ticket)
                self.counters["jobs_cancelled"] += 1
        if self.journal is not None and drained:
            self.journal.append_many(
                [("cancelled", e.key, {"reason": "draining"})
                 for e in drained])
        await self.dispatcher.stop()     # in-flight batch finishes
        if self.journal is not None:
            self.journal.close()
        await asyncio.sleep(self.grace)  # late pollers collect results
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._stopped.set()

    def abort(self) -> None:
        """Crash simulation for tests: drop everything on the floor.

        No drain, no cancel records — the closest an
        in-process server gets to kill -9.  The dispatcher task is
        cancelled (an in-flight ``to_thread`` batch keeps running in
        the background but its outcome is discarded and never
        journaled), the listener closes, and the journal handle is
        released so a successor can replay the same file.
        """
        if self.dispatcher._task is not None:
            self.dispatcher._task.cancel()
        if self.journal is not None:
            self.journal.close()
        if self._server is not None:
            self._server.close()
        self._stopped.set()

    # -- ticket registry -------------------------------------------------
    def _register(self, ticket: Ticket) -> None:
        self._tickets[ticket.id] = ticket

    def _retire(self, ticket: Ticket) -> None:
        """Cap the set of terminal tickets kept for late pollers."""
        self._finished_order.append(ticket.id)
        while len(self._finished_order) > FINISHED_CAP:
            old = self._finished_order.popleft()
            self._tickets.pop(old, None)

    # -- HTTP plumbing ---------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            request = await asyncio.wait_for(self._read_request(reader),
                                             timeout=30.0)
            if request is None:
                return
            method, path, query, body = request
            self.counters["requests"] += 1
            try:
                status, payload, headers = await self._route(
                    method, path, query, body)
            except ProtocolError as exc:
                status, payload, headers = 400, protocol.error_envelope(
                    ErrorInfo(kind=exc.kind, message=str(exc))), {}
            except Exception:
                print(f"repro serve: internal error handling "
                      f"{method} {path}\n{traceback.format_exc()}",
                      file=sys.stderr)
                status, payload, headers = 500, protocol.error_envelope(
                    ErrorInfo(kind="internal",
                              message="internal server error")), {}
            self._write_response(writer, status, payload, headers)
            await writer.drain()
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise asyncio.IncompleteReadError(line, None)
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length") or 0)
        if length > MAX_BODY:
            raise asyncio.IncompleteReadError(b"", None)
        body: object = None
        if length:
            raw_body = await reader.readexactly(length)
            try:
                body = json.loads(raw_body)
            except ValueError:
                body = ProtocolError("request body is not valid JSON")
        split = urlsplit(target)
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        return method, split.path, query, body

    def _write_response(self, writer: asyncio.StreamWriter, status: int,
                        payload: object,
                        headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload).encode()
        reason = _REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
                "Connection: close"]
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)

    # -- routing ---------------------------------------------------------
    async def _route(self, method: str, path: str, query: Dict[str, str],
                     body: object):
        if isinstance(body, ProtocolError):
            raise body
        if path == f"{protocol.API_PREFIX}/submit":
            if method != "POST":
                return self._method_not_allowed()
            return await self._submit(body)
        if path == f"{protocol.API_PREFIX}/status":
            return self._status(query)
        if path == f"{protocol.API_PREFIX}/result":
            return self._result(query)
        if path == "/healthz":
            health = self.health()
            # Anything but plain "ok" answers 503 so load balancers and
            # ops probes can gate on the HTTP code alone; the JSON body
            # still says exactly which non-ok state it is.
            code = 200 if health["status"] == "ok" else 503
            return code, protocol.ok_envelope(**health), {}
        return 404, protocol.error_envelope(ErrorInfo(
            kind="not-found", message=f"no route {method} {path}")), {}

    @staticmethod
    def _method_not_allowed():
        return 405, protocol.error_envelope(ErrorInfo(
            kind="bad-request", message="method not allowed")), {}

    # -- endpoints -------------------------------------------------------
    async def _submit(self, body: object):
        specs = protocol.parse_submit_body(body)
        # Key computation builds + predecodes programs: off the loop.
        keys = await asyncio.to_thread(
            lambda: [self._key_or_error(s) for s in specs])
        results = [self._admit(spec, key)
                   for spec, key in zip(specs, keys)]
        accepted = sum(1 for r in results if r["accepted"])
        if accepted:
            self.dispatcher.kick()
            status = 200
        elif self.draining:
            status = 503
        else:
            status = 429
        headers = {}
        retry_after = max((r["error"].get("retry_after", 0.0)
                           for r in results if not r["accepted"]),
                          default=0.0)
        if retry_after and not accepted:
            headers["Retry-After"] = f"{retry_after:.1f}"
        return status, protocol.ok_envelope(jobs=results), headers

    def _admit(self, spec, key) -> dict:
        """One job's admission decision, as its submit-response row."""
        if isinstance(key, ErrorInfo):
            return _refused(key)
        if self.draining:
            return _refused(ErrorInfo(kind="draining",
                                      message="server is draining"))
        ticket = Ticket(spec, key)
        if self.queue.coalesce(ticket) is not None:
            # Fan-in: no new work enters the system, so coalesced
            # submissions bypass both admission checks.
            self.counters["jobs_coalesced"] += 1
        elif not self.breaker.allows():
            retry = self.breaker.retry_after()
            self.counters["jobs_rejected_degraded"] += 1
            return _refused(ErrorInfo(
                kind="degraded",
                message=f"executor degraded ({self.breaker.state}); "
                        f"retry in {retry:.1f}s",
                retry_after=retry))
        elif self.queue.depth >= self.queue_depth:
            self.counters["jobs_rejected"] += 1
            return _refused(ErrorInfo(
                kind="rejected",
                message=f"queue full ({self.queue_depth} entries); "
                        f"retry in {RETRY_AFTER:.1f}s",
                retry_after=RETRY_AFTER))
        else:
            if self.journal is not None:
                # Durability point: the accept record (with its full
                # spec) hits disk before the push makes the job
                # dispatchable and before the client sees the ack.
                # Synchronous on the loop thread on purpose — the
                # dispatcher shares this thread, so ``started`` can
                # never be journaled ahead of ``accepted``.
                self.journal.note_accepted(key, protocol.wire_dict(spec))
            self.queue.push(ticket)
            self.counters["jobs_submitted"] += 1
        self._register(ticket)
        return {"accepted": True, "id": ticket.id,
                "coalesced": ticket.coalesced, "state": ticket.state}

    def _key_or_error(self, spec):
        try:
            return self.executor.key_for(spec)
        except ProtocolError as exc:
            return ErrorInfo(kind="bad-request", message=str(exc))

    def _lookup(self, query: Dict[str, str]) -> Ticket:
        ticket_id = query.get("id", "")
        ticket = self._tickets.get(ticket_id)
        if ticket is None:
            raise ProtocolError(f"unknown job id {ticket_id!r}")
        return ticket

    def _status(self, query: Dict[str, str]):
        try:
            ticket = self._lookup(query)
        except ProtocolError as exc:
            return 404, protocol.error_envelope(ErrorInfo(
                kind="not-found", message=str(exc))), {}
        return 200, protocol.ok_envelope(job=ticket.status().to_dict()), {}

    def _result(self, query: Dict[str, str]):
        try:
            ticket = self._lookup(query)
        except ProtocolError as exc:
            return 404, protocol.error_envelope(ErrorInfo(
                kind="not-found", message=str(exc))), {}
        payload = protocol.ok_envelope(job=ticket.status().to_dict(),
                                       done=ticket.terminal)
        if ticket.terminal:
            if ticket.stats is not None:
                payload["stats"] = ticket.stats
            # One-shot: a fetched result frees its ticket promptly
            # instead of waiting for the FINISHED_CAP eviction.
            self._tickets.pop(ticket.id, None)
        return 200, payload, {}


async def _amain(**opts) -> int:
    server = ServeServer(**opts)
    await server.start()
    server.install_signal_handlers()
    host, port = server.address
    jobs = server.executor.jobs or "auto"
    print(f"repro serve: listening on http://{host}:{port} "
          f"(jobs={jobs}, queue depth "
          f"{server.queue_depth}); SIGTERM/SIGINT drains",
          file=sys.stderr, flush=True)
    await server.wait_stopped()
    tally = server.executor.tally()
    print(f"repro serve: drained — {tally['sim']} simulation(s) "
          f"run, {tally['disk']} disk hit(s), {tally['memo']} memo "
          f"hit(s), {tally['derived']} derived, "
          f"{server.counters['jobs_coalesced']} coalesced",
          file=sys.stderr, flush=True)
    return 0


def serve_main(**opts) -> int:
    """Blocking entry point for the ``repro serve`` CLI verb."""
    try:
        return asyncio.run(_amain(**opts))
    except KeyboardInterrupt:  # pragma: no cover - non-Unix fallback
        return 130
