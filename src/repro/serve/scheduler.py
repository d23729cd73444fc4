"""Admission control, dispatch and executor supervision for the service.

Four pieces:

* :class:`AdmissionController` — bounded queue depth with backpressure.
  Like *variable instruction fetch rate* throttling fetch under branch
  uncertainty, the server throttles admission under load instead of
  melting down: when the queue is full, new sweep jobs are rejected with
  a 429-style ``retry_after``, and interactive jobs may *shed* the
  newest queued sweep job to take its place (load-shedding low-priority
  work before interactive work).
* :class:`SimExecutor` — the synchronous execution engine.  It owns the
  persistent per-(scale, seed) :class:`~repro.runtime.ParallelRunner`
  instances (one shared disk cache, warm program/result memos) and
  computes coalescing keys.  Watchdog, retry and failure classification
  are entirely delegated to ``runtime/parallel.py``; runners run with
  ``keep_going`` so a failed job becomes an error envelope, never a
  dead dispatcher.
* :class:`PoolSupervisor` — executor-death detection.  A batch whose
  every job died in a *transient* phase (stall timeout, broken pool —
  :data:`repro.runtime.TRANSIENT_PHASES`) means the executor itself is
  sick, not the jobs; the supervisor restarts the executor's runners
  with capped exponential backoff and, after repeated failed restarts,
  trips a circuit breaker: new sweep submissions are refused with a
  ``Retry-After`` hint while interactive jobs keep draining, and the
  breaker half-opens after a cooldown so one healthy batch closes it.
* :class:`Dispatcher` — the async loop: pop a fair batch, journal its
  ``started`` records, execute it in a worker thread
  (``asyncio.to_thread``) under the supervisor's retry policy, fan
  results out to every ticket (journaling each terminal transition),
  repeat.  One batch executes at a time; requests arriving meanwhile
  coalesce onto queued/running entries, which is exactly the reuse
  window the design wants.
"""

from __future__ import annotations

import asyncio
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..runtime import (TRANSIENT_PHASES, FailedResult, ParallelRunner,
                       ResultCache)
from . import protocol
from .journal import COMPLETED, FAILED, JobJournal
from .metrics import ServerMetrics
from .protocol import ErrorInfo, JobSpec
from .queue import Entry, ServeQueue, Ticket


@dataclass(frozen=True)
class Admission:
    """Outcome of one admission decision."""

    accepted: bool
    error: Optional[ErrorInfo] = None
    #: sweep entry evicted to make room (already detached from the queue)
    shed: Optional[Entry] = None


class AdmissionController:
    """Bounded-depth admission with priority-aware load shedding."""

    def __init__(self, max_depth: int = 256):
        self.max_depth = max(1, max_depth)

    def retry_after(self, queue: ServeQueue,
                    metrics: ServerMetrics) -> float:
        """Backpressure hint: roughly one batch's worth of latency."""
        est = metrics.recent_latency() * max(1, queue.depth)
        return min(30.0, max(0.5, est))

    def decide(self, queue: ServeQueue, spec: JobSpec,
               metrics: ServerMetrics) -> Admission:
        if queue.depth < self.max_depth:
            return Admission(accepted=True)
        retry = self.retry_after(queue, metrics)
        if spec.priority == "interactive":
            victim = queue.shed_newest_sweep()
            if victim is not None:
                return Admission(accepted=True, shed=victim)
        return Admission(accepted=False, error=ErrorInfo(
            kind="rejected",
            message=f"queue full ({self.max_depth} entries); "
                    f"retry in {retry:.1f}s",
            retry_after=retry))


class PoolSupervisor:
    """Executor-death detection, supervised restart, circuit breaker.

    State machine (``state``):

    * ``ok`` — healthy; every non-transient batch outcome resets here.
    * ``pool-restarting`` — the last batch died transiently; the
      executor's runners were rebuilt and the batch is being retried
      after a capped exponential backoff.
    * ``circuit-open`` — ``max_restarts`` consecutive restarts failed.
      New *sweep* submissions are refused (``allows`` / ``retry_after``)
      while interactive jobs drain; after ``cooldown`` seconds the
      breaker half-opens — the next batch probes the pool and a healthy
      outcome closes it.

    All methods run on the event-loop thread (the dispatcher awaits the
    executor off-loop but consults the supervisor between attempts).
    """

    OK = "ok"
    RESTARTING = "pool-restarting"
    OPEN = "circuit-open"

    def __init__(self, max_restarts: int = 3, backoff_base: float = 0.5,
                 backoff_cap: float = 8.0, cooldown: float = 30.0,
                 clock=time.monotonic):
        self.max_restarts = max(1, max_restarts)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.cooldown = cooldown
        self._clock = clock
        self.state = self.OK
        #: consecutive transient batch failures since the last success
        self.consecutive = 0
        #: lifetime supervised restarts / breaker trips
        self.restarts = 0
        self.trips = 0
        self._opened_at = 0.0

    # -- classification --------------------------------------------------
    @staticmethod
    def batch_transient(entries: List[Entry],
                        outcome: Dict[str, Tuple[object, str]]) -> bool:
        """True when *every* job in the batch died in a transient phase.

        One bad job among good ones is a job problem (reported to its
        client); a whole batch of timeouts/pool breakage is an executor
        problem — the supervisor's signal.
        """
        if not entries:
            return False
        for entry in entries:
            result, _ = outcome.get(entry.key, (None, "failed"))
            if not (isinstance(result, FailedResult)
                    and result.phase in TRANSIENT_PHASES):
                return False
        return True

    # -- transitions -----------------------------------------------------
    def note_ok(self) -> None:
        """A batch produced a non-transient outcome: close the breaker."""
        self.state = self.OK
        self.consecutive = 0

    def note_transient(self) -> bool:
        """Record one dead batch; True when a supervised retry may run."""
        self.consecutive += 1
        if self.consecutive > self.max_restarts:
            self.state = self.OPEN
            self._opened_at = self._clock()
            self.trips += 1
            return False
        self.state = self.RESTARTING
        self.restarts += 1
        return True

    def backoff(self) -> float:
        """Capped exponential delay before the next supervised retry."""
        return min(self.backoff_cap,
                   self.backoff_base * (2 ** max(0, self.consecutive - 1)))

    # -- admission gate --------------------------------------------------
    @property
    def degraded(self) -> bool:
        return self.state != self.OK

    def allows(self, priority: str) -> bool:
        """May a submission of this priority enter while degraded?

        Interactive jobs always may (they drain, and they probe a
        half-open breaker); sweeps are refused while the breaker is
        open and the cooldown has not elapsed.
        """
        if self.state != self.OPEN or priority == "interactive":
            return True
        return self._clock() - self._opened_at >= self.cooldown

    def retry_after(self) -> float:
        """Backpressure hint for a refused sweep: breaker time left."""
        remaining = self.cooldown - (self._clock() - self._opened_at)
        return min(self.cooldown, max(0.5, remaining))

    def snapshot(self) -> Dict[str, object]:
        return {"state": self.state, "consecutive": self.consecutive,
                "restarts": self.restarts, "trips": self.trips}


class SimExecutor:
    """Synchronous execution engine behind the dispatcher.

    Long-lived state: one :class:`ResultCache` shared by every runner
    and one :class:`ParallelRunner` per (scale, seed) workload point
    (the runner's result memo is per scale/seed, so reusing the
    instance is what makes the daemon *warm*).  Coalescing keys come
    straight from ``spec.cache_key()`` — the canonical run identity of
    :mod:`repro.runtime.keys`, whose own memo + lock keep the submit
    threads' concurrent program builds from duplicating work.
    """

    def __init__(self, cache: Optional[ResultCache] = None,
                 jobs: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None):
        self.cache = ResultCache() if cache is None else cache
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self._runners: Dict[Tuple[float, int], ParallelRunner] = {}
        #: tallies carried over from runners discarded by restart_pool
        self._retired = {"sims_run": 0, "disk_hits": 0, "memo_hits": 0,
                         "derived": 0, "pool_restarts": 0}

    # -- runners ---------------------------------------------------------
    def runner_for(self, scale: float, seed: int) -> ParallelRunner:
        point = (scale, seed)
        runner = self._runners.get(point)
        if runner is None:
            runner = ParallelRunner(
                scale=scale, seed=seed, jobs=self.jobs, cache=self.cache,
                keep_going=True, timeout=self.timeout,
                retries=self.retries)
            self._runners[point] = runner
        return runner

    # -- coalescing keys -------------------------------------------------
    def key_for(self, spec: JobSpec) -> str:
        """The content-addressed identity of one request.

        Exactly ``spec.cache_key()`` — the canonical run key shared
        with the local pool's memo/disk lookups — so two requests
        coalesce iff a warm cache would have served the second from the
        first's result.  Raises :class:`protocol.ProtocolError` for a
        kernel that cannot be built.
        """
        try:
            return spec.cache_key()
        except Exception as exc:
            raise protocol.ProtocolError(
                f"cannot build kernel {spec.kernel!r}: {exc}") from None

    # -- execution -------------------------------------------------------
    def execute(self, entries: List[Entry]) -> Dict[str, Tuple[object, str]]:
        """Run a batch; returns ``{entry key: (stats-or-FailedResult,
        source)}`` where source is memo/disk/derived/sim/failed.

        Runs on the dispatch worker thread.  Entries are grouped per
        (scale, seed) runner; within a group the runner handles pool
        fan-out, memo/disk reuse and keep-going failure capture.
        """
        outcome: Dict[str, Tuple[object, str]] = {}
        groups: Dict[Tuple[float, int], List[Entry]] = {}
        for entry in entries:
            spec = entry.spec
            groups.setdefault((spec.scale, spec.seed), []).append(entry)
        for (scale, seed), group in groups.items():
            runner = self.runner_for(scale, seed)
            stats = runner.run_many([e.spec for e in group])
            for entry, st in zip(group, stats):
                outcome[entry.key] = (st,
                                      runner.sources.get(entry.key, "sim"))
            # Error envelopes carry each failure; don't let the daemon's
            # keep-going ledger grow without bound.
            runner.failures.clear()
        return outcome

    def restart_pool(self) -> None:
        """Discard every warm runner (supervised-restart path).

        Runner state is rebuilt lazily on the next batch: fresh result
        memos, fresh pool.  The shared disk cache persists — completed
        results survive the restart — and the discarded runners'
        accounting tallies are retired into :meth:`totals` so the
        metrics never go backwards.
        """
        for runner in self._runners.values():
            self._retired["sims_run"] += runner.sims_run
            self._retired["disk_hits"] += runner.disk_hits
            self._retired["memo_hits"] += runner.memo_hits
            self._retired["derived"] += runner.derived
            self._retired["pool_restarts"] += runner.pool_restarts
        self._runners.clear()

    # -- accounting ------------------------------------------------------
    def totals(self) -> Dict[str, int]:
        t = dict(self._retired)
        for runner in self._runners.values():
            t["sims_run"] += runner.sims_run
            t["disk_hits"] += runner.disk_hits
            t["memo_hits"] += runner.memo_hits
            t["derived"] += runner.derived
            t["pool_restarts"] += runner.pool_restarts
        return t

    def flush_cache(self) -> None:
        self.cache.flush_counters()


class Dispatcher:
    """The async dispatch loop (one in-flight batch at a time)."""

    def __init__(self, queue: ServeQueue, executor: SimExecutor,
                 metrics: ServerMetrics, batch_max: int = 32,
                 supervisor: Optional[PoolSupervisor] = None,
                 journal: Optional[JobJournal] = None):
        self.queue = queue
        self.executor = executor
        self.metrics = metrics
        self.batch_max = max(1, batch_max)
        self.supervisor = PoolSupervisor() if supervisor is None \
            else supervisor
        self.journal = journal
        self._wake = asyncio.Event()
        self._stopping = False
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        self._task = asyncio.get_event_loop().create_task(self._run())

    def kick(self) -> None:
        self._wake.set()

    async def stop(self) -> None:
        """Finish the in-flight batch (and anything already queued
        before the drain emptied it), then stop."""
        self._stopping = True
        self.kick()
        if self._task is not None:
            await self._task

    async def _run(self) -> None:
        while True:
            entries = self.queue.pop_batch(self.batch_max)
            if not entries:
                if self._stopping:
                    break
                self._wake.clear()
                await self._wake.wait()
                continue
            now = time.monotonic()
            for entry in entries:
                for t in entry.tickets:
                    t.started_at = t.started_at or now
            if self.journal is not None:
                self.journal.note_started([e.key for e in entries])
            outcome = await self._execute_supervised(entries)
            self._finish(entries, outcome)
            self.executor.flush_cache()

    async def _execute_supervised(
            self, entries: List[Entry]) -> Dict[str, Tuple[object, str]]:
        """Execute one batch under the supervisor's restart policy.

        A batch whose every job died transiently (or whose execute call
        itself raised) is retried on freshly built runners with capped
        exponential backoff; once the supervisor trips the breaker (or
        a drain begins) the last failed outcome stands and its error
        envelopes go back to the clients.
        """
        while True:
            try:
                outcome = await asyncio.to_thread(
                    self.executor.execute, entries)
            except Exception:
                # Executor death of the second kind: the engine itself
                # raised (runners run keep_going, so per-job failures
                # never land here).  Classify as a transient pool
                # failure and let the supervisor decide.
                err = traceback.format_exc()
                outcome = {e.key: (FailedResult(
                    e.spec.kernel, e.spec.scale, e.spec.seed, error=err,
                    phase="pool"), "failed") for e in entries}
            if not self.supervisor.batch_transient(entries, outcome):
                self.supervisor.note_ok()
                return outcome
            if not self.supervisor.note_transient():
                self.metrics.inc("circuit_trips")
                return outcome
            self.metrics.inc("pool_restarts")
            self.executor.restart_pool()
            if self._stopping:
                return outcome
            await asyncio.sleep(self.supervisor.backoff())

    def _finish(self, entries: List[Entry],
                outcome: Dict[str, Tuple[object, str]]) -> None:
        now = time.monotonic()
        terminal: List[Tuple[str, str, Dict[str, object]]] = []
        for entry in entries:
            result, source = outcome.get(
                entry.key, (FailedResult(entry.spec.kernel,
                                         entry.spec.scale, entry.spec.seed,
                                         error="no result produced",
                                         phase="dispatch"), "failed"))
            failed = isinstance(result, FailedResult)
            if failed:
                terminal.append((FAILED, entry.key,
                                 {"message": result.describe()}))
            else:
                terminal.append((COMPLETED, entry.key,
                                 {"source": source}))
            for i, ticket in enumerate(entry.tickets):
                ticket.finished_at = now
                ticket.source = source if i == 0 else "coalesced"
                if failed:
                    ticket.state = protocol.FAILED
                    ticket.error = ErrorInfo.from_failed_result(result)
                    self.metrics.inc("jobs_failed")
                else:
                    ticket.state = protocol.DONE
                    ticket.stats = result.to_dict()
                    self.metrics.inc("jobs_completed")
                self.metrics.observe_latency(now - ticket.submitted_at)
            self.queue.finish(entry)
        if self.journal is not None:
            # One durability point for the whole batch's terminal
            # transitions (completed-with-source / failed).
            self.journal.append_many(terminal)
