"""Dispatch and the circuit breaker for the service.

Three pieces (admission itself — a bounded queue depth answered with a
429-style ``retry_after`` — is one check in the server's submit path):

* :class:`SimExecutor` — the synchronous execution engine.  It owns the
  long-lived per-(scale, seed) :class:`~repro.runtime.ParallelRunner`
  instances (one shared disk cache, warm program/result memos) and
  computes coalescing keys.  Watchdog, retry and failure classification
  are entirely delegated to ``runtime/parallel.py``, which re-runs a
  batch's transient failures on a fresh pool up to the runners'
  ``retries`` budget (:data:`SERVE_RETRIES` unless ``--retries`` or
  ``REPRO_RETRIES`` sets it).  Runners run with ``keep_going`` so a
  failed job becomes an error envelope, never a dead dispatcher.
* :class:`CircuitBreaker` — executor-death detection.  A batch that is
  still all transient failures after those retries means the executor
  itself is sick, not the jobs: new submissions are refused with a
  ``Retry-After`` hint until a cooldown elapses, then the breaker
  half-opens so one healthy batch closes it.
* :class:`Dispatcher` — the async loop: pop the oldest batch, journal its
  ``started`` records, execute it in a worker thread
  (``asyncio.to_thread``), let the breaker judge the outcome, fan
  results out to every ticket (journaling each terminal transition),
  repeat.  One batch executes at a time; requests arriving meanwhile
  coalesce onto queued/running entries, which is exactly the reuse
  window the design wants.
"""

from __future__ import annotations

import asyncio
import time
import traceback
from typing import Dict, List, Optional, Tuple

from ..runtime import (TRANSIENT_PHASES, FailedResult, ParallelRunner,
                       ResultCache, RunSpec, default_retries)
from . import protocol
from .journal import COMPLETED, FAILED, JobJournal
from .metrics import ServerMetrics
from .protocol import ErrorInfo
from .queue import Entry, ServeQueue

#: transient-failure retries of the daemon's runners when neither
#: ``--retries`` nor ``REPRO_RETRIES`` is set: eight attempts, each on a
#: fresh pool, before a batch's jobs fail and the breaker opens
SERVE_RETRIES = 7


class CircuitBreaker:
    """Executor-death detection: the admission gate behind a dead pool.

    A *dead* batch is one whose every job still ended in a transient
    phase (:data:`repro.runtime.TRANSIENT_PHASES`) after the runtime's
    own retries on fresh pools.  One dead batch opens the breaker
    (``circuit-open``): new submissions are refused (``allows`` /
    ``retry_after``) while already-queued jobs drain; after ``cooldown``
    seconds the breaker half-opens — the next batch probes the pool and
    a healthy outcome closes it (``ok``).

    All methods run on the event-loop thread.
    """

    OK = "ok"
    OPEN = "circuit-open"

    def __init__(self, cooldown: float = 30.0, clock=time.monotonic):
        self.cooldown = cooldown
        self._clock = clock
        self.state = self.OK
        self._opened_at = 0.0

    @staticmethod
    def batch_dead(entries: List[Entry],
                   outcome: Dict[str, Tuple[object, str]]) -> bool:
        """True when *every* job in the batch died in a transient phase.

        One bad job among good ones is a job problem (reported to its
        client); a whole batch of timeouts/pool breakage is an executor
        problem — the breaker's signal.
        """
        results = [outcome.get(e.key, (None, ""))[0] for e in entries]
        return bool(results) and all(
            isinstance(r, FailedResult) and r.phase in TRANSIENT_PHASES
            for r in results)

    def note_batch(self, entries: List[Entry],
                   outcome: Dict[str, Tuple[object, str]]) -> bool:
        """Record one batch's outcome; True when it opened the breaker."""
        if not self.batch_dead(entries, outcome):
            self.state = self.OK
            return False
        self.state = self.OPEN
        self._opened_at = self._clock()
        return True

    def allows(self) -> bool:
        """May a new submission enter?  Not while the breaker is open
        and its cooldown has not elapsed."""
        if self.state != self.OPEN:
            return True
        return self._clock() - self._opened_at >= self.cooldown

    def retry_after(self) -> float:
        """Backpressure hint for a refused submission: breaker time
        left."""
        remaining = self.cooldown - (self._clock() - self._opened_at)
        return min(self.cooldown, max(0.5, remaining))


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
        self.retries = default_retries(SERVE_RETRIES) if retries is None \
            else retries
        self._runners: Dict[Tuple[float, int], ParallelRunner] = {}

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
    def key_for(self, spec: RunSpec) -> str:
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

    # -- accounting ------------------------------------------------------
    def totals(self) -> Dict[str, int]:
        runners = self._runners.values()
        return {name: sum(getattr(r, name) for r in runners)
                for name in ("sims_run", "disk_hits", "memo_hits",
                             "derived")}

    def flush_cache(self) -> None:
        self.cache.flush_counters()


class Dispatcher:
    """The async dispatch loop (one in-flight batch at a time)."""

    def __init__(self, queue: ServeQueue, executor: SimExecutor,
                 metrics: ServerMetrics, batch_max: int = 32,
                 breaker: Optional[CircuitBreaker] = None,
                 journal: Optional[JobJournal] = None):
        self.queue = queue
        self.executor = executor
        self.metrics = metrics
        self.batch_max = max(1, batch_max)
        self.breaker = CircuitBreaker() if breaker is None else breaker
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
            try:
                outcome = await asyncio.to_thread(self.executor.execute,
                                                  entries)
            except Exception:
                # The engine itself raised (runners run keep_going, so
                # per-job failures never land here): executor death, so
                # every job fails in phase "pool" and the batch is dead.
                err = traceback.format_exc()
                outcome = {e.key: (FailedResult(
                    e.spec.kernel, e.spec.scale, e.spec.seed, error=err,
                    phase="pool"), "failed") for e in entries}
            if self.breaker.note_batch(entries, outcome):
                self.metrics.inc("circuit_trips")
            self._finish(entries, outcome)
            self.executor.flush_cache()

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
