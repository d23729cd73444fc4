"""Parallel simulation executor and the memoising/caching runner.

The experiment grid is embarrassingly parallel across (kernel, config)
points, so ``ParallelRunner`` fans simulation jobs out over a
``ProcessPoolExecutor``:

* jobs are grouped into per-program batches — one submission per
  (kernel, scale, seed) — so each worker builds and predecodes the
  program once and runs every configuration against the shared
  decode-once image (batches split when there are fewer program points
  than workers);
* ``jobs`` comes from the constructor, else ``REPRO_JOBS``, else
  ``os.cpu_count()``;
* ``jobs == 1`` (or a single-job batch, or a platform without working
  multiprocessing) falls back to plain in-process execution;
* workers capture exceptions and ship the traceback back as data, so a
  failed simulation surfaces as one clean report instead of a hung or
  poisoned pool.

Failure handling (DESIGN.md §8): results are collected as futures
complete under a stall watchdog (``timeout`` / ``REPRO_TIMEOUT`` — if
*no* job makes progress for that long, the pending ones are declared
hung), transient failures (timeouts, a broken pool) are retried with
exponential backoff (``retries`` / ``REPRO_RETRIES``), and every
permanent failure is aggregated: the default mode raises one
:class:`WorkerError` naming *all* failed jobs, while ``keep_going``
mode substitutes a typed :class:`FailedResult` placeholder per failure
so sweeps complete with explicit holes instead of aborting.

Results are shared at three levels: an in-process memo (same object
returned for repeat queries, which downstream code relies on), the
persistent on-disk :class:`~repro.runtime.cache.ResultCache`, and the
pool itself (duplicate jobs within one batch are submitted once).  A
capacity sweep point (register file, speculative data memory) is also
answered without simulating when a larger sibling's pools provably
never bound (DESIGN §9.7).
"""

from __future__ import annotations

import math
import os
import signal
import sys
import time
import traceback
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..uarch import ProcessorConfig, SimStats
from .cache import ResultCache
from .keys import cached_program, capacity_group, run_key
from .spec import RunSpec

if TYPE_CHECKING:  # pragma: no cover - imported where a pool runs
    from concurrent.futures import Future, ProcessPoolExecutor


class WorkerError(RuntimeError):
    """One or more simulations failed inside worker processes.

    ``interrupted`` is True when the failure report was produced by a
    Ctrl-C / SIGINT drain rather than by job failures: the pool was
    terminated cleanly and the unfinished jobs are listed in the report.
    """

    interrupted = False


class FailedResult:
    """Typed placeholder for a simulation that could not produce stats.

    Under ``keep_going`` a failed job yields one of these instead of
    aborting the sweep.  It duck-types as ``SimStats`` for reporting:
    every unknown attribute reads as ``nan``, so derived metrics (IPC,
    speedups, harmonic means) propagate the hole and tables render it as
    an explicit ``--`` marker instead of a silently wrong number.
    """

    failed = True

    def __init__(self, kernel: str, scale: float, seed: int, error: str,
                 phase: str = "worker", attempts: int = 1):
        self.kernel = kernel
        self.scale = scale
        self.seed = seed
        self.error = error
        #: where it died: ``worker`` (exception inside the simulation),
        #: ``timeout`` (stall watchdog), or ``pool`` (executor breakage)
        self.phase = phase
        self.attempts = attempts

    def describe(self) -> str:
        last = self.error.rstrip().splitlines()[-1] if self.error else "?"
        return (f"{self.kernel} (scale={self.scale}, seed={self.seed}) "
                f"failed [{self.phase}, attempt {self.attempts}]: {last}")

    def to_dict(self) -> dict:
        return {"failed": True, "kernel": self.kernel, "scale": self.scale,
                "seed": self.seed, "phase": self.phase,
                "attempts": self.attempts, "error": self.error}

    def __repr__(self) -> str:
        return f"<FailedResult {self.kernel} [{self.phase}]>"

    def __getattr__(self, name: str):
        # Stats-like attribute reads propagate the hole as NaN.
        if name.startswith("_"):
            raise AttributeError(name)
        return math.nan


class _Failure:
    """Internal per-attempt failure record (phase + error text)."""

    __slots__ = ("phase", "error")

    def __init__(self, phase: str, error: str):
        self.phase = phase
        self.error = error


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else the *usable* cores.

    "Usable" honours the process CPU-affinity mask
    (``os.sched_getaffinity``) where the platform provides it, so a
    containerized/cgroup-limited deployment pinned to 4 CPUs gets 4
    workers even when the host machine reports 64; platforms without
    affinity fall back to ``os.cpu_count()``.
    """
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            print(f"warning: unparsable REPRO_JOBS={env!r}; falling back "
                  f"to the machine's core count", file=sys.stderr)
    try:
        usable = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        usable = 0
    return usable or os.cpu_count() or 1


#: process-wide count of retry passes that rebuilt the worker pool after
#: a transient failure (stall timeout / executor breakage); the serving
#: layer reports it as its ``worker restarts`` metric
_pool_restarts = 0


def pool_restart_count() -> int:
    """How many times this process rebuilt a worker pool for a retry."""
    return _pool_restarts


#: failure phases classified as *transient*: the job itself may be fine
#: and a fresh pool may succeed.  The retry loop re-runs them with
#: backoff; the serving layer's circuit breaker opens on a batch still
#: all transient after those retries, so "executor death" means the same
#: thing at both levels.
TRANSIENT_PHASES = ("timeout", "pool")


def default_timeout() -> Optional[float]:
    """Stall-watchdog seconds from ``REPRO_TIMEOUT`` (0/empty = none)."""
    env = os.environ.get("REPRO_TIMEOUT")
    if not env:
        return None
    try:
        value = float(env)
    except ValueError:
        print(f"warning: unparsable REPRO_TIMEOUT={env!r}; watchdog "
              f"disabled", file=sys.stderr)
        return None
    return value if value > 0 else None


def default_retries(fallback: int = 1) -> int:
    """Retries for transient failures: ``REPRO_RETRIES`` or ``fallback``."""
    env = os.environ.get("REPRO_RETRIES")
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            print(f"warning: unparsable REPRO_RETRIES={env!r}; using the "
                  f"default", file=sys.stderr)
    return fallback


def _run_job(job: RunSpec) -> Tuple[Optional[dict], Optional[dict],
                                    Optional[str]]:
    """Worker entry point: returns (stats dict, observer payload, error).

    Module-level so it pickles under both fork and spawn start methods;
    imports stay inside so a spawned worker re-resolves the package.
    The spec's riders are honoured here: the observer is built from
    ``job.observe`` and the fault plan parsed from ``job.faults`` (a
    fault-free spec leaves ``faults=None``, preserving the
    ``REPRO_FAULTS`` environment fallback inside ``run_program``).
    """
    try:
        if job.sampling:
            from ..sampling.executor import run_sampled_job
            return run_sampled_job(job).to_dict(), None, None
        from .. import run_program
        from ..observe import make_observer
        prog = cached_program(job.kernel, job.scale, job.seed)
        observers = make_observer(job.observe)
        stats = run_program(prog, job.resolved_cfg(), observer=observers,
                            faults=job.faults)
        payload = {name: data for obs in observers
                   for name, data in obs.export().items()} or None
        return stats.to_dict(), payload, None
    except Exception:
        return None, None, traceback.format_exc()


def _worker_init() -> None:
    """Reset inherited signal state in a freshly started pool worker.

    Fork-context workers inherit the parent's signal disposition
    wholesale.  Under ``repro serve`` that includes the asyncio loop's
    wakeup fd: a signal delivered to a *worker* (e.g. the SIGTERM
    concurrent.futures sends surviving workers when one dies) would be
    written into the parent loop's self-pipe and drain the daemon as if
    the operator had asked.  Workers must die their own deaths.
    """
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover
            pass


def _run_batch(batch: Sequence[RunSpec]) -> List[Tuple[Optional[dict],
                                                       Optional[dict],
                                                       Optional[str]]]:
    """Worker entry point for a per-program batch of jobs.

    The scheduler groups jobs by (kernel, scale, seed) so one submission
    builds and predecodes the program once and runs every configuration
    against the shared image.  Failures stay per-job: one bad config in
    a batch does not poison its siblings.  Dispatches through the
    module-global ``_run_job`` so tests can monkeypatch it.
    """
    return [_run_job(job) for job in batch]


def _batch_chunks(jobs: Sequence[RunSpec],
                  indexes: Sequence[int], n_workers: int) -> List[List[int]]:
    """Partition job indexes into per-program submission chunks.

    Jobs grouped by (kernel, scale, seed) share one program build per
    chunk.  When there are fewer program points than workers, each group
    is split so the pool still fills — a split costs one extra build,
    idle workers cost the whole group's runtime.
    """
    groups: Dict[Tuple[str, float, int], List[int]] = {}
    for i in indexes:
        job = jobs[i]
        groups.setdefault((job.kernel, job.scale, job.seed), []).append(i)
    chunks = list(groups.values())
    if 0 < len(chunks) < n_workers:
        pieces = -(-n_workers // len(chunks))  # ceil: splits per group
        split: List[List[int]] = []
        for group in chunks:
            size = -(-len(group) // pieces)
            split.extend(group[k:k + size]
                         for k in range(0, len(group), size))
        chunks = split
    return chunks


#: one result slot: (stats dict, payload) on success, else a _Failure
_Slot = Union[Tuple[Optional[dict], Optional[dict]], "_Failure", None]


def _run_serial(jobs: Sequence[RunSpec], indexes: Sequence[int],
                results: List[_Slot]) -> None:
    for i in indexes:
        stats, payload, err = _run_job(jobs[i])
        results[i] = _Failure("worker", err) if err is not None \
            else (stats, payload)


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Kill a stalled pool's worker processes so shutdown cannot hang."""
    try:
        for proc in list(pool._processes.values()):
            proc.terminate()
    except (AttributeError, OSError):  # pragma: no cover - interpreter detail
        pass


def _run_pool_pass(jobs: Sequence[RunSpec], indexes: Sequence[int],
                   results: List[_Slot], n_workers: int,
                   timeout: Optional[float]) -> List[int]:
    """One pool attempt over ``jobs[indexes]``; returns transient failures.

    Futures are collected as they complete.  The watchdog is a *stall*
    timeout: if no job at all completes within ``timeout`` seconds, the
    still-pending jobs are declared hung, their workers terminated, and
    their indexes returned for retry (alongside pool-level breakage);
    per-job exceptions captured by the worker are permanent and recorded
    directly into ``results``.
    """
    transient: List[int] = []
    chunks = _batch_chunks(jobs, indexes, n_workers)
    try:
        # Imported here, so a run that resolves everything from the
        # cache never loads the pool machinery.
        import multiprocessing
        from concurrent.futures import (FIRST_COMPLETED,
                                        ProcessPoolExecutor, wait)
        from concurrent.futures.process import BrokenProcessPool
        try:  # prefer fork: cheap, inherits the loaded package
            context = multiprocessing.get_context("fork")
        except ValueError:
            context = multiprocessing.get_context()
        with ProcessPoolExecutor(max_workers=min(n_workers, len(chunks)),
                                 mp_context=context,
                                 initializer=_worker_init) as pool:
            futures: Dict[Future, List[int]] = {}
            try:
                for chunk in chunks:
                    future = pool.submit(_run_batch, [jobs[i] for i in chunk])
                    futures[future] = chunk
            except BrokenProcessPool as exc:
                # A worker died before every chunk was submitted: the
                # unsubmitted jobs are transient too.
                for chunk in chunks[len(futures):]:
                    for i in chunk:
                        results[i] = _Failure("pool", repr(exc))
                        transient.append(i)
            pending = set(futures)
            try:
                while pending:
                    done, pending = wait(pending, timeout=timeout,
                                         return_when=FIRST_COMPLETED)
                    if not done:
                        # Stall: nothing completed inside the watchdog
                        # window.
                        for f in pending:
                            f.cancel()
                            for i in futures[f]:
                                results[i] = _Failure(
                                    "timeout", f"no worker progress for "
                                               f"{timeout:g}s (declared "
                                               f"hung)")
                                transient.append(i)
                        _terminate_workers(pool)
                        pool.shutdown(wait=False, cancel_futures=True)
                        break
                    for f in done:
                        chunk = futures[f]
                        exc = f.exception()
                        if exc is not None:
                            # Executor-level breakage (e.g. a worker
                            # died); the jobs themselves may be fine —
                            # retry them.
                            for i in chunk:
                                results[i] = _Failure("pool", repr(exc))
                                transient.append(i)
                            continue
                        for i, (stats, payload, err) in zip(chunk,
                                                            f.result()):
                            results[i] = _Failure("worker", err) \
                                if err is not None else (stats, payload)
            except KeyboardInterrupt:
                # Ctrl-C drain: kill the workers *before* the executor's
                # __exit__ tries to join them (that join would otherwise
                # hang on in-flight simulations and orphan mid-retry
                # workers), then record every unfinished job so the
                # caller can still emit the aggregated failure report.
                for f in pending:
                    f.cancel()
                _terminate_workers(pool)
                pool.shutdown(wait=False, cancel_futures=True)
                for f in pending:
                    for i in futures[f]:
                        if results[i] is None:
                            results[i] = _Failure(
                                "interrupted",
                                "interrupted by user (SIGINT)")
                raise
    except (OSError, ImportError, NotImplementedError):
        # No usable multiprocessing: its modules fail to import, or
        # ProcessPoolExecutor refuses to start (NotImplementedError on a
        # build without multiprocessing.synchronize).
        _run_serial(jobs, indexes, results)
        return []
    return transient


def execute_jobs_observed(
        jobs: Sequence[RunSpec], n_workers: Optional[int] = None, *,
        timeout: Optional[float] = None, retries: Optional[int] = None,
        keep_going: bool = False,
) -> List[Tuple[Union[SimStats, FailedResult], Optional[dict]]]:
    """Run ``jobs`` (possibly in parallel), preserving order.

    Returns one ``(stats, observer payload)`` pair per job — the payload
    is ``None`` unless the job carried an ``observe`` spec.  Transient
    failures (stall timeouts, executor breakage) are retried up to
    ``retries`` times with exponential backoff on a fresh pool.  When
    failures remain: with ``keep_going`` each failed slot holds a
    :class:`FailedResult` placeholder; otherwise one :class:`WorkerError`
    aggregating *every* failure is raised.  The pool is never left
    hanging — stalled workers are terminated.
    """
    global _pool_restarts
    n = default_jobs() if n_workers is None else max(1, n_workers)
    if timeout is None:
        timeout = default_timeout()
    elif timeout <= 0:
        timeout = None
    retries = default_retries() if retries is None else max(0, retries)
    results: List[_Slot] = [None] * len(jobs)
    attempts = [0] * len(jobs)
    outstanding = list(range(len(jobs)))
    attempt = 0
    interrupted = False
    try:
        while outstanding:
            for i in outstanding:
                attempts[i] += 1
            if n <= 1 or len(outstanding) <= 1:
                # In-process execution: no pool, no watchdog (a hang here
                # would hang the caller anyway), no transient failures.
                _run_serial(jobs, outstanding, results)
                transient: List[int] = []
            else:
                transient = _run_pool_pass(jobs, outstanding, results, n,
                                           timeout)
            if not transient or attempt >= retries:
                break
            attempt += 1
            _pool_restarts += 1
            time.sleep(min(2.0, 0.1 * (2 ** (attempt - 1))))
            outstanding = sorted(transient)
    except KeyboardInterrupt:
        # The pool pass already terminated its workers; any slot that
        # never produced a result becomes an "interrupted" failure so
        # the drain still ends with the aggregated failure report.
        interrupted = True
        for i, slot in enumerate(results):
            if slot is None:
                results[i] = _Failure("interrupted",
                                      "interrupted by user (SIGINT)")
    out: List[Tuple[Union[SimStats, FailedResult], Optional[dict]]] = []
    failures: List[FailedResult] = []
    for i, (job, slot) in enumerate(zip(jobs, results)):
        if isinstance(slot, _Failure):
            fr = FailedResult(job.kernel, job.scale, job.seed,
                              error=slot.error, phase=slot.phase,
                              attempts=attempts[i])
            failures.append(fr)
            out.append((fr, None))
        else:
            assert slot is not None
            stats, payload = slot
            out.append((SimStats.from_dict(stats), payload))
    if interrupted:
        # An interrupt always aborts (keep_going is for *job* failures):
        # the report names every job that did not finish.
        err = WorkerError("interrupted by user — pool drained cleanly\n"
                          + aggregate_failure_report(failures))
        err.interrupted = True
        raise err
    if failures and not keep_going:
        raise WorkerError(aggregate_failure_report(failures))
    return out


def aggregate_failure_report(failures: Sequence[FailedResult]) -> str:
    """One report naming every failed job (summary lines + tracebacks)."""
    lines = [f"{len(failures)} simulation(s) failed:"]
    lines.extend(f"  [{i + 1}] {f.describe()}"
                 for i, f in enumerate(failures))
    for i, f in enumerate(failures):
        if f.error:
            lines.append(f"--- [{i + 1}] {f.kernel} (scale={f.scale}, "
                         f"seed={f.seed}) [{f.phase}] ---")
            lines.append(f.error.rstrip())
    return "\n".join(lines)


def execute_jobs(jobs: Sequence[RunSpec],
                 n_workers: Optional[int] = None) -> List[SimStats]:
    """Like :func:`execute_jobs_observed` but stats-only (raise on fail)."""
    return [st for st, _ in execute_jobs_observed(jobs, n_workers)]


def _env_truthy(name: str) -> bool:
    return os.environ.get(name, "").lower() in ("1", "on", "yes", "true")


def _derivable(spec: RunSpec) -> bool:
    """May this run take part in capacity derivation?  Observed,
    faulted and sampled runs are always simulated."""
    return spec.observe is None and spec.faults is None \
        and spec.sampling is None


def _is_interval_token(text: Optional[str]) -> bool:
    """Does a sampling string name one interval job? (lazy import)"""
    if not text:
        return False
    from ..sampling.plan import is_interval_token
    return is_interval_token(text)


class ParallelRunner:
    """Memoising simulation runner with a worker pool and a disk cache.

    The resolution order for one (kernel, config) point is: in-process
    memo, then the persistent disk cache, then derivation from a larger
    sibling whose capacity pools provably never bound (DESIGN §9.7), then
    simulation (fanned out over the pool when a batch has more than one
    miss and ``jobs > 1``).  ``memo_hits`` / ``disk_hits`` / ``derived``
    / ``sims_run`` count those outcomes so callers can report "zero new
    simulations" on a warm cache.

    ``keep_going`` (or ``REPRO_KEEP_GOING=1``) turns job failures into
    :class:`FailedResult` placeholders collected in ``self.failures``;
    placeholders are never memoised or written to the disk cache, so a
    later run retries the failed points.
    """

    def __init__(self, scale: float, seed: int,
                 jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 observe: Optional[str] = None,
                 keep_going: bool = False,
                 timeout: Optional[float] = None,
                 retries: Optional[int] = None,
                 sampling: Optional[str] = None):
        self.scale = scale
        self.seed = seed
        self.jobs = default_jobs() if jobs is None else max(1, jobs)
        self.cache = ResultCache() if cache is None else cache
        if observe is None:
            observe = os.environ.get("REPRO_OBSERVE") or None
        #: observer spec applied to every simulation this runner executes
        #: (cached results carry no events, so observing bypasses the
        #: memo/disk lookups and re-simulates — stats stay identical)
        self.observe = observe
        #: sampling spec applied to every *plain* run this runner
        #: executes (specs already carrying sampling, faults or an
        #: observer are left alone) — how ``--sample`` reaches figure
        #: sweeps without each experiment learning the flag
        self.sampling = sampling
        self._ckpt_store = None
        self.keep_going = keep_going or _env_truthy("REPRO_KEEP_GOING")
        self.timeout = timeout
        self.retries = retries
        #: (kernel, payload) per observed simulation, in submission order
        self.observations: List[Tuple[str, dict]] = []
        #: FailedResult placeholders collected under ``keep_going``
        self.failures: List[FailedResult] = []
        #: where each resolved run last came from: ``memo`` / ``disk`` /
        #: ``derived`` / ``sim`` / ``failed``.  Each run is recorded
        #: under every name it answers to — the ``(kernel, cfg)`` point,
        #: the spec itself and (when derivable) the canonical cache key —
        #: so local callers and the serving layer share one attribution
        #: table.
        self.sources: Dict[object, str] = {}
        self._memo: Dict[str, SimStats] = {}
        #: capacity derivation (DESIGN §9.7): resolved plain runs by
        #: sweep group, then by capacity vector; ``_unindexed`` holds the
        #: runs not yet grouped
        self._capacity_index: Dict[tuple, Dict[Tuple[int, int],
                                               SimStats]] = {}
        self._unindexed: List[Tuple[RunSpec, SimStats]] = []
        self.memo_hits = 0
        self.disk_hits = 0
        self.derived = 0
        self.sims_run = 0
        #: pool rebuilds attributable to this runner's batches (the
        #: process-wide tally is :func:`pool_restart_count`)
        self.pool_restarts = 0

    # -- programs --------------------------------------------------------
    def program(self, name: str):
        """Build (once) the kernel at this runner's scale and seed.

        Delegates to the process-wide memo in :mod:`repro.runtime.keys`,
        so cache-key fingerprinting, in-process simulation and reporting
        all share one build and one predecoded image.
        """
        return cached_program(name, self.scale, self.seed)

    def _as_spec(self, spec: RunSpec) -> RunSpec:
        """Apply the runner-level ``observe`` and ``sampling`` defaults
        to a spec that does not carry its own."""
        if self.observe is not None and spec.observe is None:
            spec = replace(spec, observe=self.observe)
        if self.sampling is not None and spec.sampling is None \
                and spec.observe is None and spec.faults is None:
            spec = replace(spec, sampling=self.sampling)
        return spec

    def checkpoint_store(self):
        """The (lazily built) shared functional-checkpoint store."""
        if self._ckpt_store is None:
            from ..sampling.checkpoint import CheckpointStore
            self._ckpt_store = CheckpointStore()
        return self._ckpt_store

    def _spec_key(self, spec: RunSpec) -> Optional[str]:
        """The canonical cache key, or None when the program won't build.

        An unbuildable kernel is not an error here: the job is handed to
        the worker, which fails it with a full traceback so the error
        reports like any other job failure.
        """
        try:
            return run_key(spec)
        except Exception:
            return None

    def _note_source(self, ident: object, point, spec: RunSpec,
                     src: str) -> None:
        self.sources[(spec.kernel, spec.cfg)] = src
        self.sources[spec] = src
        if isinstance(ident, str):
            self.sources[ident] = src

    # -- execution -------------------------------------------------------
    def run(self, name: str, cfg: ProcessorConfig) -> SimStats:
        return self.run_many([RunSpec(name, self.scale, self.seed, cfg)])[0]

    def run_many(self, points: Sequence[RunSpec]) -> List[SimStats]:
        """Resolve a batch of runs, order-preserving.

        Resolution per run: in-process memo, then disk cache, then
        simulation — both lookups keyed by the canonical
        :func:`~repro.runtime.keys.run_key`, the same identity the serve
        layer coalesces on.  Runs carrying an observer or a fault plan
        skip cache *reads* (cached entries carry no events, and
        perturbed results must come from a real perturbed run); faulty
        results are additionally never written back.
        """
        order: List[object] = []
        specs: Dict[object, Tuple[object, RunSpec]] = {}
        for point in points:
            spec = self._as_spec(point)
            key = self._spec_key(spec)
            ident: object = key if key is not None else spec
            order.append(ident)
            if ident not in specs:
                specs[ident] = (point, spec)
        resolved: Dict[object, SimStats] = {}
        pending: List[Tuple[object, object, RunSpec]] = []
        sampled_parents: List[Tuple[object, object, RunSpec]] = []
        for ident, (point, spec) in specs.items():
            key = ident if isinstance(ident, str) else None
            reads_ok = (key is not None and spec.observe is None
                        and spec.faults is None)
            if reads_ok:
                st = self._memo.get(key)
                if st is not None:
                    self.memo_hits += 1
                    self._note_source(ident, point, spec, "memo")
                    resolved[ident] = st
                    continue
                st = self.cache.get(key)
                if st is not None:
                    self.disk_hits += 1
                    self._note_source(ident, point, spec, "disk")
                    self._memo[key] = resolved[ident] = st
                    self._index(spec, st)
                    continue
            if spec.sampling and not _is_interval_token(spec.sampling):
                # A parent sampled spec: expanded into interval jobs by
                # resolve_sampled (which calls back into run_many, so
                # the intervals get the full memo/disk/pool treatment);
                # only the stitched estimate is recorded under this key.
                sampled_parents.append((ident, point, spec))
                continue
            pending.append((ident, point, spec))
        if sampled_parents:
            from ..sampling.executor import resolve_sampled
            for ident, point, spec, st in resolve_sampled(
                    self, sampled_parents):
                if isinstance(st, FailedResult):
                    self.failures.append(st)
                    self._note_source(ident, point, spec, "failed")
                    resolved[ident] = st
                    continue
                self.sims_run += 1
                resolved[ident] = st
                self._note_source(ident, point, spec, "sim")
                if isinstance(ident, str):
                    self._memo[ident] = st
                    self.cache.put(ident, st, spec=spec)
        if pending:
            self._simulate(pending, resolved)
        # Persist the hit/miss tallies this batch accumulated (a no-op
        # when nothing changed or the cache is disabled).
        self.cache.flush_counters()
        return [resolved[ident] for ident in order]

    def _simulate(self, pending: List[Tuple[object, object, RunSpec]],
                  resolved: Dict[object, SimStats]) -> None:
        """Simulate ``pending`` in waves, answering each capacity sweep
        point that a resolved sibling's slack covers instead of
        simulating it (DESIGN §9.7).

        The first wave holds every run that can never be derived; each
        wave adds the lexicographically largest capacity vector left in
        each sweep group, so every simulation is a candidate source for
        its smaller siblings.  Failures are collected across waves:
        under ``keep_going`` they become placeholders, otherwise one
        :class:`WorkerError` names them all once every wave has run.
        """
        groups: Dict[tuple, List[Tuple[Tuple[int, int],
                                       Tuple[object, object, RunSpec]]]] = {}
        wave: List[Tuple[object, object, RunSpec]] = []
        for item in pending:
            ident, _, spec = item
            if isinstance(ident, str) and _derivable(spec):
                group, caps = capacity_group(spec)
                groups.setdefault(group, []).append((caps, item))
            else:
                wave.append(item)
        for members in groups.values():
            members.sort(key=lambda m: m[0])
        failures: List[FailedResult] = []
        while True:
            if groups:
                self._flush_index()
            for group, members in groups.items():
                siblings = self._capacity_index.get(group)
                if siblings:
                    members[:] = [(caps, item) for caps, item in members
                                  if not self._derive(siblings, caps, item,
                                                      resolved)]
                if members:
                    wave.append(members.pop()[1])
            if not wave:
                break
            sim_jobs = [spec for _, _, spec in wave]
            restarts_before = pool_restart_count()
            results = execute_jobs_observed(
                sim_jobs, self.jobs, timeout=self.timeout,
                retries=self.retries, keep_going=True)
            self.sims_run += len(sim_jobs)
            self.pool_restarts += pool_restart_count() - restarts_before
            for (ident, point, spec), (st, payload) in zip(wave, results):
                if isinstance(st, FailedResult):
                    # A hole, not a result: report it, never cache it,
                    # never derive from it.
                    failures.append(st)
                    if self.keep_going:
                        self.failures.append(st)
                        self._note_source(ident, point, spec, "failed")
                        resolved[ident] = st
                    continue
                resolved[ident] = st
                self._note_source(ident, point, spec, "sim")
                if isinstance(ident, str) and spec.faults is None:
                    self._memo[ident] = st
                    self.cache.put(ident, st, spec=spec)
                    self._index(spec, st)
                if payload is not None:
                    self.observations.append((spec.kernel, payload))
            wave = []
        if failures and not self.keep_going:
            raise WorkerError(aggregate_failure_report(failures))

    def _derive(self, siblings: Dict[Tuple[int, int], SimStats],
                caps: Tuple[int, int],
                item: Tuple[object, object, RunSpec],
                resolved: Dict[object, SimStats]) -> bool:
        """Answer ``item`` from a sibling at least as large in both
        pools, each gap within that pool's slack.

        The answer is the sibling's stats with each slack reduced by its
        gap — exactly what simulating it would return.  It goes to the
        memo only: never to disk, never counted as a simulation (a warm
        run re-derives it from the cached sibling).
        """
        regs, positions = caps
        for (src_regs, src_positions), src in siblings.items():
            gap_regs = src_regs - regs
            gap_positions = src_positions - positions
            if 0 <= gap_regs <= src.regs_slack \
                    and 0 <= gap_positions <= src.spec_mem_slack:
                break
        else:
            return False
        ident, point, spec = item
        st = replace(src, regs_slack=src.regs_slack - gap_regs,
                     spec_mem_slack=src.spec_mem_slack - gap_positions,
                     interval_committed=list(src.interval_committed))
        self.derived += 1
        self._note_source(ident, point, spec, "derived")
        self._memo[ident] = resolved[ident] = st
        siblings[caps] = st
        return True

    def _index(self, spec: RunSpec, st: SimStats) -> None:
        """Offer a resolved plain run as a source for smaller siblings."""
        if _derivable(spec) and (st.regs_slack > 0 or st.spec_mem_slack > 0):
            self._unindexed.append((spec, st))

    def _flush_index(self) -> None:
        """Group the runs :meth:`_index` collected (deferred until a
        batch has sweep groups to derive, so other batches never
        compute group keys)."""
        for spec, st in self._unindexed:
            group, caps = capacity_group(spec)
            self._capacity_index.setdefault(group, {})[caps] = st
        self._unindexed.clear()

    # -- observations ----------------------------------------------------
    def merged_observations(self) -> Dict[str, dict]:
        """All collected observer payloads, merged by observer name.

        Deterministic: payloads merge in job-submission order, never in
        worker-completion order."""
        from ..observe import merge_payloads
        return merge_payloads([p for _, p in self.observations])

    # -- reporting -------------------------------------------------------
    def failure_report(self) -> str:
        """Aggregated report of every keep-going failure (or '')."""
        if not self.failures:
            return ""
        return aggregate_failure_report(self.failures)

    def runtime_summary(self) -> str:
        """One-line accounting of where results came from."""
        line = (f"runtime: {self.sims_run} simulation(s) run "
                f"({self.jobs} worker(s)), {self.disk_hits} disk-cache "
                f"hit(s), {self.memo_hits} memo hit(s), {self.derived} "
                f"derived")
        store = self._ckpt_store
        if store is not None:
            line += (f", sampling: {store.fast_forwards} fast-forward "
                     f"pass(es), {store.checkpoint_hits} checkpoint "
                     f"hit(s)")
        if self.failures:
            line += f", {len(self.failures)} FAILED"
        return line
