"""Simulation runtime: the run vocabulary, parallel execution, caching.

Three cooperating pieces (see DESIGN.md §11):

* :class:`RunSpec` — the canonical, frozen description of one logical
  simulation (kernel, scale, seed, config, policy/fault/observer
  riders); every layer — CLI, experiments, pool, cache, serve — speaks
  it, and :mod:`repro.runtime.keys` derives its single
  content-addressed identity (:func:`run_key` / :func:`job_key`);
* :class:`ParallelRunner` / :func:`execute_jobs` — fan runs out over a
  process pool, with in-process fallback, worker-side exception
  capture, a stall watchdog with retry, and a ``keep_going`` mode that
  degrades failures into typed :class:`FailedResult` holes instead of
  aborting the sweep;
* :class:`ResultCache` — persistent content-addressed store of
  ``SimStats`` under those canonical keys, with atomic concurrent-safe
  writes, per-entry checksums, quarantine of corrupt files and
  run-spec provenance in the envelope.

:mod:`repro.runtime.profiling` (the cProfile harness behind ``repro
profile``) is imported only by that command.

Every figure, ablation, benchmark and CLI sweep runs on a
``ParallelRunner``, so each gets the pool and the cache for free.
"""

from .cache import (
    CACHE_SCHEMA,
    CacheEntryError,
    ResultCache,
    cache_enabled,
    config_token,
    default_cache_dir,
    job_key,
    program_fingerprint,
)
from .keys import cached_program, image_digest, run_key, stats_digest
from .parallel import (
    SOURCES,
    TRANSIENT_PHASES,
    FailedResult,
    ParallelRunner,
    WorkerError,
    aggregate_failure_report,
    default_jobs,
    default_retries,
    default_timeout,
    execute_jobs,
    execute_jobs_observed,
    pool_restart_count,
)
from .spec import SPEC_FIELDS, RunSpec

__all__ = [
    "CACHE_SCHEMA",
    "CacheEntryError",
    "FailedResult",
    "ParallelRunner",
    "ResultCache",
    "RunSpec",
    "SOURCES",
    "SPEC_FIELDS",
    "TRANSIENT_PHASES",
    "WorkerError",
    "aggregate_failure_report",
    "cache_enabled",
    "cached_program",
    "config_token",
    "default_cache_dir",
    "default_jobs",
    "default_retries",
    "default_timeout",
    "execute_jobs",
    "execute_jobs_observed",
    "image_digest",
    "job_key",
    "pool_restart_count",
    "program_fingerprint",
    "run_key",
    "stats_digest",
]
