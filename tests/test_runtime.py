"""Tests for the simulation runtime: pool, disk cache, determinism."""

import math
import os
import sys
import time
from dataclasses import replace

import pytest

from repro import run_kernel
from repro.runtime import (
    FailedResult,
    ResultCache,
    RunSpec,
    WorkerError,
    config_token,
    default_jobs,
    default_retries,
    default_timeout,
    execute_jobs,
    execute_jobs_observed,
    job_key,
    program_fingerprint,
    run_key,
)
from repro.runtime import parallel as parallel_mod
from repro.runtime.parallel import ParallelRunner
from repro.uarch import SimStats
from repro.uarch.config import ci, scal, wb
from repro.workloads import build_program

SCALE = 0.1
SEED = 1


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=str(tmp_path / "cache"), enabled=True)


def make_runner(cache, jobs=1, scale=SCALE):
    return ParallelRunner(scale=scale, seed=SEED, jobs=jobs, cache=cache)


class TestCacheKeys:
    def test_fingerprint_stable_across_builds(self):
        a = build_program("eon", SCALE, SEED)
        b = build_program("eon", SCALE, SEED)
        assert program_fingerprint(a) == program_fingerprint(b)

    def test_fingerprint_sensitive_to_workload(self):
        a = build_program("eon", SCALE, SEED)
        b = build_program("eon", SCALE, SEED + 1)
        c = build_program("gzip", SCALE, SEED)
        assert program_fingerprint(a) != program_fingerprint(b)
        assert program_fingerprint(a) != program_fingerprint(c)

    def test_config_token_covers_every_field(self):
        assert config_token(ci(1, 512)) != config_token(ci(2, 512))
        assert config_token(ci(1, 512)) != config_token(
            ci(1, 512, policy="vect"))

    def test_run_key_tells_equal_but_differently_typed_runs_apart(self):
        # 512 == 512.0 and 1 == 1.0, but each serialises differently, so
        # the keys differ; the memo must not hand out whichever key it
        # saw first.
        a = ci(1, 512)
        b = replace(a, phys_regs=512.0)
        assert a == b and hash(a) == hash(b)
        prog = build_program("eon", SCALE, SEED)
        assert run_key(RunSpec("eon", SCALE, SEED, a)) == \
            job_key(prog, a, SCALE, SEED)
        assert run_key(RunSpec("eon", SCALE, SEED, b)) == \
            job_key(prog, b, SCALE, SEED)
        assert job_key(prog, a, SCALE, SEED) != job_key(prog, b, SCALE, SEED)
        whole = build_program("eon", 1, SEED)
        assert run_key(RunSpec("eon", 1, SEED, a)) == \
            job_key(whole, a, 1, SEED)
        assert run_key(RunSpec("eon", 1.0, SEED, a)) == \
            job_key(whole, a, 1.0, SEED)

    def test_job_key_varies_with_scale_and_seed(self):
        prog = build_program("eon", SCALE, SEED)
        cfg = wb(1, 256)
        assert job_key(prog, cfg, 0.1, 1) != job_key(prog, cfg, 0.2, 1)
        assert job_key(prog, cfg, 0.1, 1) != job_key(prog, cfg, 0.1, 2)


class TestResultCache:
    def test_miss_then_hit(self, cache):
        st = SimStats(cycles=10, committed=7)
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, st)
        assert cache.get("ab" * 32) == st

    def test_disabled_cache_is_inert(self, tmp_path):
        cache = ResultCache(root=str(tmp_path / "c"), enabled=False)
        cache.put("cd" * 32, SimStats(cycles=1))
        assert cache.get("cd" * 32) is None
        assert not os.path.exists(cache.root)

    def test_corrupt_entry_is_a_miss(self, cache):
        key = "ef" * 32
        path = cache.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("{not json")
        assert cache.get(key) is None

    def test_info_and_clear(self, cache):
        for i in range(3):
            cache.put(f"{i:02d}" + "0" * 62, SimStats(cycles=i + 1))
        info = cache.info()
        assert info["entries"] == 3 and info["bytes"] > 0
        assert cache.clear() == 3
        assert cache.info()["entries"] == 0

    def test_no_tmp_files_left_behind(self, cache):
        cache.put("aa" + "0" * 62, SimStats(cycles=5))
        leftovers = [n for _, _, names in os.walk(cache.root)
                     for n in names if n.endswith(".tmp")]
        assert leftovers == []


class TestExecuteJobs:
    def test_serial_path(self):
        [st] = execute_jobs([RunSpec("eon", SCALE, SEED, wb(1, 256))], 1)
        assert st.committed > 0

    def test_pool_path(self):
        jobs = [RunSpec("eon", SCALE, SEED, wb(1, 256)),
                RunSpec("gzip", SCALE, SEED, wb(1, 256))]
        stats = execute_jobs(jobs, 2)
        assert len(stats) == 2 and all(s.committed > 0 for s in stats)

    @pytest.mark.parametrize("failure", [ImportError, NotImplementedError])
    def test_pool_import_failure_falls_back_to_serial(self, monkeypatch,
                                                      failure):
        # The pool modules load inside _run_pool_pass; a platform where
        # they cannot be imported, or where ProcessPoolExecutor refuses
        # to start (no multiprocessing.synchronize: NotImplementedError),
        # still gets every result, in-process.
        specs = [RunSpec(k, SCALE, SEED, ci(1, 512)) for k in ("eon", "gzip")]
        serial = make_runner(ResultCache(enabled=False)).run_many(specs)
        serial_calls = []
        run_serial = parallel_mod._run_serial

        def spy(*args):
            serial_calls.append(args)
            run_serial(*args)
        monkeypatch.setattr(parallel_mod, "_run_serial", spy)
        if failure is ImportError:
            monkeypatch.setitem(sys.modules, "multiprocessing", None)
            monkeypatch.setitem(sys.modules, "concurrent.futures", None)
        else:
            from concurrent.futures import process

            def lacks_synchronize():
                raise NotImplementedError(
                    "This Python build lacks multiprocessing.synchronize")
            monkeypatch.setattr(process, "_check_system_limits",
                                lacks_synchronize)
        pooled = make_runner(ResultCache(enabled=False), jobs=2)
        stats = pooled.run_many(specs)
        assert len(serial_calls) == 1 and pooled.sims_run == 2
        assert [s.to_dict() for s in stats] == [s.to_dict() for s in serial]

    def test_worker_failure_reports_cleanly(self):
        jobs = [RunSpec("eon", SCALE, SEED, wb(1, 256)),
                RunSpec("nosuchkernel", SCALE, SEED, wb(1, 256))]
        with pytest.raises(WorkerError, match="nosuchkernel"):
            execute_jobs(jobs, 2)

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert default_jobs() == 7
        monkeypatch.setenv("REPRO_JOBS", "junk")
        assert default_jobs() >= 1

    def test_default_jobs_warns_on_junk(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "many")
        default_jobs()
        assert "REPRO_JOBS" in capsys.readouterr().err


#: real worker entry point, captured before any monkeypatching
_real_run_job = parallel_mod._run_job


def _hang_on_mcf(job):
    """Test stand-in worker: 'mcf' hangs forever, everything else runs."""
    if job.kernel == "mcf":
        time.sleep(600)
    return _real_run_job(job)


def _hang_once(job):
    """Hangs 'mcf' on first sight (flag file), succeeds on retry."""
    flag = os.environ["_REPRO_TEST_HANG_FLAG"]
    if job.kernel == "mcf" and not os.path.exists(flag):
        open(flag, "w").close()
        time.sleep(600)
    return _real_run_job(job)


class TestResilience:
    def test_worker_error_aggregates_all_failures(self):
        jobs = [RunSpec("nosuchkernel", SCALE, SEED, wb(1, 256)),
                RunSpec("eon", SCALE, SEED, wb(1, 256)),
                RunSpec("alsomissing", SCALE, SEED, wb(1, 256))]
        with pytest.raises(WorkerError) as exc_info:
            execute_jobs_observed(jobs, 2)
        msg = str(exc_info.value)
        assert msg.startswith("2 simulation(s) failed")
        assert "nosuchkernel" in msg and "alsomissing" in msg
        assert "Traceback" in msg          # full context, not just a name

    def test_keep_going_returns_placeholders_in_order(self):
        jobs = [RunSpec("eon", SCALE, SEED, wb(1, 256)),
                RunSpec("nosuchkernel", SCALE, SEED, wb(1, 256)),
                RunSpec("gzip", SCALE, SEED, wb(1, 256))]
        out = execute_jobs_observed(jobs, 2, keep_going=True)
        assert len(out) == 3
        assert out[0][0].committed > 0 and out[2][0].committed > 0
        hole = out[1][0]
        assert isinstance(hole, FailedResult) and hole.phase == "worker"
        assert hole.kernel == "nosuchkernel"
        assert "nosuchkernel" in hole.error

    def test_failed_result_duck_types_as_nan(self):
        fr = FailedResult("mcf", 0.1, 1, error="boom")
        assert fr.failed is True
        assert math.isnan(fr.ipc) and math.isnan(fr.reuse_fraction)
        assert math.isnan(fr.ipc * 2 + 1)  # NaN propagates through math
        assert "mcf" in fr.describe()
        assert fr.to_dict()["failed"] is True
        with pytest.raises(AttributeError):
            fr._private

    def test_stall_watchdog_times_out_hung_worker(self, monkeypatch):
        monkeypatch.setattr(parallel_mod, "_run_job", _hang_on_mcf)
        jobs = [RunSpec("eon", SCALE, SEED, wb(1, 256)),
                RunSpec("mcf", SCALE, SEED, wb(1, 256))]
        start = time.monotonic()
        out = execute_jobs_observed(jobs, 2, timeout=1.5, retries=0,
                                    keep_going=True)
        assert time.monotonic() - start < 30    # did not wait for sleep(600)
        assert out[0][0].committed > 0
        hole = out[1][0]
        assert isinstance(hole, FailedResult) and hole.phase == "timeout"
        assert "hung" in hole.error

    def test_transient_timeout_is_retried(self, monkeypatch, tmp_path):
        monkeypatch.setenv("_REPRO_TEST_HANG_FLAG",
                           str(tmp_path / "hung-once"))
        monkeypatch.setattr(parallel_mod, "_run_job", _hang_once)
        jobs = [RunSpec("eon", SCALE, SEED, wb(1, 256)),
                RunSpec("mcf", SCALE, SEED, wb(1, 256))]
        out = execute_jobs_observed(jobs, 2, timeout=1.5, retries=1)
        assert all(st.committed > 0 for st, _ in out)   # recovered

    def test_pool_broken_during_submit_is_retried(self, monkeypatch):
        # A worker that dies while the pass is still submitting breaks
        # the pool under submit() itself; the unsubmitted jobs are
        # transient, not an exception out of the retry loop.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        real_submit = ProcessPoolExecutor.submit
        calls = {"n": 0}

        def submit(pool, *args, **kw):
            calls["n"] += 1
            if calls["n"] == 2:
                raise BrokenProcessPool("a worker died mid-submit")
            return real_submit(pool, *args, **kw)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        before = parallel_mod.pool_restart_count()
        jobs = [RunSpec("eon", SCALE, SEED, wb(1, 256)),
                RunSpec("mcf", SCALE, SEED, wb(1, 256))]
        out = execute_jobs_observed(jobs, 2, retries=1)
        assert all(st.committed > 0 for st, _ in out)   # recovered
        assert parallel_mod.pool_restart_count() - before == 1

    def test_permanent_failures_are_not_retried(self):
        # One pass only: a worker traceback is deterministic.
        jobs = [RunSpec("nosuchkernel", SCALE, SEED, wb(1, 256))]
        out = execute_jobs_observed(jobs, 1, retries=3, keep_going=True)
        assert out[0][0].attempts == 1

    def test_runner_keep_going_collects_failures(self, cache):
        r = ParallelRunner(scale=SCALE, seed=SEED, jobs=2, cache=cache,
                           keep_going=True)
        cfg = wb(1, 256)
        out = r.run_many([RunSpec("eon", SCALE, SEED, cfg),
                          RunSpec("nosuchkernel", SCALE, SEED, cfg)])
        assert out[0].committed > 0
        assert getattr(out[1], "failed", False)
        assert len(r.failures) == 1
        assert "nosuchkernel" in r.failure_report()
        assert "1 FAILED" in r.runtime_summary()

    def test_failures_are_never_memoised_or_cached(self, cache):
        r = ParallelRunner(scale=SCALE, seed=SEED, jobs=1, cache=cache,
                           keep_going=True)
        cfg = wb(1, 256)
        out1 = r.run_many([RunSpec("nosuchkernel", SCALE, SEED, cfg)])
        assert getattr(out1[0], "failed", False)
        n = r.sims_run
        out2 = r.run_many([RunSpec("nosuchkernel", SCALE, SEED, cfg)])
        assert r.sims_run == n + 1     # re-attempted, not served from memo
        assert getattr(out2[0], "failed", False)

    def test_keep_going_env_variable(self, monkeypatch, cache):
        monkeypatch.setenv("REPRO_KEEP_GOING", "1")
        r = ParallelRunner(scale=SCALE, seed=SEED, jobs=1, cache=cache)
        assert r.keep_going

    def test_timeout_and_retries_env_parsing(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TIMEOUT", "2.5")
        assert default_timeout() == 2.5
        monkeypatch.setenv("REPRO_TIMEOUT", "0")
        assert default_timeout() is None
        monkeypatch.setenv("REPRO_TIMEOUT", "soon")
        assert default_timeout() is None
        monkeypatch.setenv("REPRO_RETRIES", "4")
        assert default_retries() == 4
        monkeypatch.setenv("REPRO_RETRIES", "lots")
        assert default_retries() == 1
        assert "REPRO_TIMEOUT" in capsys.readouterr().err


class TestParallelRunner:
    def test_memo_returns_same_object(self, cache):
        r = make_runner(cache)
        cfg = wb(1, 256)
        assert r.run("eon", cfg) is r.run("eon", cfg)
        assert r.memo_hits == 1 and r.sims_run == 1

    def test_warm_disk_cache_runs_zero_simulations(self, cache):
        cfg = ci(1, 512)
        first = make_runner(cache)
        a = first.run("eon", cfg)
        assert first.sims_run == 1
        second = make_runner(cache)  # fresh process-level state
        b = second.run("eon", cfg)
        assert second.sims_run == 0 and second.disk_hits == 1
        assert a == b

    def test_batch_dedupes_repeated_points(self, cache):
        r = make_runner(cache)
        cfg = wb(1, 256)
        out = r.run_many([RunSpec("eon", SCALE, SEED, cfg)
                          for _ in range(3)])
        assert r.sims_run == 1
        assert out[0] is out[1] is out[2]

    def test_runtime_summary_mentions_counts(self, cache):
        r = make_runner(cache)
        r.run("eon", wb(1, 256))
        assert "1 simulation(s)" in r.runtime_summary()


class TestDeterminism:
    """Same (kernel, config, seed) must agree serially, via the pool,
    and via a cache hit — byte-identical counters (IPC, cycles, ...)."""

    CFG = ci(1, 512)

    def test_serial_pool_and_cache_agree(self, tmp_path):
        serial = run_kernel("eon", self.CFG, scale=SCALE, seed=SEED)

        nocache = ResultCache(root=str(tmp_path / "c1"), enabled=True)
        pooled = make_runner(nocache, jobs=2)
        via_pool = pooled.run_many(
            [RunSpec(k, SCALE, SEED, self.CFG) for k in ("eon", "gzip")])[0]
        assert pooled.sims_run == 2

        rehydrated = make_runner(nocache).run("eon", self.CFG)

        assert serial.to_dict() == via_pool.to_dict() == rehydrated.to_dict()
        assert serial.ipc == via_pool.ipc == rehydrated.ipc
        assert serial.cycles == via_pool.cycles == rehydrated.cycles
        assert serial.committed == via_pool.committed == rehydrated.committed

    def test_scal_scheme_agrees_too(self, tmp_path):
        cfg = scal(1, 256)
        serial = run_kernel("gzip", cfg, scale=SCALE, seed=SEED)
        cache = ResultCache(root=str(tmp_path / "c2"), enabled=True)
        pooled = make_runner(cache, jobs=2).run_many(
            [RunSpec(k, SCALE, SEED, cfg) for k in ("gzip", "eon")])[0]
        assert serial.to_dict() == pooled.to_dict()

    def test_figure_output_identical_with_observer(self, tmp_path):
        """Observation must not perturb results: the rendered figure is
        byte-identical with observers attached vs detached, serial vs
        pooled."""
        from repro.experiments import fig05
        from repro.experiments.common import Runner

        def render(observe, jobs, sub):
            cache = ResultCache(root=str(tmp_path / sub), enabled=True)
            runner = Runner(scale=SCALE, seed=SEED, jobs=jobs, cache=cache,
                            observe=observe)
            return fig05.compute(runner).render(), runner

        bare, _ = render(None, 1, "bare")
        observed, runner = render("cpi,audit", 2, "obs")
        assert observed == bare
        # ... and the observations themselves arrived.
        merged = runner.merged_observations()
        assert merged["cpi"]["cycles"] > 0
        assert merged["audit"]["events"]

    def test_observing_runner_payload_determinism(self, tmp_path):
        """Merged payloads agree between serial and pooled execution."""
        cfg = ci(1, 512)
        points = [RunSpec(k, SCALE, SEED, cfg) for k in ("eon", "gzip", "mcf")]

        def observed_run(jobs, sub):
            cache = ResultCache(root=str(tmp_path / sub), enabled=True)
            r = ParallelRunner(scale=SCALE, seed=SEED, jobs=jobs,
                               cache=cache, observe="cpi,audit")
            stats = r.run_many(points)
            return stats, r.merged_observations()

        serial_stats, serial_obs = observed_run(1, "s")
        pooled_stats, pooled_obs = observed_run(3, "p")
        assert [s.to_dict() for s in serial_stats] \
            == [s.to_dict() for s in pooled_stats]
        assert serial_obs == pooled_obs


class TestServingSatellites:
    """Runtime hooks added for the serving layer."""

    def test_default_jobs_prefers_affinity_mask(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 1, 2}, raising=False)
        assert default_jobs() == 3

    def test_default_jobs_falls_back_without_affinity(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)

        def no_affinity(pid):
            raise OSError("not supported here")

        monkeypatch.setattr(os, "sched_getaffinity", no_affinity,
                            raising=False)
        assert default_jobs() >= 1

    def test_runner_sources_attribution(self, cache):
        cfg = wb(1, 256)
        r = make_runner(cache, jobs=1)
        r.run("eon", cfg)
        assert r.sources[("eon", cfg)] == "sim"
        r.run("eon", cfg)
        assert r.sources[("eon", cfg)] == "memo"
        fresh = make_runner(cache, jobs=1)
        fresh.run("eon", cfg)
        assert fresh.sources[("eon", cfg)] == "disk"

    def test_runner_sources_mark_failures(self, cache):
        r = ParallelRunner(scale=SCALE, seed=SEED, jobs=1, cache=cache,
                           keep_going=True)
        cfg = wb(1, 256)
        r.run_many([RunSpec("nosuchkernel", SCALE, SEED, cfg)])
        assert r.sources[("nosuchkernel", cfg)] == "failed"

    def test_pool_restart_counter_increments_on_retry(self, monkeypatch,
                                                      tmp_path):
        from repro.runtime import pool_restart_count
        monkeypatch.setenv("_REPRO_TEST_HANG_FLAG",
                           str(tmp_path / "hung-once-2"))
        monkeypatch.setattr(parallel_mod, "_run_job", _hang_once)
        before = pool_restart_count()
        # Two jobs: the single-job serial path bypasses pool + watchdog.
        jobs = [RunSpec("eon", SCALE, SEED, wb(1, 256)),
                RunSpec("mcf", SCALE, SEED, wb(1, 256))]
        execute_jobs_observed(jobs, 2, timeout=1.5, retries=1)
        assert pool_restart_count() == before + 1

    def test_worker_error_interrupted_flag_default(self):
        assert WorkerError("x").interrupted is False

    def test_runner_flushes_cache_counters(self, cache):
        cfg = wb(1, 256)
        make_runner(cache, jobs=1).run("eon", cfg)     # miss + put
        make_runner(cache, jobs=1).run("eon", cfg)     # disk hit
        totals = cache.load_counters()
        assert totals["misses"] >= 1 and totals["hits"] >= 1
