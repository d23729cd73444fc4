"""Shared fixtures for the per-figure benchmark harness.

Each ``bench_figXX`` target regenerates one of the paper's tables/figures
(the same rows/series, printed at the end of the session) and times the
regeneration.  Figures share a process-wide memoising runner, so a full
``pytest benchmarks/ --benchmark-only`` pass simulates each configuration
once.  Workload scale comes from ``REPRO_SCALE`` (default 0.35 here to
keep a full bench pass in minutes; EXPERIMENTS.md uses 0.5).

Shape checks are *reported*, not asserted one-by-one: a handful of known,
documented deviations from the paper (see EXPERIMENTS.md) would otherwise
fail the harness.  Each bench asserts that the figure produced data and
that most of its checks hold.
"""

import json
import os

import pytest

os.environ.setdefault("REPRO_SCALE", "0.35")

from repro.experiments import default_runner  # noqa: E402  (after env)

#: the shared session runner, exposed so the JSON emitter can report its
#: cache counters alongside the timings (None until the fixture runs)
_session_runner = None


@pytest.fixture(scope="session")
def runner():
    global _session_runner
    _session_runner = default_runner()
    return _session_runner


def _report_dir() -> str:
    report_dir = os.environ.get("REPRO_REPORT_DIR", ".")
    os.makedirs(report_dir, exist_ok=True)
    return report_dir


def pytest_sessionfinish(session, exitstatus):
    """Emit one machine-readable ``BENCH_<suite>.json`` per bench module.

    ``bench_runtime.py`` becomes ``BENCH_runtime.json`` and so on, written
    to ``REPRO_REPORT_DIR`` (default: the working directory).  Each file
    carries wall-clock stats, the per-bench ``extra_info`` (cycles,
    kcycles/s, recorded speedups) and the shared runner's cache counters,
    so CI can diff runs without parsing pytest-benchmark's terminal table.
    """
    bs = getattr(session.config, "_benchmarksession", None)
    benches = getattr(bs, "benchmarks", None) if bs is not None else None
    if not benches:
        return
    by_suite = {}
    for bench in benches:
        modname = os.path.basename(bench.fullname.split("::", 1)[0])
        if modname.startswith("bench_"):
            modname = modname[len("bench_"):]
        if modname.endswith(".py"):
            modname = modname[:-3]
        try:
            entry = {
                "name": bench.name,
                "fullname": bench.fullname,
                "wall_s_mean": bench["mean"],
                "wall_s_min": bench["min"],
                "rounds": bench["rounds"],
                "extra_info": dict(bench.extra_info),
            }
        except (KeyError, TypeError):  # bench errored before stats existed
            continue
        by_suite.setdefault(modname, []).append(entry)
    if not by_suite:
        return
    cache = None
    if _session_runner is not None:
        cache = {
            "memo_hits": _session_runner.memo_hits,
            "disk_hits": _session_runner.disk_hits,
            "sims_run": _session_runner.sims_run,
        }
    report_dir = _report_dir()
    for suite, entries in sorted(by_suite.items()):
        payload = {
            "suite": suite,
            "scale": float(os.environ["REPRO_SCALE"]),
            "cache": cache,
            "benchmarks": entries,
        }
        path = os.path.join(report_dir, f"BENCH_{suite}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


@pytest.fixture(scope="session")
def report_sink():
    """Collects every regenerated figure; writes them all at session end.

    pytest captures teardown stdout, so the tables also land in
    ``bench_figures.txt`` under ``REPRO_REPORT_DIR`` (default: the
    working directory, created if missing) — that file is the harness's
    actual deliverable (the same rows/series the paper reports).
    """
    figures = {}
    yield figures
    lines = []
    for fig in figures.values():
        lines.append(fig.render())
        lines.append("")
    report = "\n".join(lines)
    report_dir = os.environ.get("REPRO_REPORT_DIR", ".")
    os.makedirs(report_dir, exist_ok=True)
    with open(os.path.join(report_dir, "bench_figures.txt"), "w") as fh:
        fh.write(report)
    print("\n" + report)


@pytest.fixture
def regenerate(benchmark, runner, report_sink):
    def _run(compute):
        fig = benchmark.pedantic(compute, args=(runner,),
                                 rounds=1, iterations=1)
        report_sink[fig.fig_id] = fig
        assert fig.rows, "figure produced no data"
        passed = sum(c.passed for c in fig.checks)
        assert passed * 2 >= len(fig.checks), (
            f"{fig.fig_id}: most shape checks failed:\n"
            + "\n".join(c.render() for c in fig.checks))
        return fig
    return _run
