"""Capacity derivation (DESIGN §9.7).

A run whose free list never bound answers every register file up to
``regs_slack`` registers smaller, and one whose speculative data memory
never bound answers every memory up to ``spec_mem_slack`` positions
smaller: the proofs live in ``FreeList`` and the runner answers such
sweep points from the larger sibling instead of simulating them.  These
tests pin that the answer is *exact* — equal to a direct simulation,
field for field — across every registered policy and both pools, that
the runner derives only where it may, and that the full report resolves
every point once.
"""

from dataclasses import replace

import pytest

from repro import hooks_for
from repro.ci.registry import policy_names
from repro.experiments import (ALL_EXPERIMENTS, EXPERIMENTS, REG_POINTS,
                               generate_report)
from repro.runtime import ParallelRunner, ResultCache, RunSpec
from repro.runtime import parallel as parallel_mod
from repro.runtime.keys import run_key
from repro.uarch import ci, scal, wb, with_spec_mem
from repro.uarch.config import INF_REGS
from repro.uarch.core import simulate
from repro.workloads import build_program

SCALE = 0.05
SEED = 1
KERNELS = ("bzip2", "mcf", "gcc")
SIZES = (96, 128, 256, 512, INF_REGS)

CONFIGS = {"scal": scal(1), "wb": wb(1),
           "ci-h-512": with_spec_mem(ci(1), 512)}
CONFIGS.update((name, ci(1, policy=name)) for name in policy_names())


def _direct(kernel, cfg):
    return simulate(build_program(kernel, SCALE, SEED), cfg,
                    hooks=hooks_for(cfg)).to_dict()


@pytest.fixture(scope="module")
def grid():
    """(kernel, config name, phys_regs) -> ``to_dict`` of a direct run."""
    return {(kernel, name, regs): _direct(kernel,
                                          replace(base, phys_regs=regs))
            for kernel in KERNELS for name, base in CONFIGS.items()
            for regs in SIZES}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pairs_within_slack_are_exact(grid, name):
    derivable = 0
    for kernel in KERNELS:
        for i, larger in enumerate(SIZES):
            src = grid[kernel, name, larger]
            for smaller in SIZES[:i]:
                gap = larger - smaller
                if gap > src["regs_slack"]:
                    continue
                derivable += 1
                derived = dict(src, regs_slack=src["regs_slack"] - gap)
                assert derived == grid[kernel, name, smaller], (
                    f"{kernel}/{name}: {larger} regs does not answer "
                    f"{smaller}")
    assert derivable > 0, f"{name}: no pair within slack (vacuous)"


def test_rename_stall_means_no_slack(grid):
    stalled = [st for st in grid.values() if st["rename_stall_cycles"]]
    assert stalled, "no run stalled on the free list (vacuous)"
    assert all(st["regs_slack"] == 0 for st in stalled)


def test_slack_stays_out_of_as_dict():
    cfg = with_spec_mem(ci(1, 512), 512)
    st = simulate(build_program("mcf", SCALE, SEED), cfg,
                  hooks=hooks_for(cfg))
    for field in ("regs_slack", "spec_mem_slack"):
        assert getattr(st, field) > 0
        assert field not in st.as_dict()
        assert field in st.to_dict()


# -- the runner ---------------------------------------------------------------

SWEEP = [(kernel, name, regs) for kernel in KERNELS
         for name in ("scal", "ci") for regs in SIZES]


def _specs(points=SWEEP, **riders):
    return [RunSpec(kernel, SCALE, SEED,
                    replace(CONFIGS[name], phys_regs=regs), **riders)
            for kernel, name, regs in points]


def _runner(tmp_path, **kw):
    cache = ResultCache(root=str(tmp_path / "cache"), enabled=True)
    return ParallelRunner(scale=SCALE, seed=SEED, jobs=kw.pop("jobs", 2),
                          cache=cache, **kw)


def test_runner_sweep_equals_direct_runs(grid, tmp_path):
    runner = _runner(tmp_path)
    out = runner.run_many(_specs())
    assert [st.to_dict() for st in out] == [grid[p] for p in SWEEP]
    assert runner.derived > 0
    assert runner.sims_run + runner.derived == len(SWEEP)
    assert f"{runner.derived} derived" in runner.runtime_summary()
    derived = [s for s in _specs()
               if runner.sources[run_key(s)] == "derived"]
    assert len(derived) == runner.derived

    # Derived points never reach the disk: a warm runner re-derives
    # them from their cached siblings.
    warm = _runner(tmp_path)
    again = warm.run_many(_specs())
    assert warm.sims_run == 0
    assert warm.disk_hits == runner.sims_run
    assert warm.derived == runner.derived
    assert [st.to_dict() for st in again] == [st.to_dict() for st in out]


def test_failed_largest_member_leaves_siblings_simulated(tmp_path,
                                                         monkeypatch):
    real = parallel_mod._run_job

    def fail_unbounded(job):
        if job.cfg.phys_regs == INF_REGS:
            return None, None, "Traceback: injected failure"
        return real(job)

    monkeypatch.setattr(parallel_mod, "_run_job", fail_unbounded)
    runner = _runner(tmp_path, jobs=1, keep_going=True)
    points = [("bzip2", "ci", regs) for regs in SIZES]
    out = runner.run_many(_specs(points))
    assert getattr(out[-1], "failed", False)
    assert runner.derived == 0
    assert [runner.sources[run_key(s)] for s in _specs(points)] \
        == ["sim"] * (len(SIZES) - 1) + ["failed"]


@pytest.mark.parametrize("rider", [{"observe": "cpi"},
                                   {"faults": "squash@300"},
                                   {"sampling": "auto"}],
                         ids=["observed", "faulted", "sampled"])
def test_riders_are_never_derived(tmp_path, rider):
    runner = _runner(tmp_path, jobs=1)
    points = [("mcf", "ci", regs) for regs in (512, INF_REGS)]
    # A plain unbounded sibling that covers 512 registers is resolved...
    [plain] = runner.run_many(_specs(points[1:]))
    assert plain.regs_slack >= INF_REGS - 512
    # ...yet a rider run at 512 registers is still simulated.
    specs = _specs(points, **rider)
    runner.run_many(specs)
    assert runner.derived == 0
    assert [runner.sources[run_key(s)] for s in specs] == ["sim", "sim"]


# -- the speculative data memory: a second capacity pool ---------------------

SPEC_SIZES = (96, 128, 256, 512, 768, 1024)


def _spec_cfg(regs, positions):
    return with_spec_mem(ci(1, regs), positions)


@pytest.fixture(scope="module")
def spec_grid():
    """(kernel, phys_regs, spec_mem_size) -> ``to_dict`` of a direct run."""
    return {(kernel, regs, positions): _direct(kernel,
                                               _spec_cfg(regs, positions))
            for kernel in KERNELS for regs in REG_POINTS
            for positions in SPEC_SIZES}


def test_capacity_pairs_within_both_slacks_are_exact(spec_grid):
    axes = {"regs": 0, "spec": 0, "both": 0}
    for (kernel, regs, positions), src in spec_grid.items():
        for (k, r, p), direct in spec_grid.items():
            gap_regs, gap_positions = regs - r, positions - p
            if k != kernel or gap_regs < 0 or gap_positions < 0 \
                    or (gap_regs, gap_positions) == (0, 0) \
                    or gap_regs > src["regs_slack"] \
                    or gap_positions > src["spec_mem_slack"]:
                continue
            axes["both" if gap_regs and gap_positions
                 else "regs" if gap_regs else "spec"] += 1
            derived = dict(src, regs_slack=src["regs_slack"] - gap_regs,
                           spec_mem_slack=src["spec_mem_slack"]
                           - gap_positions)
            assert derived == direct, (
                f"{kernel}: {regs} regs/{positions} positions does not "
                f"answer {r}/{p}")
    assert all(axes.values()), f"an axis had no pair within slack: {axes}"


def test_cut_short_spec_grant_means_no_slack():
    runs = [_direct(kernel, _spec_cfg(512, positions))
            for kernel in ("bzip2", "gcc") for positions in (16, 32)]
    assert all(st["spec_mem_alloc_failures"] for st in runs), \
        "no spec-memory grant was cut short (vacuous)"
    assert all(st["spec_mem_slack"] == 0 for st in runs)


def test_runner_derives_both_capacities(spec_grid, tmp_path):
    points = [(kernel, regs, positions) for kernel in KERNELS
              for regs in REG_POINTS for positions in SPEC_SIZES]
    specs = [RunSpec(kernel, SCALE, SEED, _spec_cfg(regs, positions))
             for kernel, regs, positions in points]
    runner = _runner(tmp_path)
    out = runner.run_many(specs)
    assert [st.to_dict() for st in out] == [spec_grid[p] for p in points]
    assert runner.sims_run + runner.derived == len(points)
    # Register-file derivation alone needs one simulation per (kernel,
    # memory size); fewer means spec-memory points were derived too.
    assert runner.sims_run < len(KERNELS) * len(SPEC_SIZES), \
        "no spec-memory point was derived"


# -- the report as one batch --------------------------------------------------

def _distinct_points(scale):
    return len({run_key(spec) for module in EXPERIMENTS.values()
                for spec in module.SWEEP.specs(scale, SEED)})


def test_report_is_one_batch_identical_to_per_figure_renders(
        tmp_path, monkeypatch):
    calls = []
    real = ParallelRunner.run_many

    def counted(self, points):
        calls.append(len(points))
        return real(self, points)

    monkeypatch.setattr(ParallelRunner, "run_many", counted)
    runner = _runner(tmp_path)
    report = generate_report(runner)
    assert len(calls) == 1, f"report resolved in {len(calls)} batches"
    assert runner.memo_hits == 0
    assert runner.sims_run + runner.disk_hits + runner.derived \
        == _distinct_points(SCALE)

    single = ParallelRunner(scale=SCALE, seed=SEED, jobs=2,
                            cache=ResultCache(enabled=False))
    figures = [compute(single) for compute in ALL_EXPERIMENTS.values()]
    parts = []
    for fig in figures:
        parts += [fig.render(), ""]
    total = sum(len(f.checks) for f in figures)
    passed = sum(sum(c.passed for c in f.checks) for f in figures)
    parts.append(f"shape checks: {passed}/{total} passed")
    assert report == "\n".join(parts)


def test_report_failure_is_attempted_and_listed_once(tmp_path, monkeypatch):
    # ci(1, unbounded) on bzip2 is a point of Figures 9, 13 and the
    # in-text sweep, and the largest member of its capacity group.
    target = RunSpec("bzip2", SCALE, SEED, ci(1, INF_REGS))
    assert sum(target in module.SWEEP.specs(SCALE, SEED)
               for module in EXPERIMENTS.values()) >= 3
    real = parallel_mod._run_job
    attempts = []

    def fail_target(job):
        if job == target:
            attempts.append(job)
            return None, None, "Traceback: injected failure"
        return real(job)

    monkeypatch.setattr(parallel_mod, "_run_job", fail_target)
    runner = _runner(tmp_path, jobs=1, keep_going=True)
    report = generate_report(runner)
    assert len(attempts) == 1
    assert len(runner.failures) == 1
    assert runner.failure_report().startswith("1 simulation(s) failed:")
    assert "--" in report
