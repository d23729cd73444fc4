"""Register-file derivation (DESIGN §9.7).

A run whose free list never bound answers every register file up to
``regs_slack`` registers smaller: the proof lives in ``FreeList`` and
the runner answers such sweep points from the larger sibling instead of
simulating them.  These tests pin that the answer is *exact* — equal to
a direct simulation, field for field — across every registered policy,
and that the runner derives only where it may.
"""

from dataclasses import replace

import pytest

from repro import hooks_for
from repro.ci.registry import policy_names
from repro.runtime import ParallelRunner, ResultCache, RunSpec
from repro.runtime import parallel as parallel_mod
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
    cfg = ci(1, 512)
    st = simulate(build_program("mcf", SCALE, SEED), cfg,
                  hooks=hooks_for(cfg))
    assert st.regs_slack > 0
    assert "regs_slack" not in st.as_dict()
    assert "regs_slack" in st.to_dict()


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
    derived = [s for s in _specs() if runner.sources[s] == "derived"]
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
    assert [runner.sources[s] for s in _specs(points)] \
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
    assert [runner.sources[s] for s in specs] == ["sim", "sim"]
