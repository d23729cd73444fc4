"""Observer overhead: the disabled path must stay (nearly) free.

Two guarantees pinned here:

* the base ``Observer()`` (the ``null`` observer) overrides no hook, so
  it binds no event and adds nothing to the core loop — the observed
  min-of-rounds runtime must stay within 5% of ``observer=None`` on
  the same process / same program;
* full observation (``cpi,audit,trace``) is *allowed* to cost — these
  benches just record how much, so regressions show in the history.

Timing method: the 5% gate compares min-of-rounds of interleaved
runs inside one benchmark body (same process, same cache state), not
two separate pytest-benchmark fixtures, so machine noise between
fixtures cannot fail the gate spuriously.
"""

import time

from repro import run_program
from repro.observe import Observer, make_observer
from repro.uarch.config import ci
from repro.workloads import build_program

SCALE = 0.35
SEED = 1
ROUNDS = 3


def _min_runtime(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_null_observer_overhead(benchmark):
    """observer=Observer() within 5% of observer=None (min of rounds)."""
    prog = build_program("mcf", SCALE, SEED)
    cfg = ci(1, 512)
    run_program(prog, cfg)  # warm-up
    run_program(prog, cfg, observer=Observer())

    base = _min_runtime(lambda: run_program(prog, cfg))
    stats = benchmark.pedantic(
        run_program, args=(prog, cfg),
        kwargs={"observer": Observer()}, rounds=ROUNDS, iterations=1)
    nulled = min(benchmark.stats.stats.data)
    ratio = nulled / base
    benchmark.extra_info["cycles"] = stats.cycles
    benchmark.extra_info["kcycles_per_s"] = round(
        stats.cycles / benchmark.stats["mean"] / 1000, 1)
    benchmark.extra_info["null_over_bare_ratio"] = round(ratio, 3)
    assert ratio <= 1.05, (
        f"Observer() path is {ratio:.1%} of the bare path "
        f"(gate: 105%): {nulled:.3f}s vs {base:.3f}s")


def test_full_observation_cost(benchmark):
    """cpi,audit,trace attached — records the cost, asserts correctness."""
    prog = build_program("mcf", SCALE, SEED)
    cfg = ci(1, 512)
    bare = run_program(prog, cfg)

    def observed():
        obs = make_observer("cpi,audit,trace")
        stats = run_program(prog, cfg, observer=obs)
        return stats, obs

    stats, obs = benchmark.pedantic(observed, rounds=ROUNDS, iterations=1)
    cpi = obs[0]
    benchmark.extra_info["cycles"] = stats.cycles
    benchmark.extra_info["kcycles_per_s"] = round(
        stats.cycles / benchmark.stats["mean"] / 1000, 1)
    assert stats.to_dict() == bare.to_dict(), \
        "observation changed simulation results"
    assert cpi.total == stats.cycles, "CPI stack does not sum to cycles"
