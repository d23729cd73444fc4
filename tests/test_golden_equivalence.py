"""Refactor-equivalence gate: the pipeline must match the monolith.

The golden files under ``tests/golden/`` were generated *before* the
CIEngine monolith was split into registry-assembled components
(``tests/golden/regenerate.py``).  These tests re-run the same points
through the refactored pipeline and require byte-identical output:

* every pre-existing policy (``ci``, ``ci-iw``, ``vect``) and both
  configurations without a mechanism (``scal``, ``wb``) across the full
  12-kernel suite — the serialized ``SimStats.as_dict()`` payloads must
  match the goldens byte for byte, and
* one rendered figure table (Figure 5), which additionally exercises
  the experiment runner and formatting layers.

A mismatch means the refactor changed observable timing behaviour.
Only regenerate the goldens for a *deliberate* timing-model change.
"""

import json
import os

import pytest

from repro.ci.registry import policy_names

SCALE = 0.3
SEED = 1
FIG_SCALE = 0.1
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _golden_bytes(name: str) -> str:
    with open(os.path.join(GOLDEN, name)) as fh:
        return fh.read()


@pytest.mark.parametrize("policy", ["ci", "ci-iw", "vect", "scal", "wb"])
def test_suite_stats_byte_identical(policy):
    from repro import run_program
    from repro.uarch import ci, scal, wb
    from repro.workloads import build_program, kernel_names

    # Keep in sync with golden_config in tests/golden/regenerate.py.
    cfg = {"scal": scal(1, 256), "wb": wb(1, 512)}.get(policy) \
        or ci(1, 512, policy=policy)
    out = {}
    for name in kernel_names():
        prog = build_program(name, SCALE, SEED)
        out[name] = run_program(prog, cfg).as_dict()
    produced = json.dumps(out, indent=1, sort_keys=True) + "\n"
    assert produced == _golden_bytes(f"suite_{policy}.json"), (
        f"{policy!r} diverged from its golden")


@pytest.mark.parametrize("policy", [None] + policy_names())
@pytest.mark.parametrize("kernel", ["bzip2", "mcf"])
def test_skip_ahead_equivalent_to_force_tick(kernel, policy):
    """Idle-cycle skip-ahead must be timing-invisible (DESIGN.md §9).

    Run the same (kernel, config) with skip-ahead forced on and forced
    off, for every registered policy plus the plain superscalar, with a
    CPI-stack observer attached both times.  The serialized SimStats and
    the per-component cycle accounting must be byte-identical — the only
    permitted difference is the diagnostic ``skipped_cycles`` counter,
    which ``as_dict()`` deliberately excludes.
    """
    from repro import hooks_for
    from repro.observe.cpistack import CPIStack
    from repro.uarch import ci, scal
    from repro.uarch.core import simulate
    from repro.workloads import build_program

    cfg = scal(1, 256) if policy is None else ci(1, 512, policy=policy)
    prog = build_program(kernel, 0.15, SEED)
    runs = {}
    for skip in (True, False):
        obs = CPIStack()
        st = simulate(prog, cfg, hooks=hooks_for(cfg), observer=obs,
                      skip_ahead=skip)
        runs[skip] = (st, obs)
    st_on, cpi_on = runs[True]
    st_off, cpi_off = runs[False]
    assert st_off.skipped_cycles == 0
    on = json.dumps(st_on.as_dict(), indent=1, sort_keys=True)
    off = json.dumps(st_off.as_dict(), indent=1, sort_keys=True)
    assert on == off, f"{kernel}/{policy}: SimStats diverged under skip-ahead"
    assert cpi_on.as_dict() == cpi_off.as_dict(), (
        f"{kernel}/{policy}: CPI stack diverged under skip-ahead")
    assert cpi_on.total == st_on.cycles  # stack still sums exactly


def test_skip_ahead_actually_skips():
    """The guard above is vacuous if nothing ever skips; pin that the
    superscalar config (long memory stalls, no mechanism vetoes) skips a
    nonzero number of idle cycles at this scale."""
    from repro import hooks_for
    from repro.uarch import scal
    from repro.uarch.core import simulate
    from repro.workloads import build_program

    cfg = scal(1, 256)
    total = 0
    for kernel in ("bzip2", "mcf"):
        prog = build_program(kernel, 0.15, SEED)
        st = simulate(prog, cfg, hooks=hooks_for(cfg), skip_ahead=True)
        total += st.skipped_cycles
    assert total > 0, "skip-ahead never fired on the superscalar configs"


def test_figure_table_byte_identical(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", str(FIG_SCALE))
    from repro.experiments import fig05
    from repro.runtime import ParallelRunner, ResultCache

    runner = ParallelRunner(scale=FIG_SCALE, seed=SEED, jobs=1,
                            cache=ResultCache(enabled=False))
    produced = fig05.compute(runner).render() + "\n"
    assert produced == _golden_bytes("fig05.txt")
