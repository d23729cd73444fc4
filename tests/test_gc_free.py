"""The simulation hot path creates no cyclic garbage (DESIGN.md §9.6).

Reference counting must free every dynamic instruction, replica batch
and operand when it dies, so CPython's cyclic collector has no work
during a run.  Each case runs one core with the collector disabled and
then asks the collector what it would have had to find: any unreachable
object sits in a reference cycle the simulator built.  The second
assertion pins the replica scheduler's part: every replica parked on an
operand waits on a producer that is still in the SRSMT.
"""

import gc

import pytest

from repro import hooks_for
from repro.ci.registry import policy_names
from repro.uarch import ci, scal, wb
from repro.uarch.core import Core
from repro.workloads import build_program

CONFIGS = [("scal", scal(1, 256)), ("wb", wb(1, 512))] + [
    (policy, ci(1, 512, policy=policy)) for policy in policy_names()]


@pytest.mark.parametrize("kernel", ["bzip2", "mcf", "gcc"])
@pytest.mark.parametrize("cfg", [cfg for _, cfg in CONFIGS],
                         ids=[name for name, _ in CONFIGS])
def test_run_creates_no_cyclic_garbage(kernel, cfg):
    core = Core(cfg, build_program(kernel, 0.05, 1), hooks_for(cfg))
    gc.collect()
    gc.disable()
    try:
        core.run()
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert core.stats.committed > 0
    assert unreachable == 0, (
        f"{kernel}: the run left {unreachable} object(s) in reference "
        f"cycles")
    replicas = getattr(core.hooks, "replicas", None)
    if replicas is not None:
        live = {id(e) for e in replicas.srsmt.all_entries()}
        stale = [key for key in replicas.scheduler._waiters
                 if key[0] not in live]
        assert not stale, (
            f"{kernel}: {len(stale)} wait list(s) keyed by a deallocated "
            f"SRSMT entry")
