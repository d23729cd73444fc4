"""A run frees itself by reference counting alone (DESIGN.md §9.6).

Two properties, each checked with CPython's cyclic collector disabled:

* **The hot path creates no cyclic garbage.**  Reference counting must
  free every dynamic instruction, replica batch and operand when it
  dies, so the collector has no work during a run.  After ``Core.run``
  with the core still held, ``gc.collect()`` finds nothing unreachable,
  and every replica parked on an operand waits on a producer that is
  still in the SRSMT.
* **A finished run leaves nothing behind.**  The run's object graph is
  a tree owned by the core: the core owns its subscribers, each
  mechanism owns its components, and every back-reference (a
  subscriber's ``core``, a component's ``pipeline``, the fault port) is
  non-owning.  So once the caller of each public call path has
  returned and dropped its mechanism, the core is already gone — no
  reference cycle keeps it waiting for the collector — and
  ``gc.collect()`` finds nothing.
"""

import gc
import weakref

import pytest

import repro
from repro import hooks_for, run_program, simulate
from repro.ci.registry import policy_names
from repro.faults import FaultPlan, run_checked
from repro.observe import AuditTrail, CPIStack, Observer
from repro.sampling.checkpoint import CheckpointStore, ensure_checkpoints
from repro.sampling.executor import _measure_interval
from repro.sampling.plan import Interval
from repro.uarch import ci, scal, wb
from repro.uarch.core import Core
from repro.uarch.hooks import flatten
from repro.workloads import build_program

CONFIGS = [("scal", scal(1, 256)), ("wb", wb(1, 512))] + [
    (policy, ci(1, 512, policy=policy)) for policy in policy_names()]

KERNELS = ["bzip2", "mcf", "gcc"]

FAULTS = "squash@300,valfail@350,seed=3"


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("cfg", [cfg for _, cfg in CONFIGS],
                         ids=[name for name, _ in CONFIGS])
def test_run_creates_no_cyclic_garbage(kernel, cfg):
    hooks = hooks_for(cfg)
    core = Core(cfg, build_program(kernel, 0.05, 1), hooks)
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
    replicas = getattr(hooks, "replicas", None)
    if replicas is not None:
        live = {id(e) for e in replicas.srsmt.all_entries()}
        stale = [key for key in replicas.scheduler._waiters
                 if key[0] not in live]
        assert not stale, (
            f"{kernel}: {len(stale)} wait list(s) keyed by a deallocated "
            f"SRSMT entry")


class Probe(Observer):
    """Records a weak reference to the core it is attached to, and holds
    nothing else: the probe itself must not keep the core alive."""

    name = "probe"

    def attach(self, core) -> None:
        self.ref = weakref.ref(core)


def _simulate(program, cfg, probe, monkeypatch):
    """``simulate`` with the caller holding the mechanism: the mechanism
    must not keep its core alive once ``simulate`` returns."""
    hooks = hooks_for(cfg)
    stats = simulate(program, cfg, hooks,
                     observer=[probe, CPIStack(), AuditTrail()])
    assert probe.ref() is None, "the mechanism keeps its core alive"
    del hooks
    return stats


def _run_program(program, cfg, probe, monkeypatch):
    return run_program(program, cfg, observer=probe, check=True,
                       faults=FAULTS)


def _run_checked(program, cfg, probe, monkeypatch):
    report = run_checked(program, cfg, plan=FaultPlan.parse(FAULTS),
                         observer=probe)
    assert not report.crashed and not report.oracle_diffs
    return report.stats


def _interval(program, cfg, probe, monkeypatch):
    """The sampling interval path: one core booted from a checkpoint and
    resumed (warm-up run, then measured run)."""
    interval = Interval(index=0, boundary=300, warmup=100, measure=200,
                        weight=300)
    ckpt = ensure_checkpoints(program, [interval.boundary],
                              CheckpointStore(enabled=False))
    real = repro.hooks_for
    monkeypatch.setattr(repro, "hooks_for",
                        lambda c: flatten(real(c), probe))
    return _measure_interval(program, cfg, interval,
                             ckpt[interval.boundary])


PATHS = [_simulate, _run_program, _run_checked, _interval]


@pytest.mark.parametrize("path", PATHS,
                         ids=[p.__name__.lstrip("_") for p in PATHS])
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("cfg", [cfg for _, cfg in CONFIGS],
                         ids=[name for name, _ in CONFIGS])
def test_finished_run_frees_its_core(path, kernel, cfg, monkeypatch):
    program = build_program(kernel, 0.05, 1)
    probe = Probe()
    gc.collect()
    gc.disable()
    try:
        stats = path(program, cfg, probe, monkeypatch)
        dead = probe.ref() is None
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert stats.committed > 0
    assert dead, f"{kernel}: the finished run's core is still alive"
    assert unreachable == 0, (
        f"{kernel}: the finished run left {unreachable} object(s) in "
        f"reference cycles")
