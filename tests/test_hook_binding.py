"""The core's hook table: bound once after attach, no-ops bound as None.

``Core`` resolves every per-event hook once (``repro.uarch.hooks.
bind_hooks``).  These tests pin the rule from the mechanism's side: a
hook a mechanism subscribes to — by subclass override or by an instance
attribute installed in ``attach`` — is called on every event, and a run
with no mechanism is the same whether ``hooks`` is ``None`` or the no-op
base.
"""

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.isa.predecode import F_COND_BRANCH
from repro.observe.base import Observer
from repro.uarch import MechanismHooks, scal
from repro.uarch.core import Core
from repro.uarch.hooks import HOOK_NAMES, bind_hooks
from repro.workloads import build_program

#: the value each hook returns when counted (the no-op base's)
DEFAULTS = {"dispatch_gate": True, "on_store_commit": False,
            "validated_extra_latency": 0}


def _counter(counts, name):
    default = DEFAULTS.get(name)

    def hook(*_args):
        counts[name] += 1
        return default
    return hook


class EventLog(Observer):
    """Counts the core events each hook call site must match."""

    def __init__(self):
        self.resolved = 0
        self.recoveries = 0

    def on_writeback(self, inst, cycle):
        if self.core.image.flags[inst.pc] & F_COND_BRANCH:
            self.resolved += 1

    def on_recovery(self, pivot, n_squashed, is_branch, cycle):
        self.recoveries += 1


def _run(hooks, skip_ahead=False, kernel="bzip2"):
    log = EventLog()
    core = Core(scal(1, 256), build_program(kernel, 0.05, 1), hooks,
                observer=log, skip_ahead=skip_ahead)
    return core.run(), log


def _assert_every_event(counts, stats, log):
    # A halting run stops right after its last commit, before that
    # cycle's gate and on_cycle.
    assert counts["dispatch_gate"] == counts["on_cycle"] == stats.cycles - 1
    assert counts["on_dispatch"] == stats.dispatched
    assert counts["on_commit"] == stats.committed
    assert counts["on_store_commit"] == stats.stores_committed > 0
    assert counts["on_branch_resolved"] == log.resolved > 0
    assert counts["on_recovery"] == log.recoveries > 0
    # Only a mechanism validates; skip-ahead is off.
    assert counts["validated_extra_latency"] == 0
    assert counts["next_event_cycle"] == 0


def test_base_hooks_bind_to_none():
    hooks = MechanismHooks()
    assert bind_hooks(hooks) == dict.fromkeys(HOOK_NAMES)


def test_subclass_override_is_called_on_every_event():
    counts = dict.fromkeys(HOOK_NAMES, 0)

    class Counting(MechanismHooks):
        pass
    for name in HOOK_NAMES:
        setattr(Counting, name,
                lambda self, *a, _h=_counter(counts, name): _h(*a))
    hooks = Counting()
    assert all(fn is not None for fn in bind_hooks(hooks).values())
    stats, log = _run(hooks)
    _assert_every_event(counts, stats, log)
    plain, _ = _run(None)
    assert stats.to_dict() == plain.to_dict()


def test_instance_attribute_installed_in_attach_is_called():
    # MechanismPipeline (flattened on_dispatch) and tracing wrappers
    # install their handlers this way, after the core was constructed.
    counts = dict.fromkeys(HOOK_NAMES, 0)

    class InstallsInAttach(MechanismHooks):
        def attach(self, core):
            super().attach(core)
            for name in HOOK_NAMES:
                setattr(self, name, _counter(counts, name))
    stats, log = _run(InstallsInAttach())
    _assert_every_event(counts, stats, log)


@pytest.mark.parametrize("skip_ahead", [True, False])
@pytest.mark.parametrize("kernel", ["bzip2", "mcf"])
def test_no_hooks_and_noop_hooks_are_identical(kernel, skip_ahead):
    none, _ = _run(None, skip_ahead, kernel)
    noop, _ = _run(MechanismHooks(), skip_ahead, kernel)
    assert none.to_dict() == noop.to_dict()


def test_fault_injector_without_inner_receives_every_event(monkeypatch):
    # The injector forwards each hook to its no-op inner; counting the
    # base class's hooks counts what the injector forwarded.
    counts = dict.fromkeys(HOOK_NAMES, 0)
    for name in HOOK_NAMES:
        monkeypatch.setattr(MechanismHooks, name,
                            lambda self, *a, _h=_counter(counts, name): _h(*a))
    injector = FaultInjector(FaultPlan.parse("squash@300"), inner=None)
    stats, log = _run(injector)
    _assert_every_event(counts, stats, log)
    # ... and acts on them: the forced squash fired on the bare core.
    assert [f["kind"] for f in injector.injected] == ["squash"]
    plain, _ = _run(None)
    assert stats.committed == plain.committed
    assert stats.squashed > plain.squashed
