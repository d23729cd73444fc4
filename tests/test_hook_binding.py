"""The core's event table: one ordered subscriber list, bound once.

``Core`` binds every event once, at construction, over its subscribers
— a fault injector, then the mechanism, then observers
(``repro.uarch.hooks.bind_hooks``).  These tests pin the rules: a hook
a subscriber overrides — by subclass method or by an instance attribute
installed in ``attach`` — is called on every event, several overrides
fan out in list order, and an event nobody overrides binds to ``None``,
so a run with no mechanism is the same whether ``hooks`` is ``None`` or
the no-op base.
"""

import hashlib
import json
from collections import Counter

import pytest

from repro import hooks_for
from repro.faults import FaultInjector, FaultPlan, InvariantChecker, run_checked
from repro.isa.predecode import F_COND_BRANCH
from repro.observe import OBSERVER_HOOKS, PIPELINE_KINDS
from repro.observe.base import Observer
from repro.uarch import MechanismHooks, scal
from repro.uarch.config import ci
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
    assert bind_hooks([MechanismHooks()]) == dict.fromkeys(HOOK_NAMES)


def test_base_observer_binds_no_event():
    assert bind_hooks([Observer()], Observer) == dict.fromkeys(OBSERVER_HOOKS)
    core = Core(scal(1, 256), build_program("bzip2", 0.05, 1),
                observer=Observer())
    assert all(core.events[key] is None
               for key in (*HOOK_NAMES, *OBSERVER_HOOKS))


def test_subclass_override_is_called_on_every_event():
    counts = dict.fromkeys(HOOK_NAMES, 0)

    class Counting(MechanismHooks):
        pass
    for name in HOOK_NAMES:
        setattr(Counting, name,
                lambda self, *a, _h=_counter(counts, name): _h(*a))
    hooks = Counting()
    assert all(fn is not None for fn in bind_hooks([hooks]).values())
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


def test_fault_injector_subscribes_only_the_events_it_acts_on():
    injector = FaultInjector(FaultPlan.parse("squash@300"))
    core = Core(scal(1, 256), build_program("bzip2", 0.05, 1), injector,
                skip_ahead=False)
    assert {name for name in HOOK_NAMES if core.events[name] is not None} \
        == {"on_branch_resolved", "on_cycle", "next_event_cycle"}
    stats = core.run()
    # ... and acts on them: the forced squash fired on the bare core.
    assert [f["kind"] for f in injector.injected] == ["squash"]
    plain, _ = _run(None)
    assert stats.committed == plain.committed
    assert stats.squashed > plain.squashed


def test_fan_out_calls_in_list_order_and_keeps_earliest_next_event():
    calls = []

    class Sub(MechanismHooks):
        def __init__(self, tag, nxt):
            self.tag, self.nxt = tag, nxt

        def on_commit(self, inst):
            calls.append(self.tag)

        def next_event_cycle(self):
            return self.nxt

    a, b, c = Sub("a", None), Sub("b", 9), Sub("c", 4)
    table = bind_hooks([a, b, c])
    table["on_commit"](None)
    assert calls == ["a", "b", "c"]
    assert table["next_event_cycle"]() == 4
    assert bind_hooks([a, a])["next_event_cycle"]() is None
    assert table["dispatch_gate"] is None


def test_hook_with_an_answer_takes_one_subscriber_only():
    class Gate(MechanismHooks):
        def dispatch_gate(self):
            return True

    assert bind_hooks([Gate()])["dispatch_gate"]() is True
    with pytest.raises(TypeError, match="dispatch_gate"):
        bind_hooks([Gate(), Gate()])


class Recorder(Observer):
    """Logs every observer event it receives, tagged, into a shared log."""

    def __init__(self, tag, log):
        self.tag, self.log = tag, log


for _name in OBSERVER_HOOKS.values():
    setattr(Recorder, _name,
            lambda self, *_a, _n=_name: self.log.append((self.tag, _n)))


class LoggedChecker(InvariantChecker):
    def __init__(self, log):
        super().__init__(strict=True)
        self.log = log

    def on_cycle_end(self, core):
        self.log.append(("checker", "on_cycle_end"))
        super().on_cycle_end(core)


@pytest.mark.parametrize("skip_ahead", [True, False])
def test_observers_and_checker_receive_every_event_in_list_order(skip_ahead):
    cfg = ci(1, 512)
    prog = build_program("bzip2", 0.05, 1)
    log = []
    checker = LoggedChecker(log)
    stats = Core(cfg, prog, hooks_for(cfg), skip_ahead=skip_ahead,
                 observer=[Recorder("a", log), Recorder("b", log),
                           checker]).run()
    bare = Core(cfg, prog, hooks_for(cfg), skip_ahead=skip_ahead).run()
    assert stats.to_dict() == bare.to_dict()
    delivered = Counter()
    i = 0
    while i < len(log):
        name = log[i][1]
        expected = [("a", name), ("b", name)]
        if name == "on_cycle_end":
            expected.append(("checker", name))
        assert log[i:i + len(expected)] == expected, (i, log[i:i + 3])
        delivered[name] += 1
        i += len(expected)
    assert delivered["on_fetch"] == stats.fetched
    assert delivered["on_commit"] == stats.committed
    # Skipped spans are force-ticked; the halting cycle ends early.
    assert delivered["on_cycle_end"] == checker.checked_cycles \
        == stats.cycles - 1
    pipeline = {OBSERVER_HOOKS[kind] for kind in PIPELINE_KINDS}
    mechanism = {"on_mbs_verdict", "on_ci_event", "on_ci_selected",
                 "on_slice_marked", "on_replicas_created", "on_validation"}
    assert pipeline | mechanism <= set(delivered)


#: ``run_checked`` with one fault of each mechanism kind on bzip2 (scale
#: 0.05, seed 1): the SimStats digest and injection log recorded before
#: the injector became a subscriber, when it still wrapped the mechanism.
EVERY_KIND = ("squash@300,valfail@350,alloc-deny@400,stride-poison@450,"
              "replica-poison@500")
CHECKED = {
    "ci": ("1d5cd8552be8365e", 585, [
        ("squash", 301, "forced squash at branch pc=35 seq=1428"),
        ("valfail", 373, "forced validation failure at pc=14"),
        ("alloc-deny", 405, "denied one SRSMT replica-register allocation"),
        ("stride-poison", 450,
         "poisoned stride predictor at pc=14 (stride 8 -> 16)"),
        ("replica-poison", 500,
         "poisoned 1 replica value(s) at pc=14 (entry generation 0)"),
    ]),
    "vect": ("70f224a1563d3ad7", 628, [
        ("squash", 326, "forced squash at branch pc=39 seq=1565"),
        ("valfail", 350, "forced validation failure at pc=28"),
        ("alloc-deny", 406, "denied one SRSMT replica-register allocation"),
        ("stride-poison", 450,
         "poisoned stride predictor at pc=14 (stride 8 -> 16)"),
        ("replica-poison", 500,
         "poisoned 4 replica value(s) at pc=18 (entry generation 0)"),
    ]),
}


@pytest.mark.parametrize("policy", sorted(CHECKED))
def test_run_checked_with_every_kind_is_unchanged(policy):
    digest, cycles, injected = CHECKED[policy]
    rep = run_checked(build_program("bzip2", 0.05, 1),
                      ci(1, 512, policy=policy),
                      plan=FaultPlan.parse(EVERY_KIND))
    assert rep.ok and rep.unapplied == 0
    assert [(f["kind"], f["cycle"], f["detail"]) for f in rep.injected] \
        == injected
    stats = rep.stats.to_dict()
    assert stats["cycles"] == cycles
    assert hashlib.sha256(json.dumps(stats, sort_keys=True).encode()) \
        .hexdigest()[:16] == digest
