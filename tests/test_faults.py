"""Tests for the fault-injection + invariant-checking harness.

The headline property: every injected mechanism fault must ride a real
failure path, so the final architectural state still matches the
functional interpreter and no state-machine invariant ever breaks.
"""

import re

import pytest

from repro import build_program, run_kernel, run_program
from repro.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InvariantChecker,
    InvariantViolation,
    diff_against_interpreter,
    plan_for_run,
    run_checked,
)
from repro.observe import AuditTrail, Observer
from repro.uarch import ProcessorConfig
from repro.uarch.config import ci, scal, wb
from repro.workloads import kernel_names

SCALE = 0.05
SEED = 1


def prog(name="bzip2"):
    return build_program(name, SCALE, SEED)


class TestFaultPlan:
    def test_generate_is_deterministic(self):
        a = FaultPlan.generate(seed=7, count=10)
        b = FaultPlan.generate(seed=7, count=10)
        assert a == b and len(a) == 10
        assert a != FaultPlan.generate(seed=8, count=10)

    def test_generate_rotates_kinds_and_excludes_crash(self):
        plan = FaultPlan.generate(seed=1, count=10)
        kinds = {s.kind for s in plan.specs}
        assert kinds == set(FAULT_KINDS[:-1])   # no 'crash' by default

    def test_parse_explicit_items(self):
        plan = FaultPlan.parse("squash@400,valfail@350/bzip2")
        assert len(plan) == 2
        # plans sort by cycle
        assert plan.specs[0] == FaultSpec("valfail", 350, "bzip2")
        assert plan.specs[1] == FaultSpec("squash", 400)

    def test_parse_count_spaces_cycles(self):
        plan = FaultPlan.parse("alloc-deny*3@100")
        assert [s.cycle for s in plan.specs] == [100, 101, 102]

    def test_parse_seeded_cycles_deterministic(self):
        a = FaultPlan.parse("valfail*4,seed=9")
        b = FaultPlan.parse("seed=9,valfail*4")   # seed= position-free
        assert a == b

    def test_spec_round_trip(self):
        plan = FaultPlan.parse("squash*2,seed=3,valfail@500/mcf")
        assert FaultPlan.parse(plan.to_spec()) == plan

    def test_rejects_unknown_kind_and_bad_counts(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("explode@100")
        with pytest.raises(ValueError, match="count"):
            FaultPlan.parse("squash*0")
        with pytest.raises(ValueError, match="cycle"):
            FaultPlan.parse("squash@later")

    def test_target_filtering(self):
        plan = FaultPlan.parse("squash@100/mcf,valfail@200")
        assert [s.kind for s in plan.for_program("mcf")] \
            == ["squash", "valfail"]
        assert [s.kind for s in plan.for_program("gzip")] == ["valfail"]


class TestInjection:
    def test_clean_run_has_no_violations(self):
        for policy in ("ci", "vect"):
            rep = run_checked(prog(), ci(1, 512, policy=policy))
            assert rep.ok and not rep.injected
            assert rep.stats.committed > 0

    def test_each_kind_injects_and_passes_oracle(self):
        cfg = ci(1, 512, policy="ci")
        p = prog()
        plan = plan_for_run(p, cfg, count=5, seed=3)
        rep = run_checked(p, cfg, plan=plan)
        assert rep.ok, rep.summary()
        assert {f["kind"] for f in rep.injected} == set(FAULT_KINDS[:-1])
        assert rep.unapplied == 0

    def test_forced_squash_changes_timing_not_architecture(self):
        cfg = ci(1, 512, policy="ci")
        clean = run_checked(prog(), cfg)
        faulted = run_checked(prog(), cfg,
                              plan=FaultPlan.parse("squash@300"))
        assert faulted.ok
        assert [f["kind"] for f in faulted.injected] == ["squash"]
        # Same architectural work retired, perturbed schedule allowed.
        assert faulted.stats.committed == clean.stats.committed

    def test_injections_are_recorded_with_detail(self):
        cfg = ci(1, 512, policy="vect")
        rep = run_checked(prog(), cfg,
                          plan=FaultPlan.parse("valfail@250,alloc-deny@200"))
        assert rep.ok
        kinds = {f["kind"]: f for f in rep.injected}
        assert "validation failure" in kinds["valfail"]["detail"]
        assert "alloc" in kinds["alloc-deny"]["detail"]

    def test_crash_fault_reports_as_planned_crash(self):
        rep = run_checked(prog(), ci(1, 512, policy="ci"),
                          plan=FaultPlan.parse("crash@100"))
        assert rep.crashed and rep.stats is None
        assert rep.ok   # a planned crash is an expected outcome

    def test_crash_raises_without_the_harness(self):
        cfg = ci(1, 512, policy="ci")
        with pytest.raises(InjectedCrash):
            run_program(prog(), cfg, faults="crash@100")

    def test_unapplied_faults_are_reported(self):
        rep = run_checked(prog(), ci(1, 512, policy="ci"),
                          plan=FaultPlan.parse("squash@999999"))
        assert rep.injected == [] and rep.unapplied == 1

    def test_injector_delegates_to_inner_hooks(self):
        # The injector subscribes ahead of the mechanism instead of
        # wrapping it: a faulted run still produces mechanism activity.
        cfg = ci(1, 512, policy="vect")
        rep = run_checked(prog(), cfg,
                          plan=FaultPlan.parse("alloc-deny@300"))
        assert rep.stats.replicas_created > 0

    def test_baseline_config_supports_injection(self):
        # No mechanism hooks at all: only squash/crash faults can land.
        rep = run_checked(prog(), ProcessorConfig(),
                          plan=FaultPlan.parse("squash@200"))
        assert rep.ok and len(rep.injected) == 1


class _Corrupter(Observer):
    """Deliberately breaks core bookkeeping to prove the checker sees it."""

    name = "corrupter"

    def __init__(self, cycle):
        self.cycle = cycle
        self.done = False

    def on_cycle_end(self, core):
        if not self.done and core.cycle >= self.cycle:
            core.freelist.free -= 1    # phantom in-use register
            self.done = True


class _UndoCorrupter(Observer):
    """Drops the oldest rename-field undo record ("missing") or adds one
    for an instruction that is not in flight ("stale")."""

    name = "undo-corrupter"

    def __init__(self, mechanism, fault):
        self.mechanism = mechanism
        self.fault = fault
        self.done = False

    def on_cycle_end(self, core):
        undo = self.mechanism.rename_fields.undo
        if self.done or core.cycle < 100 or not undo:
            return
        if self.fault == "missing":
            undo.popleft()
        else:
            undo.appendleft((-1, 0, None, ()))
        self.done = True


class TestInvariantChecker:
    @pytest.mark.parametrize("fault,message", [
        ("missing", "no undo record for in-flight writer"),
        ("stale", "undo record(s) left for [-1]")])
    def test_detects_rename_field_undo_faults(self, fault, message):
        from repro import hooks_for
        from repro.uarch import Core
        cfg = ci(1, 512, policy="ci")
        hooks = hooks_for(cfg)
        checker = InvariantChecker(strict=False)
        obs = [_UndoCorrupter(hooks, fault), checker]
        Core(cfg, prog(), hooks, observer=obs).run()
        assert checker.violations
        assert all("rename fields" in v for v in checker.violations)
        assert message in checker.violations[0]

    def test_detects_seeded_corruption(self):
        from repro import hooks_for
        from repro.uarch import Core
        cfg = ci(1, 512, policy="ci")
        checker = InvariantChecker(strict=False)
        # corrupter runs before the checker within the same cycle
        obs = [_Corrupter(cycle=100), checker]
        core = Core(cfg, prog(), hooks_for(cfg), observer=obs)
        core.run()
        assert any("free-list leak" in v for v in checker.violations)

    def test_strict_mode_raises(self):
        from repro import hooks_for
        from repro.uarch import Core
        cfg = ci(1, 512, policy="ci")
        obs = [_Corrupter(cycle=100), InvariantChecker(strict=True)]
        core = Core(cfg, prog(), hooks_for(cfg), observer=obs)
        with pytest.raises(InvariantViolation, match="free-list leak"):
            core.run()

    def test_render_reports_ok(self):
        checker = InvariantChecker(strict=False)
        run_kernel("bzip2", ci(1, 512), scale=SCALE, seed=SEED,
                   observer=checker)
        assert "OK" in checker.render()
        assert checker.checked_cycles > 0


class TestOracle:
    def test_oracle_catches_corrupted_register(self):
        from repro import hooks_for
        from repro.uarch import Core
        cfg = ci(1, 512, policy="ci")
        core = Core(cfg, prog(), hooks_for(cfg))
        core.run()
        assert diff_against_interpreter(core) == []
        core.sregs[3] += 1
        diffs = diff_against_interpreter(core)
        assert diffs and any("r3" in d for d in diffs)

    def test_oracle_catches_corrupted_memory(self):
        from repro import hooks_for
        from repro.uarch import Core
        cfg = ci(1, 512, policy="vect")
        core = Core(cfg, prog(), hooks_for(cfg))
        core.run()
        core.mem[12345678] = 42
        assert diff_against_interpreter(core)

    def test_oracle_skips_unfinished_runs(self):
        from repro import hooks_for
        from repro.uarch import Core
        cfg = ci(1, 512, policy="ci")
        core = Core(cfg, prog(), hooks_for(cfg))
        core.run(max_instructions=50)
        assert not core.halted
        assert diff_against_interpreter(core) == []


class TestRunProgramWiring:
    def test_check_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        st = run_kernel("bzip2", ci(1, 512), scale=SCALE, seed=SEED)
        assert st.committed > 0

    def test_faults_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash@100")
        with pytest.raises(InjectedCrash):
            run_kernel("bzip2", ci(1, 512), scale=SCALE, seed=SEED)

    def test_explicit_args_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash@100")
        # An explicit empty plan overrides the env crash.
        st = run_program(prog(), ci(1, 512), faults=FaultPlan([]),
                         check=True)
        assert st.committed > 0

    def test_faults_and_check_compose(self):
        st = run_program(prog(), ci(1, 512),
                         faults="squash@300,valfail@350", check=True)
        assert st.committed > 0

    def test_audit_trail_records_injections(self):
        trail = AuditTrail()
        run_program(prog(), ci(1, 512), faults="valfail@250,squash@300",
                    observer=trail)
        assert len(trail.faults) == 2
        assert "injected faults" in trail.render()
        # ... and the payload round-trips through worker transport.
        merged = AuditTrail.merge_data([trail.export_data()])
        assert len(merged["faults"]) == 2

    @pytest.mark.parametrize("cfg", [scal(1, 512), wb(1, 512)],
                             ids=["scal", "wb"])
    def test_audit_trail_records_injections_without_a_mechanism(self, cfg):
        # With no mechanism the audit trail is the only other subscriber
        # with a ``faults`` attribute; it is a log, not the fault port.
        trail = AuditTrail()
        run_program(prog(), cfg, faults="squash@300", observer=trail,
                    check=True)
        assert [f["kind"] for f in trail.faults] == ["squash"]
        assert "injected faults" in trail.render()
        assert len(trail.export_data()["faults"]) == 1

    def test_forced_squash_is_reported_as_a_misprediction(self):
        # The injector runs ahead of the mechanism, so the MBS verdict of
        # the forced branch already sees the flipped prediction.
        verdicts = []

        class Verdicts(AuditTrail):
            def on_mbs_verdict(self, pc, hard, mispredicted, cycle):
                verdicts.append((pc, cycle, mispredicted))
                super().on_mbs_verdict(pc, hard, mispredicted, cycle)

        trail = Verdicts()
        run_program(prog(), ci(1, 512), faults="squash@300", observer=trail)
        (fault,) = trail.faults
        pc = int(re.search(r"pc=(\d+)", fault["detail"]).group(1))
        assert (pc, fault["cycle"], True) in verdicts
        assert (pc, fault["cycle"], False) not in verdicts
        assert trail.branches[pc][2] >= 1


class TestAcceptanceSweep:
    """ISSUE acceptance: >= 100 seeded faults across the 12-kernel suite
    under both 'ci' and 'vect' pass the oracle with zero violations."""

    def test_sweep(self):
        total_injected = 0
        for policy in ("ci", "vect"):
            cfg = ci(1, 512, policy=policy)
            for i, kernel in enumerate(kernel_names()):
                p = build_program(kernel, SCALE, SEED)
                plan = plan_for_run(p, cfg, count=5, seed=i)
                rep = run_checked(p, cfg, plan=plan)
                assert rep.ok, rep.summary()
                assert not rep.violations
                total_injected += len(rep.injected)
        assert total_injected >= 100
