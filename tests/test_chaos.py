"""Tests for the service-layer chaos harness (plan grammar + report).

The full subprocess drills run in CI's chaos-smoke job and via
``repro chaos``; here we pin down the deterministic plumbing — the
plan grammar, seeded trigger resolution, and the report verdict — so a
drill's behaviour is reproducible from its spec string alone, plus one
small real drill of the default plan.
"""

import pytest

from repro.faults.chaos import (
    CHAOS_KINDS,
    DEFAULT_PLAN,
    ChaosPlan,
    ChaosReport,
    ChaosSpec,
    run_chaos,
)


class TestPlanGrammar:
    def test_parse_kinds_positions_and_seed(self):
        plan = ChaosPlan.parse("kill-server@mid, drop-conn, seed=7")
        assert plan.seed == 7
        assert [s.kind for s in plan.specs] == ["kill-server", "drop-conn"]
        assert plan.specs[0].pos == "mid"
        assert plan.specs[1].pos == ""

    def test_spec_roundtrip(self):
        text = "kill-server@mid,drop-conn,corrupt-journal@2,seed=7"
        assert ChaosPlan.parse(text).to_spec() == text

    def test_default_plan_covers_every_kind(self):
        plan = ChaosPlan.parse(DEFAULT_PLAN)
        assert sorted(s.kind for s in plan.specs) == sorted(CHAOS_KINDS)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos kind"):
            ChaosPlan.parse("set-on-fire")

    def test_bad_position_rejected(self):
        with pytest.raises(ValueError, match="position"):
            ChaosPlan.parse("kill-server@sometimes")

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            ChaosPlan.parse("kill-server,seed=lucky")


class TestTriggerResolution:
    def test_pinned_positions(self):
        total = 10
        import random
        rng = random.Random(0)
        assert ChaosSpec("kill-server", "start").trigger(total, rng) == 0
        assert ChaosSpec("kill-server", "mid").trigger(total, rng) == 5
        assert ChaosSpec("kill-server", "end").trigger(total, rng) == 9
        assert ChaosSpec("kill-server", "3").trigger(total, rng) == 3
        # a numeric position past the sweep clamps to the last job
        assert ChaosSpec("kill-server", "99").trigger(total, rng) == 9

    def test_unpinned_triggers_are_seeded(self):
        plan = ChaosPlan.parse("kill-server,drop-conn,slow-client,seed=5")
        first = plan.resolve(12)
        second = plan.resolve(12)
        assert first == second                      # deterministic
        assert all(0 <= t < 12 for t, _ in first)   # in range
        assert first == sorted(first,
                               key=lambda p: (p[0], p[1].kind))
        # a different seed moves at least one trigger
        other = ChaosPlan.parse("kill-server,drop-conn,slow-client,seed=6")
        assert [t for t, _ in other.resolve(12)] != [t for t, _ in first] \
            or other.resolve(12) != first

    def test_default_plan_positions_are_pinned_by_the_seed(self):
        # Every kind draws from the seed in spec order; each trigger is
        # below the sweep size, so the final poll fires them all.
        plan = ChaosPlan.parse(DEFAULT_PLAN + ",seed=1")
        assert {s.kind: t for t, s in plan.resolve(12)} == {
            "kill-server": 2, "drop-conn": 9, "corrupt-journal": 1,
            "slow-client": 4, "malformed-envelope": 1}

    def test_resolve_single_job_sweep(self):
        plan = ChaosPlan.parse(DEFAULT_PLAN)
        for trigger, _ in plan.resolve(1):
            assert trigger == 0


class TestReport:
    def _report(self, **kw):
        base = dict(plan_spec="kill-server", seed=1, kernels=["gzip"])
        base.update(kw)
        return ChaosReport(**base)

    def test_clean_report_is_ok(self):
        report = self._report(records=6, epochs=2, server_kills=1,
                              fired=["kill-server@0"])
        assert report.ok
        text = report.render()
        assert "verdict         : OK" in text
        assert "journal replay  : consistent" in text
        assert "identical to the serial reference" in text

    @pytest.mark.parametrize("flaw", [
        {"violations": ["k: started without an accepted record"]},
        {"duplicate_sims": ["deadbeef"]},
        {"failures": ["gzip: failed"]},
        {"mismatches": ["gzip"]},
    ])
    def test_any_flaw_fails_the_verdict(self, flaw):
        report = self._report(**flaw)
        assert not report.ok
        assert "verdict         : FAIL" in report.render()

    def test_render_surfaces_the_evidence(self):
        report = self._report(
            violations=["k: completed without an accepted record"],
            duplicate_sims=["deadbeefcafe0000"],
            quarantined=3)
        text = report.render()
        assert "INCONSISTENT" in text
        assert "deadbeefcafe" in text
        assert "quarantined     : 3 line(s)" in text


class TestDrill:
    def test_default_plan_fires_every_kind_and_passes(self, tmp_path):
        # Two kernels, so all five events land on progress 0 or 1: two
        # daemon kills (one with a corrupted journal tail), a dropped
        # connection, a stalled client and a malformed request.
        report = run_chaos(ChaosPlan.parse(DEFAULT_PLAN + ",seed=1"),
                           ["gzip", "mcf"], scale=0.05, jobs=2,
                           workdir=str(tmp_path))
        assert report.verdict == "OK", report.render()
        assert sorted(label.split("@")[0] for label in report.fired) \
            == sorted(CHAOS_KINDS)
        assert report.server_kills == 2
        assert report.quarantined == 3
