"""Tests for the service-layer chaos harness (plan grammar + report).

The full subprocess drills run in CI's chaos-smoke job and via
``repro chaos``; here we pin down the deterministic plumbing — the
plan grammar, seeded trigger resolution, and the report verdict — so a
drill's behaviour is reproducible from its spec string alone, plus one
small real drill whose planned event cannot take effect.
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

    def test_long_form_aliases(self):
        plan = ChaosPlan.parse("drop-connection,corrupt-journal-tail")
        assert [s.kind for s in plan.specs] \
            == ["drop-conn", "corrupt-journal"]

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

    def test_generate_rotates_kinds_deterministically(self):
        a = ChaosPlan.generate(seed=3, count=8)
        b = ChaosPlan.generate(seed=3, count=8)
        assert a == b
        assert [s.kind for s in a.specs] \
            == [CHAOS_KINDS[i % len(CHAOS_KINDS)] for i in range(8)]


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

    def test_unpinned_kill_worker_arms_at_the_start(self):
        # seed 1 draws kill-worker@9 of 12: by then the daemon has
        # finished the sweep and no pool is left to kill
        plan = ChaosPlan.parse(DEFAULT_PLAN + ",seed=1")
        # ... and the other events keep their seeded positions
        assert {s.kind: t for t, s in plan.resolve(12)} == {
            "kill-worker": 0, "drop-conn": 1, "slow-client": 1,
            "kill-server": 2, "corrupt-journal": 4,
            "malformed-envelope": 7}
        assert ChaosSpec("kill-worker", "mid").trigger(12, None) == 6

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

    def test_an_event_without_effect_is_inconclusive(self):
        report = self._report(unapplied=["kill-worker@0"])
        assert not report.ok
        assert report.verdict == "INCONCLUSIVE"
        text = report.render()
        assert "(1 unapplied: kill-worker@0)" in text
        assert "verdict         : INCONCLUSIVE" in text
        # a broken contract still reads FAIL
        assert self._report(unapplied=["kill-worker@0"],
                            mismatches=["gzip"]).verdict == "FAIL"

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
    def test_kill_worker_without_a_pool_is_inconclusive(self, tmp_path):
        # One in-process worker: the daemon never starts a pool, so the
        # planned kill can never land and the drill must not read OK.
        report = run_chaos(ChaosPlan.parse("kill-worker@start"), ["gzip"],
                           scale=0.05, jobs=1, workdir=str(tmp_path))
        assert report.fired == []
        assert report.unapplied == ["kill-worker@0"]
        assert not (report.failures or report.mismatches)
        assert report.verdict == "INCONCLUSIVE"
