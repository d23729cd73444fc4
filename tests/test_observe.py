"""Tests for the pipeline observability subsystem (src/repro/observe)."""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import run_kernel, run_program
from repro.ci import MechanismPipeline
from repro.observe import (
    COMPONENTS,
    AuditTrail,
    CPIStack,
    Observer,
    PipeTracer,
    REASONS,
    make_observer,
    merge_payloads,
    observer_names,
    parse_konata,
    render_all,
)
from repro.uarch.config import ci, scal, wb
from repro.uarch.core import simulate
from repro.workloads import kernel_names
from repro.workloads.micro import micro_program

SCALE = 0.1
POLICIES = {"scal": lambda: scal(1, 512), "wb": lambda: wb(1, 512),
            "ci": lambda: ci(1, 512)}


# ---------------------------------------------------------------------------
# CPI-stack invariant: every cycle attributed, sum exact.
# ---------------------------------------------------------------------------
class TestCPIStackInvariant:
    @pytest.mark.parametrize("kernel", kernel_names())
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_sums_to_cycles(self, kernel, policy):
        obs = CPIStack()
        st = run_kernel(kernel, POLICIES[policy](), scale=SCALE,
                        observer=obs)
        assert obs.total == st.cycles, (
            f"{kernel}/{policy}: CPI stack {obs.as_dict()} sums to "
            f"{obs.total}, not {st.cycles}")
        assert obs.cycles == st.cycles
        assert all(getattr(obs, c) >= 0 for c in COMPONENTS)

    def test_components_meaningful_on_hammock(self):
        obs = CPIStack()
        st = simulate(micro_program("biased50"), ci(1, 512),
                      MechanismPipeline(), observer=obs)
        assert obs.total == st.cycles
        # A hammock full of hard mispredictions must show branch penalty.
        assert obs.branch_resolution > 0

    def test_merge_sums(self):
        payloads = []
        cycles = 0
        for kernel in ("mcf", "bzip2"):
            obs = CPIStack()
            st = run_kernel(kernel, ci(1, 512), scale=SCALE, observer=obs)
            payloads.append(obs.export())
            cycles += st.cycles
        merged = merge_payloads(payloads)["cpi"]
        assert merged["cycles"] == cycles
        assert sum(merged["components"].values()) == cycles


# ---------------------------------------------------------------------------
# Observation must never perturb the simulation.
# ---------------------------------------------------------------------------
class TestNonPerturbation:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_stats_identical_with_observer(self, policy):
        cfg = POLICIES[policy]()
        bare = run_kernel("vpr", cfg, scale=SCALE)
        nulled = run_kernel("vpr", cfg, scale=SCALE, observer=Observer())
        observed = run_kernel("vpr", cfg, scale=SCALE,
                              observer=make_observer("cpi,audit,trace"))
        assert bare.to_dict() == nulled.to_dict()
        assert bare.to_dict() == observed.to_dict()

    def test_null_observer_not_attached(self):
        # The "null" observer is the base class: it subscribes to no
        # event, so every observer entry of the table stays None.
        from repro.observe import OBSERVER_HOOKS
        from repro.uarch.core import Core
        from repro.workloads import build_program
        prog = build_program("mcf", SCALE, 1)
        core = Core(scal(1, 512), prog, observer=make_observer("null"))
        assert all(core.events[k] is None for k in OBSERVER_HOOKS)
        core = Core(scal(1, 512), prog, observer=CPIStack())
        assert any(core.events[k] is not None for k in OBSERVER_HOOKS)


# ---------------------------------------------------------------------------
# PipeTracer: records, JSONL, Konata round-trip.
# ---------------------------------------------------------------------------
class TestPipeTracer:
    def _traced_hammock(self):
        tracer = PipeTracer()
        st = simulate(micro_program("biased50"), ci(1, 512),
                      MechanismPipeline(), observer=tracer)
        return tracer, st

    def test_counts_match_stats(self):
        tracer, st = self._traced_hammock()
        assert len(tracer.records) == st.fetched
        assert len(tracer.committed) == st.committed

    def test_every_record_terminates(self):
        tracer, _ = self._traced_hammock()
        for rec in tracer.records:
            assert rec.commit >= 0 or rec.squash >= 0, (
                f"seq {rec.seq} neither committed nor squashed")

    def test_jsonl_export(self):
        tracer, _ = self._traced_hammock()
        buf = io.StringIO()
        n = tracer.to_jsonl(buf)
        lines = buf.getvalue().splitlines()
        assert n == len(lines) == len(tracer.records)
        first = json.loads(lines[0])
        assert first["seq"] == 0 and first["fetch"] >= 0

    def test_konata_round_trip(self):
        tracer, st = self._traced_hammock()
        buf = io.StringIO()
        n = tracer.to_konata(buf)
        assert n == len(tracer.records)
        parsed = parse_konata(buf.getvalue())
        assert len(parsed) == len(tracer.records)
        for rec in tracer.records:
            got = parsed[rec.seq]
            assert got["stages"]["F"] == rec.fetch
            if rec.dispatch >= 0:
                assert got["stages"]["D"] == rec.dispatch
            if rec.issue >= 0:
                assert got["stages"]["X"] == rec.issue
            if rec.commit >= 0:
                assert got["retired"] == rec.commit and not got["flushed"]
            else:
                assert got["retired"] == rec.squash and got["flushed"]
        assert sum(1 for p in parsed.values() if not p["flushed"]) \
            == st.committed

    def test_limit_caps_records(self):
        tracer = PipeTracer(limit=10)
        simulate(micro_program("biased50"), ci(1, 512), MechanismPipeline(),
                 observer=tracer)
        assert len(tracer.records) == 10

    def test_render_text(self):
        tracer, _ = self._traced_hammock()
        text = tracer.render_text(limit=8)
        assert "F" in text and "|" in text
        # header + 8 rows (+ optional clipped-view footer)
        assert len(text.splitlines()) in (9, 10)


# ---------------------------------------------------------------------------
# AuditTrail: every hard mispredicted branch gets a named reason.
# ---------------------------------------------------------------------------
class TestAuditTrail:
    @pytest.mark.parametrize("kernel", kernel_names())
    def test_every_examined_branch_has_reason(self, kernel):
        audit = AuditTrail()
        st = run_kernel(kernel, ci(1, 512), scale=SCALE, observer=audit)
        reasons = audit.hard_branch_reasons()
        for ev in audit.events:
            assert ev.reason in REASONS
            assert ev.branch_pc in reasons
        # Event counts reconcile with the engine's own accounting:
        # untracked (nrbq-full) events are the ones the engine skipped.
        tracked = sum(1 for ev in audit.events if ev.tracked)
        assert tracked == st.ci_events

    def test_reuse_agrees_with_stats(self):
        audit = AuditTrail()
        st = run_kernel("bzip2", ci(1, 512), scale=SCALE, observer=audit)
        reused = sum(1 for ev in audit.events if ev.reused)
        assert reused == st.ci_reused
        selected = sum(1 for ev in audit.events if ev.selected)
        assert selected == st.ci_selected

    def test_histogram_covers_all_events(self):
        audit = AuditTrail()
        run_kernel("mcf", ci(1, 512), scale=SCALE, observer=audit)
        hist = audit.reason_histogram()
        assert sum(hist.values()) == len(audit.events)
        assert set(hist) == set(REASONS)

    def test_render_names_reasons(self):
        audit = AuditTrail()
        run_kernel("bzip2", ci(1, 512), scale=SCALE, observer=audit)
        out = audit.render()
        assert "dominant reason" in out
        for pc, reason in audit.hard_branch_reasons().items():
            assert reason in out

    def test_payload_round_trip(self):
        audit = AuditTrail()
        run_kernel("twolf", ci(1, 512), scale=SCALE, observer=audit)
        rebuilt = AuditTrail.from_payload(audit.export_data())
        assert rebuilt.hard_branch_reasons() == audit.hard_branch_reasons()
        assert rebuilt.reason_histogram() == audit.reason_histogram()


# ---------------------------------------------------------------------------
# Observer plumbing: factory, fan-out, payload merging.
# ---------------------------------------------------------------------------
class TestPlumbing:
    def test_make_observer_specs(self):
        assert make_observer(None) == []
        assert make_observer("") == []
        assert make_observer("off") == []
        assert make_observer("0") == []
        assert [type(o) for o in make_observer("cpi")] == [CPIStack]
        assert [type(o) for o in make_observer("cpi,audit")] \
            == [CPIStack, AuditTrail]
        with pytest.raises(ValueError, match="unknown observer"):
            make_observer("bogus")

    def test_observer_names(self):
        assert set(observer_names()) >= {"cpi", "audit", "trace", "null"}

    def test_multi_observer_matches_singles(self):
        cfg = ci(1, 512)
        cpi, audit = CPIStack(), AuditTrail()
        run_kernel("gzip", cfg, scale=SCALE, observer=[cpi, audit])
        solo = CPIStack()
        run_kernel("gzip", cfg, scale=SCALE, observer=solo)
        assert cpi.as_dict() == solo.as_dict()
        solo_audit = AuditTrail()
        run_kernel("gzip", cfg, scale=SCALE, observer=solo_audit)
        assert audit.export_data() == solo_audit.export_data()
        assert render_all([cpi, audit]) == \
            cpi.render() + "\n\n" + audit.render()

    def test_base_observer_is_inert(self):
        # The protocol base class must accept every event silently.
        st = run_kernel("gcc", ci(1, 512), scale=SCALE, observer=Observer())
        assert st.cycles > 0


# ---------------------------------------------------------------------------
# The ported example keeps running.
# ---------------------------------------------------------------------------
def test_branch_anatomy_example_runs():
    repo = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(repo / "examples" / "branch_anatomy.py"),
         "--scale", "0.05", "bzip2"],
        capture_output=True, text=True, timeout=300,
        env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    assert "observed under ci" in proc.stdout
    assert "CPI stack" in proc.stdout
