"""Tests for the experiment harness infrastructure (tiny workload scale)."""

import pytest

from repro.analysis import harmonic_mean
from repro.experiments import ALL_ABLATIONS, ALL_EXPERIMENTS
from repro.experiments.common import (
    Check,
    Figure,
    monotone_nondecreasing,
    reg_label,
)
from repro.runtime import ParallelRunner
from repro.uarch import ci, wb
from repro.uarch.config import INF_REGS


def tiny_runner():
    return ParallelRunner(scale=0.15, seed=1)


class TestCheckAndFigure:
    def test_check_render(self):
        assert Check("x", True).render().startswith("[PASS]")
        assert Check("x", False, "why").render() == "[DEVIATION] x — why"

    def test_figure_render_contains_everything(self):
        fig = Figure("F1", "title", ["a", "b"], [[1, 2.5]],
                     notes=["a note"], checks=[Check("claim", True)])
        out = fig.render()
        for token in ("F1: title", "2.500", "[PASS] claim", "note: a note"):
            assert token in out

    def test_all_passed(self):
        assert Figure("f", "t", [], [], checks=[Check("a", True)]).all_passed
        assert not Figure("f", "t", [], [],
                          checks=[Check("a", True),
                                  Check("b", False)]).all_passed

    def test_reg_label(self):
        assert reg_label(128) == "128"
        assert reg_label(INF_REGS) == "inf"

    def test_monotone_helper(self):
        assert monotone_nondecreasing([1, 1, 2, 3])
        assert not monotone_nondecreasing([1, 3, 2])


class TestRunner:
    def test_memoisation(self):
        r = tiny_runner()
        cfg = wb(1, 256)
        a = r.run("eon", cfg)
        b = r.run("eon", cfg)
        assert a is b  # identical object: cached

    def test_different_configs_not_shared(self):
        r = tiny_runner()
        assert r.run("eon", wb(1, 256)) is not r.run("eon", wb(2, 256))

    def test_suite_and_hmean(self):
        r = tiny_runner()
        stats = r.run_suite(wb(1, 256))
        assert len(stats) == 12
        h = harmonic_mean(s.ipc for s in r.run_suite(wb(1, 256)).values())
        assert 0 < h < 8

    def test_program_cache(self):
        r = tiny_runner()
        assert r.program("bzip2") is r.program("bzip2")


class TestRegistries:
    def test_experiment_registry_complete(self):
        assert set(ALL_EXPERIMENTS) == {
            "fig04", "fig05", "fig08", "fig09", "fig10", "fig11",
            "fig12", "fig13", "fig14", "intext"}

    def test_ablation_registry_complete(self):
        assert set(ALL_ABLATIONS) == {
            "refinements", "mbs", "select_window", "headroom",
            "bpred", "frontend", "policies"}


class TestOneFigureEndToEnd:
    """fig05 is the cheapest figure (one configuration): run it tiny."""

    def test_fig05_structure(self):
        from repro.experiments import fig05
        fig = fig05.compute(tiny_runner())
        assert fig.fig_id == "Figure 5"
        assert len(fig.rows) == 13          # 12 kernels + INT row
        assert all(len(r) == len(fig.headers) for r in fig.rows)
        # Percentages must sum to ~100 per kernel with events.
        for row in fig.rows:
            if row[1]:
                assert row[2] + row[3] + row[4] == pytest.approx(100.0)

    def test_fig05_renders(self):
        from repro.experiments import fig05
        out = fig05.compute(tiny_runner()).render()
        assert "Figure 5" in out and "INT" in out
