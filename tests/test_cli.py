"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, make_config
from repro.uarch.config import INF_REGS


@pytest.fixture
def fast_backoff(monkeypatch):
    """Millisecond reconnect delays: every attempt still runs."""
    from repro.serve import client
    monkeypatch.setattr(client, "BACKOFF_BASE", 0.001)
    monkeypatch.setattr(client, "BACKOFF_CAP", 0.004)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


class TestMakeConfig:
    def parse(self, *argv):
        return build_parser().parse_args(list(argv))

    def test_scal(self):
        cfg = make_config(self.parse("run", "bzip2", "--scheme", "scal",
                                     "--regs", "256", "--ports", "2"))
        assert cfg.ci_policy is None and not cfg.wide_bus
        assert cfg.phys_regs == 256 and cfg.l1d_ports == 2

    def test_ci_with_specmem(self):
        cfg = make_config(self.parse("run", "bzip2", "--scheme", "ci",
                                     "--spec-mem", "768"))
        assert cfg.ci_policy == "ci" and cfg.spec_mem_size == 768

    def test_inf_regs(self):
        cfg = make_config(self.parse("run", "bzip2", "--regs", "inf"))
        assert cfg.phys_regs == INF_REGS

    def test_vect_policy(self):
        cfg = make_config(self.parse("run", "bzip2", "--scheme", "vect",
                                     "--replicas", "8"))
        assert cfg.ci_policy == "vect" and cfg.replicas == 8


class TestCommands:
    def test_run_kernel(self, capsys):
        rc, out = run_cli(capsys, "run", "gzip", "--scale", "0.3")
        assert rc == 0
        assert "IPC" in out and "reused instructions" in out

    def test_run_baseline_hides_mechanism_stats(self, capsys):
        rc, out = run_cli(capsys, "run", "gzip", "--scheme", "wb",
                          "--scale", "0.3")
        assert rc == 0 and "replicas created" not in out

    def test_run_assembly_file(self, tmp_path, capsys):
        f = tmp_path / "prog.s"
        f.write_text("li r1, 41\naddi r1, r1, 1\nhalt\n")
        rc, out = run_cli(capsys, "run", str(f), "--scheme", "scal")
        assert rc == 0 and "committed / cycles : 3" in out

    def test_trace(self, capsys):
        rc, out = run_cli(capsys, "trace", "eon", "--scale", "0.3")
        assert rc == 0
        assert "branch anatomy" in out and "load strides" in out

    def test_list(self, capsys):
        rc, out = run_cli(capsys, "list")
        assert rc == 0
        for token in ("bzip2", "vpr", "fig09", "headroom", "ci-iw"):
            assert token in out

    def test_unknown_figure(self, capsys):
        rc = main(["figure", "fig99"])
        assert rc == 2

    def test_unknown_ablation(self, capsys):
        rc = main(["ablation", "nosuch"])
        assert rc == 2

    def test_unknown_kernel_exits_2_with_hint(self, capsys):
        rc = main(["run", "nosuchkernel"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown kernel" in err
        assert "repro kernels" in err

    def test_unknown_kernel_suggests_close_match(self, capsys):
        rc = main(["run", "bzip"])
        err = capsys.readouterr().err
        assert rc == 2 and "did you mean" in err and "bzip2" in err

    def test_kernels_lists_registry(self, capsys):
        from repro.workloads import all_workloads
        rc, out = run_cli(capsys, "kernels")
        assert rc == 0
        for spec in all_workloads():
            assert spec.name in out and spec.category in out
        assert "0.1/0.3/0.5" in out

    def test_kernels_verbose(self, capsys):
        rc, out = run_cli(capsys, "kernels", "-v")
        assert rc == 0
        assert "traits:" in out and "pointer chase" in out

    def test_figure_by_number(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.2")
        rc, out = run_cli(capsys, "figure", "5", "--scale", "0.2")
        assert rc == 0 and "Figure 5" in out


class TestRuntimeCommands:
    def test_cache_info(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        rc, out = run_cli(capsys, "cache", "info")
        assert rc == 0
        assert "cache root" in out and "entries    : 0" in out

    def test_cache_clear(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        rc, out = run_cli(capsys, "cache", "clear")
        assert rc == 0 and "removed 0" in out

    def test_cache_verify_strict_gates_on_quarantine(self, capsys, tmp_path,
                                                     monkeypatch):
        import os
        root = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        os.makedirs(root / "quarantine")
        (root / "quarantine" / "0badcafe.json").write_text("junk")
        rc, out = run_cli(capsys, "cache", "verify")
        assert rc == 0 and "quarantined: 1" in out
        rc, _ = run_cli(capsys, "cache", "verify", "--strict")
        assert rc == 1

    def test_suite_populates_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        rc, out = run_cli(capsys, "suite", "--scheme", "wb",
                          "--scale", "0.1", "--jobs", "1")
        assert rc == 0 and "INT(hmean)" in out
        rc, out = run_cli(capsys, "cache", "info")
        assert "entries    : 12" in out

    def test_suite_jobs_flag_parses(self):
        args = build_parser().parse_args(["suite", "--jobs", "3"])
        assert args.jobs == 3
        args = build_parser().parse_args(["figure", "fig09", "--jobs", "2"])
        assert args.jobs == 2
        args = build_parser().parse_args(["ablation", "mbs"])
        assert args.jobs is None

    def test_profile_command(self, capsys):
        rc, out = run_cli(capsys, "profile", "eon", "--scale", "0.1",
                          "--limit", "5")
        assert rc == 0
        assert "committed" in out and "cumtime" in out


class TestObserveCommands:
    def test_run_with_observe(self, capsys):
        rc, out = run_cli(capsys, "run", "gzip", "--scale", "0.1",
                          "--observe", "cpi")
        assert rc == 0 and "CPI stack" in out

    def test_run_observe_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_OBSERVE", "cpi")
        rc, out = run_cli(capsys, "run", "gzip", "--scale", "0.1")
        assert rc == 0 and "CPI stack" in out

    def test_run_observe_off_by_default(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_OBSERVE", raising=False)
        rc, out = run_cli(capsys, "run", "gzip", "--scale", "0.1")
        assert rc == 0 and "CPI stack" not in out

    def test_why(self, capsys):
        rc, out = run_cli(capsys, "why", "bzip2", "--scale", "0.1")
        assert rc == 0
        assert "CPI stack" in out and "dominant reason" in out

    def test_pipeview_text(self, capsys):
        rc, out = run_cli(capsys, "pipeview", "gzip", "--scale", "0.05",
                          "--limit", "16")
        assert rc == 0
        assert "F fetch" in out and out.count("|") >= 32

    def test_pipeview_konata_file(self, capsys, tmp_path):
        from repro.observe import parse_konata
        out_file = tmp_path / "trace.kanata"
        rc, _ = run_cli(capsys, "pipeview", "gzip", "--scale", "0.05",
                        "--format", "konata", "--out", str(out_file))
        assert rc == 0
        parsed = parse_konata(out_file.read_text())
        assert parsed and all("F" in p["stages"] for p in parsed.values())

    def test_pipeview_jsonl_stdout(self, capsys):
        import json
        rc, out = run_cli(capsys, "pipeview", "gzip", "--scale", "0.05",
                          "--format", "jsonl", "--limit", "8")
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert json.loads(lines[0])["seq"] == 0


class TestServeCli:
    def test_cache_info_shows_counters(self, capsys, tmp_path,
                                       monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        rc, out = run_cli(capsys, "cache", "info")
        assert rc == 0
        assert "hits       : 0" in out
        assert "misses     : 0" in out
        assert "coalesced  : 0" in out

    def test_serve_and_submit_parsers(self):
        args = build_parser().parse_args(["serve", "--port", "0",
                                          "--queue-depth", "4"])
        assert args.port == 0 and args.queue_depth == 4
        args = build_parser().parse_args(
            ["submit", "gzip", "mcf", "--server", "h:1"])
        assert args.kernels == ["gzip", "mcf"]
        assert args.server == "h:1"
        args = build_parser().parse_args(["suite", "--server", "h:1"])
        assert args.server == "h:1"

    def test_submit_unknown_kernel_exits_2(self, capsys):
        rc, _ = run_cli(capsys, "submit", "nosuchkernel",
                        "--server", "127.0.0.1:1")
        assert rc == 2

    def test_submit_unreachable_server_exits_2(self, capsys, fast_backoff):
        rc, _ = run_cli(capsys, "submit", "gzip",
                        "--server", "127.0.0.1:1")
        assert rc == 2

    def test_suite_unreachable_server_exits_2(self, capsys, fast_backoff):
        rc, _ = run_cli(capsys, "suite", "--server", "127.0.0.1:1",
                        "--scale", "0.1")
        assert rc == 2
