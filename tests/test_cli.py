"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

import repro
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

    def test_faults_takes_inf_regs(self):
        assert self.parse("faults", "--regs", "inf").regs == INF_REGS
        assert self.parse("faults", "--regs", "256").regs == 256

    @pytest.mark.parametrize("argv", [
        ("run", "gzip", "--regs", "abc"),
        ("suite", "--regs", "12x"),
        ("faults", "--regs", "many"),
    ])
    def test_bad_regs_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            self.parse(*argv)
        assert exc.value.code == 2
        assert "invalid register count" in capsys.readouterr().err

    def test_config_error_exits_2_without_policy_hint(self, capsys):
        with pytest.raises(SystemExit) as exc:
            make_config(self.parse("run", "gzip", "--regs", "0"))
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "phys_regs must cover" in err and "hint:" not in err

    def test_unknown_policy_names_the_known_ones(self, capsys):
        with pytest.raises(SystemExit) as exc:
            make_config(self.parse("run", "gzip", "--policy", "nosuch"))
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "unknown policy 'nosuch'" in err and "'vect'" in err

    def test_suite_table_labels_inf_regs(self):
        from types import SimpleNamespace
        from repro.cli import _suite_table
        args = self.parse("suite", "--regs", "inf")
        table = _suite_table({}, SimpleNamespace(failures=[]),
                             make_config(args), args)
        assert "(inf regs, 1 port(s))" in table

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
        for name in ("fig99", "foo"):
            assert main(["figure", name]) == 2
            assert f"unknown figure {name!r}; known: fig04" \
                in capsys.readouterr().err

    def test_run_missing_assembly_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", str(tmp_path / "missing.s")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.s" in err

    def test_unknown_ablation(self, capsys):
        rc = main(["ablation", "nosuch"])
        assert rc == 2

    def test_unknown_kernel_exits_2_with_hint(self, capsys):
        rc = main(["run", "nosuchkernel"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown kernel" in err
        assert "repro list" in err

    def test_unknown_kernel_suggests_close_match(self, capsys):
        rc = main(["run", "bzip"])
        err = capsys.readouterr().err
        assert rc == 2 and "did you mean" in err and "bzip2" in err

    def test_kernels_lists_registry(self, capsys):
        from repro.workloads import all_workloads
        rc, out = run_cli(capsys, "list")
        assert rc == 0
        for spec in all_workloads():
            assert spec.name in out and spec.category in out
        assert "0.1/0.3/0.5" in out
        assert "traits:" not in out and "components:" not in out

    def test_kernels_verbose(self, capsys):
        rc, out = run_cli(capsys, "list", "-v")
        assert rc == 0
        assert "traits:" in out and "pointer chase" in out
        assert "components: filter=mbs" in out
        for retired in ("kernels", "policies"):   # folded into 'list'
            with pytest.raises(SystemExit):
                build_parser().parse_args([retired])

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

    def test_profile_command_is_gone(self, capsys):
        # ``python -m cProfile -m repro run KERNEL`` does the same job.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["profile", "eon"])
        assert exc.value.code == 2
        assert "invalid choice: 'profile'" in capsys.readouterr().err


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
        for name in ("memo", "disk", "derived", "sim", "failed"):
            assert f"{name:11s}: 0" in out
        assert "hits" not in out and "coalesced" not in out
        # a counters.json written before the record reads as zeros
        (tmp_path / "cache").mkdir(exist_ok=True)
        with open(tmp_path / "cache" / "counters.json", "w") as fh:
            fh.write('{"hits": 4, "misses": 2, "coalesced": 1}')
        rc, out = run_cli(capsys, "cache", "info")
        assert "sim        : 0" in out and "hits" not in out

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

    @pytest.mark.parametrize("command, shown", [
        ("serve", "default: 8731;"), ("submit", "default: 127.0.0.1:8731)")])
    def test_help_shows_default_port(self, capsys, command, shown):
        from repro.serve.protocol import DEFAULT_PORT
        assert DEFAULT_PORT == 8731
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        assert shown in " ".join(capsys.readouterr().out.split())

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


#: modules a warm report never uses: the serve daemon, the process pool,
#: the profiler and the trace tool
REPORT_PATH_UNUSED = ("repro.serve", "asyncio", "http.client",
                      "multiprocessing", "concurrent.futures.process",
                      "cProfile", "repro.trace")

WARM_FIGURE = """
import sys
from repro.cli import build_parser, main
build_parser()
rc = main(["figure", "fig05", "--scale", "0.05", "--jobs", "2"])
print("loaded:", *[m for m in {unused!r} if m in sys.modules],
      file=sys.stderr)
sys.exit(rc)
"""


def test_warm_report_path_imports_only_what_it_uses(tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    rc, cold = run_cli(capsys, "figure", "fig05", "--scale", "0.05",
                       "--jobs", "1")
    assert rc == 0
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", WARM_FIGURE.format(unused=REPORT_PATH_UNUSED)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == cold
    summary, loaded = proc.stderr.splitlines()[-2:]
    assert "0 simulation(s) run" in summary
    assert loaded == "loaded:"
