"""Tests of the benchmark itself, not of the simulator.

    python3 -m pytest perfbench/test_benchmark.py -q

About a minute: two quick benchmark runs (one plain, one traced) as
subprocesses, plus a run where the simulator's sources are missing.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
from benchlib import ROOT, TRACE_PATH, last_json_line, load_spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_benchmark(*args: str, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "benchmark.py"),
         *args], cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc, last_json_line(proc.stdout)


@pytest.fixture(scope="module")
def spec():
    return load_spec()


@pytest.fixture(scope="module")
def quick():
    return run_benchmark("--quick")


@pytest.fixture(scope="module")
def quick_traced():
    return run_benchmark("--quick", "--trace")


def test_every_end_to_end_metric_printed_with_unit(quick, spec):
    proc, result = quick
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for workload in spec["workloads"]:
        for m in spec["end_to_end"]:
            entry = result["metrics"][f"{workload['name']}.{m['name']}"]
            assert entry["unit"] == m["unit"]
            assert entry["value"] > 0, (workload["name"], m["name"])
            assert re.search(rf"^\s+{re.escape(m['name'])}\s+\S+\s+"
                             rf"{re.escape(m['unit'])}\s", proc.stdout,
                             re.M), m["name"]


def test_quick_traced_run_matches_untraced(quick_traced, spec):
    proc, result = quick_traced
    assert proc.returncode == 0, proc.stderr
    assert result["correct"], proc.stdout
    assert proc.stdout.count("[ok] traced stats equal untraced") == 3
    assert "[ok] traced stdout equals untraced" in proc.stdout
    names = {w["name"] for w in spec["workloads"]}
    for workload in names:
        for m in spec["per_layer"]:
            entry = result["metrics"][f"{workload}.{m['name']}"]
            assert entry["unit"] == m["unit"]
    assert result["metrics"]["exact-ci.ci.share"]["value"] > 0
    assert result["metrics"]["exact-scal.ci.hooks_s"]["value"] == 0
    with open(TRACE_PATH) as fh:
        trace = json.load(fh)
    assert set(trace["workloads"]) == names
    for doc in trace["workloads"].values():
        ids = {s["id"] for s in doc["spans"]}
        assert doc["spans"] and all(
            s["end"] >= s["start"] and (s["parent"] is None
                                        or s["parent"] in ids)
            for s in doc["spans"])


def test_benchmark_json_follows_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert spec["command"][1].startswith("perfbench/")
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    metrics = spec["end_to_end"] + spec["per_layer"]
    for m in metrics:
        names.append(m["name"])
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher",
                                                            "lower")
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run_benchmark(cwd=str(tmp_path))
    assert proc.returncode != 0
    assert result is None


def _runs(workload: str, metric: str, values):
    return [{"trace": False, "workloads": {workload: {"metrics": {
        metric: {"value": v}}}}} for v in values]


@pytest.mark.parametrize("shift, expected", [
    (0.0, "unchanged"),
    (-0.5, "gain"),         # half the bound faster, in every pair
    (1.5, "regressed"),     # half as much again as the bound slower
])
def test_compare_verdicts(spec, shift, expected):
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}["wall_s"]
    base = [100 + i * 0.1 for i in range(10)]
    parent = _runs("exact-ci", "wall_s", base)
    change = _runs("exact-ci", "wall_s",
                   [v * (1 + shift * bound) for v in base])
    rows = compare.compare(parent, change, spec)
    assert [r["verdict"] for r in rows] == [expected]


def test_compare_reports_noise_wider_than_the_bound_as_unresolved(spec):
    parent = _runs("figures", "wall_s", [100, 160] * 5)
    change = _runs("figures", "wall_s", [101, 159] * 5)
    rows = compare.compare(parent, change, spec)
    assert [r["verdict"] for r in rows] == ["unresolved"]
