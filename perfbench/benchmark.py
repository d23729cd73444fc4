"""One benchmark command for the repro simulator.

    python3 perfbench/benchmark.py [--workload W] [--seed N] [--seconds S]
                                   [--trace [0|1]] [--quick] [--out FILE]

Runs the workloads named in BENCHMARK.json (all of them, or ``W``), each
in a fresh child process, checks that their outputs are correct, and
prints every metric by name with its unit, sample count and bound.  The
last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

* Untraced (the default) reports the end-to-end metrics.  ``setup_s`` is
  the median over fresh set-up probe processes, run before the child.
* ``--trace`` runs one plain and one traced round instead, reports the
  per-layer metrics and leaves the spans in ``bench-trace.json``.
* ``--quick`` is a smoke run at tiny scales, one round, with only the
  self-consistency checks (the goldens pin the full scales).
* ``--out FILE`` adds this run, with every sample count, bound and the
  committed baseline medians, to FILE; ``compare.py`` reads two such
  files.

With all workloads selected, the JSON's metric names are prefixed
``<workload>.``.  The command exits 2 without a result when the
simulator's sources are absent, and 1 when a workload child dies.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from statistics import median
from typing import Dict, List, Optional

from benchlib import (
    HERE,
    TRACE_PATH,
    WORK,
    clean_env,
    last_json_line,
    load_spec,
    run_proc,
    sources_present,
)
from speed import SpeedLog

#: fresh processes timed for ``setup_s``
SETUP_PROBES = 7
#: a child that has not finished by then is killed with its processes
CHILD_TIMEOUT = 170.0
BASELINE_PATH = os.path.join(HERE, "baseline.json")


def setup_probes(workload: str, seed: int, quick: bool) -> list:
    """``setup_s`` as [value on the reference machine, probes, raw]: the
    median over fresh processes of the time from process start until
    ``repro`` is imported and every program of the workload is built
    and predecoded, scaled by the speed measured between the probes
    (``speed.py``)."""
    cmd = [sys.executable, os.path.join(HERE, "bodies.py"), "probe",
           workload, str(seed), "1" if quick else "0"]
    speed = SpeedLog()
    times = []
    for _ in range(SETUP_PROBES):
        speed.sample()
        t0 = time.perf_counter()
        rc, _out, err = run_proc(cmd, clean_env(), CHILD_TIMEOUT)
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise RuntimeError(f"set-up probe failed:\n{err}")
    speed.sample()
    raw = median(times)
    return [raw / speed.slowdown(), len(times), raw]


def run_workload(workload: str, args, seconds: float,
                 work: str) -> Optional[dict]:
    """One workload in a fresh child; its result dict, or None."""
    setup = None if args.trace else setup_probes(workload, args.seed,
                                                 args.quick)
    child_work = tempfile.mkdtemp(dir=work, prefix=f"{workload}-")
    config = {"workload": workload, "seed": args.seed, "seconds": seconds,
              "trace": bool(args.trace), "quick": args.quick,
              "work": child_work,
              "trace_file": os.path.join(child_work, "spans.json")}
    cmd = [sys.executable, os.path.join(HERE, "bodies.py"), "run",
           json.dumps(config)]
    env = clean_env(REPRO_CACHE_DIR=os.path.join(child_work, "cache"))
    rc, stdout, _ = run_proc(cmd, env, CHILD_TIMEOUT, capture_stderr=False)
    result = last_json_line(stdout) if rc == 0 else None
    if result is None:
        print(f"perfbench: workload {workload} failed (exit {rc})",
              file=sys.stderr)
        return None
    if setup:
        result["metrics"]["setup_s"] = setup
    if args.trace:
        with open(config["trace_file"]) as fh:
            result["trace"] = json.load(fh)
    return result


def declared(spec: dict, trace: bool) -> List[dict]:
    return spec["per_layer"] if trace else spec["end_to_end"]


def render(workload: str, result: dict, spec: dict, args) -> str:
    """The human-readable block for one workload."""
    ok = result["failed"] == 0
    lines = [f"== {workload}  seed {args.seed}  "
             f"{'traced' if args.trace else 'untraced'}  "
             f"{'correct' if ok else 'INCORRECT'}: "
             f"{result['attempted'] - result['failed']}/"
             f"{result['attempted']} operations and checks passed"]
    if args.trace:
        lines.append(f"  {'metric':<34} {'value':>14}  unit")
        idle = 0
        for m in spec["per_layer"]:
            value = result["layers"][m["name"]]
            if value == 0:
                idle += 1
                continue
            lines.append(f"  {m['name']:<34} {value:>14.6g}  {m['unit']}")
        lines.append(f"  ({idle} more read 0: layers this workload does "
                     f"not exercise or cannot see)")
    else:
        lines.append(f"  {'metric':<12} {'value':>12}  {'unit':<8} "
                     f"{'n':>5}  {'bound':>6}  {'better':<7} {'raw':>12}")
        for m in spec["end_to_end"]:
            value, n, raw = result["metrics"][m["name"]]
            lines.append(f"  {m['name']:<12} {value:>12.6g}  {m['unit']:<8} "
                         f"{n:>5}  {m['bound']:>6.0%}  {m['better']:<7} "
                         f"{raw:>12.6g}")
        tail = result.get("tail")
        if tail:
            lines.append(f"  {tail['name']:<12} {tail['value']:>12.6g}  "
                         f"{'ms':<8} {tail['n']:>5}  (tail, not gated)")
        if "slowdown" in result:
            lines.append(f"  timings are scaled to the reference machine "
                         f"(perfbench/speed.py): its loop took "
                         f"{result['slowdown']:.3f}x its nominal time in "
                         f"this run; raw = as timed")
        else:
            lines.append("  timings are as timed, except setup_s (scaled "
                         "to the reference machine, perfbench/speed.py)")
    for c in result["checks"]:
        lines.append(f"  [{'ok' if c['ok'] else 'FAIL'}] {c['name']}"
                     + (f" ({c['detail']})" if c["detail"] else ""))
    return "\n".join(lines)


def metric_values(result: dict, trace: bool) -> Dict[str, float]:
    if trace:
        return dict(result["layers"])
    return {name: vn[0] for name, vn in result["metrics"].items()}


def summary(results: Dict[str, dict], spec: dict, trace: bool) -> dict:
    """The final JSON line (metric names prefixed when several ran)."""
    units = {m["name"]: m["unit"] for m in declared(spec, trace)}
    metrics = {}
    for workload, result in results.items():
        prefix = "" if len(results) == 1 else f"{workload}."
        for name, value in metric_values(result, trace).items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def write_trace(results: Dict[str, dict], args) -> None:
    """``bench-trace.json``: per workload, every span and a summary."""
    doc = {"seed": args.seed,
           "workloads": {w: r["trace"] for w, r in results.items()}}
    with open(TRACE_PATH, "w") as fh:
        json.dump(doc, fh)


def append_out(path: str, results: Dict[str, dict], spec: dict,
               args, seconds: float) -> None:
    """Add this run to ``path`` (``{"runs": [...]}``) for compare.py."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {"runs": []}
    try:
        with open(BASELINE_PATH) as fh:
            baseline = json.load(fh)["medians"].get(str(args.seed), {})
    except FileNotFoundError:
        baseline = {}
    meta = {m["name"]: m for m in declared(spec, args.trace)}
    run = {"seed": args.seed, "seconds": seconds, "trace": bool(args.trace),
           "quick": args.quick, "workloads": {}}
    for workload, result in results.items():
        entry = {"attempted": result["attempted"],
                 "failed": result["failed"], "checks": result["checks"],
                 "metrics": {}}
        for name, value in metric_values(result, args.trace).items():
            row = {"value": value, "unit": meta[name]["unit"],
                   "better": meta[name]["better"]}
            if not args.trace:
                _, row["n"], row["raw"] = result["metrics"][name]
                row["bound"] = meta[name]["bound"]
                if name in baseline.get(workload, {}):
                    row["baseline"] = baseline[workload][name]
            entry["metrics"][name] = row
        if result.get("tail"):
            entry["tail"] = result["tail"]
        if "slowdown" in result:
            entry["slowdown"] = result["slowdown"]
        run["workloads"][workload] = entry
    doc["runs"].append(run)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def parse_args(argv, spec: dict):
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(
        prog="perfbench/benchmark.py",
        description="End-to-end and per-layer benchmark of the repro "
                    "simulator (see perfbench/README.md)")
    p.add_argument("--workload", choices=names, default=None,
                   help="run one workload (default: all, one after "
                        "another)")
    p.add_argument("--seed", type=int, default=1,
                   help="workload seed, passed to build_program "
                        "(default: 1; the goldens are checked at 1)")
    p.add_argument("--seconds", type=float, default=None,
                   help=f"measured time per workload (default: "
                        f"{spec['run_seconds']}, BENCHMARK.json's "
                        f"run_seconds)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1),
                   help="1 (or bare): report per-layer metrics from a "
                        "traced round instead")
    p.add_argument("--quick", action="store_true",
                   help="smoke run: tiny scales, one round, "
                        "self-consistency checks only")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="add this run to FILE for compare.py")
    return p.parse_args(argv)


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if not sources_present():
        print("perfbench: src/repro not found next to perfbench/; run "
              "from a checkout of the simulator", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    workloads = [args.workload] if args.workload else \
        [w["name"] for w in spec["workloads"]]
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    try:
        results = {}
        for workload in workloads:
            result = run_workload(workload, args, seconds, work)
            if result is None:
                return 1
            results[workload] = result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run is using it
    for workload, result in results.items():
        print(render(workload, result, spec, args))
    if args.trace:
        write_trace(results, args)
        print(f"spans written to {os.path.relpath(TRACE_PATH)}")
    if args.out:
        append_out(args.out, results, spec, args, seconds)
    print(json.dumps(summary(results, spec, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
