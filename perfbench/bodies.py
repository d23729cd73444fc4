"""The four workloads' bodies.  Each runs in a fresh child process.

    python3 perfbench/bodies.py run CONFIG_JSON
    python3 perfbench/bodies.py probe WORKLOAD SEED QUICK

``run`` measures one workload and prints its result as one JSON line.
Untraced, it times rounds of the workload for about ``seconds`` and
reports the end-to-end metrics, with in-process timings scaled to the
reference machine (``speed.py``).  Traced, it times one plain round,
then one round under the benchmark-side wrappers of ``spans.py``, and
reports the per-layer metrics, the tracing overhead between the two,
and whether the two rounds' statistics agree.

``probe`` is one set-up probe: import ``repro`` and build and predecode
every program of the workload, then exit.  The parent times whole
probe processes for ``setup_s``.

Every workload is a closed loop: an operation starts when the previous
one has finished.  README.md gives each workload's reason for being.
"""

from __future__ import annotations

import json
import os
import re
import resource
import sys
import tempfile
import time
import traceback
from statistics import median as p50, quantiles
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchlib import HERE, ROOT, SRC, clean_env, load_spec, run_proc
from speed import SpeedLog

clock = time.perf_counter

#: kernel scale per workload, for measured runs and for ``--quick``
SCALE = {"exact-ci": 0.3, "exact-scal": 0.3, "figures": 0.1, "sampled": 1.0}
QUICK_SCALE = {"exact-ci": 0.05, "exact-scal": 0.05, "figures": 0.05,
               "sampled": 0.1}
GOLDEN = os.path.join(ROOT, "tests", "golden")
#: the goldens pin seed 1 at the measured scales
GOLDEN_SEED = 1
#: warm ``repro figure`` invocations per run, at least
WARM_MIN, QUICK_WARM_MIN = 10, 3
#: plain/traced pairs of warm invocations a traced figures run makes
TRACE_WARM_PAIRS = 3
#: the sampled workload's fast-forwards per round at scale 1.0: one per
#: kernel, shared by every configuration after the first
SAMPLED_FAST_FORWARDS = 12
CLI_TIMEOUT = 150.0

#: one timing: (raw seconds, start, end)
Sample = Tuple[float, float, float]


def tail_percentile(values: Sequence[float]) -> Tuple[Optional[int],
                                                      Optional[float]]:
    """The highest of p99/p90 with at least ten samples beyond it.

    Returns ``(percentile, value)``, or ``(None, None)`` when fewer than
    100 samples exist, where no tail above the median is defined.
    """
    n = len(values)
    for pct in (99, 90):
        if n * (100 - pct) / 100 >= 10:
            cuts = quantiles(values, n=100)
            return pct, cuts[pct - 1]
    return None, None


def dir_bytes(root: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


def configs(workload: str):
    from repro.uarch import ci, scal, wb
    if workload == "exact-ci":
        return [ci(1, 512, policy=p) for p in ("ci", "ci-iw", "vect")]
    if workload == "exact-scal":
        return [scal(1, 256), wb(1, 512)]
    # sampled: ci first (cold checkpoints), then two configs that reuse them
    return [ci(1, 512), scal(1, 256), ci(1, 512, policy="vect")]


class Outcome:
    """What one workload did: operations, checks, metrics, layer numbers."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: List[dict] = []
        #: metric name -> [value on the reference machine, n, raw value]
        self.metrics: Dict[str, list] = {}
        self.layers: Dict[str, float] = {}
        self.tail: Optional[dict] = None
        self.spans: List[dict] = []
        self.speed = SpeedLog()
        #: every timed operation: (raw seconds, start, end)
        self.ops: List[Sample] = []

    def op(self, fn: Callable, *args):
        """Run one operation; an exception counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None

    def timed(self, fn: Callable, *args):
        """Run and time one measured operation, sampling the machine's
        speed first when a second of work has passed."""
        self.speed.sample_if_due()
        t0 = clock()
        result = self.op(fn, *args)
        t1 = clock()
        self.ops.append((t1 - t0, t0, t1))
        return result

    def record(self, ok: bool, detail: str = "") -> None:
        """Count one operation whose success was judged by the caller."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: operation failed: {detail}", file=sys.stderr)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.failed += not ok
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            print(f"perfbench: check failed: {name} {detail}",
                  file=sys.stderr)

    def scaled(self, samples: List[Sample]) -> List[float]:
        """Each timing on the reference machine."""
        return [raw / self.speed.slowdown(t0, t1) for raw, t0, t1 in samples]

    def latencies(self, ms: List[float], raw_ms: List[float]) -> None:
        """``op_ms_p50`` plus the highest tail with 10 samples beyond it."""
        self.metrics["op_ms_p50"] = [p50(ms), len(ms), p50(raw_ms)]
        pct, value = tail_percentile(ms)
        if pct is not None:
            self.tail = {"name": f"op_ms_p{pct}", "value": value,
                         "n": len(ms)}

    def round_metrics(self, rounds: List[Tuple[List[Sample], int]]) -> None:
        """``wall_s``, ``sim_kips`` and ``op_ms_p50`` from rounds given as
        (their timed operations, committed instructions).  A round's time
        is the sum of its operations' times, each scaled by the speed
        measured around it."""
        walls, raw_walls, kips, raw_kips = [], [], [], []
        for ops, insts in rounds:
            wall, raw = sum(self.scaled(ops)), sum(s[0] for s in ops)
            walls.append(wall)
            raw_walls.append(raw)
            kips.append(insts / wall / 1e3)
            raw_kips.append(insts / raw / 1e3)
        self.metrics["wall_s"] = [p50(walls), len(walls), p50(raw_walls)]
        self.metrics["sim_kips"] = [p50(kips), len(kips), p50(raw_kips)]
        ops = [s for r, _ in rounds for s in r]
        self.latencies([v * 1e3 for v in self.scaled(ops)],
                       [s[0] * 1e3 for s in ops])


def timed_rounds(out: Outcome, seconds: float, quick: bool,
                 body: Callable) -> List[Tuple[List[Sample], object]]:
    """``[(timed operations, result)]`` for rounds of ``body``.

    A round starts only if it is predicted to end inside ``seconds``,
    so a run measures about that long; at least two rounds run, so that
    their results can be compared, except in quick mode.  The machine's
    speed is sampled before every round and after the last.
    """
    rounds: List[Tuple[List[Sample], object]] = []
    start = clock()
    while True:
        out.speed.sample()
        first = len(out.ops)
        result = body()
        rounds.append((out.ops[first:], result))
        elapsed = clock() - start
        if quick or (len(rounds) >= 2
                     and elapsed + elapsed / len(rounds) > seconds):
            out.speed.sample()
            return rounds


def committed(stats) -> int:
    return sum(st.committed for st in stats if st is not None)


def stats_json(stats) -> str:
    return json.dumps([None if s is None else s.to_dict() for s in stats],
                      sort_keys=True)


def check_rounds_identical(out: Outcome, rounds, stats_of=lambda r: r) -> None:
    if len(rounds) > 1:
        first = stats_json(stats_of(rounds[0][1]))
        same = all(stats_json(stats_of(r)) == first for _, r in rounds[1:])
        out.check("rounds identical", same, f"{len(rounds)} rounds")


def check_traced(out: Outcome, plain, traced) -> None:
    out.check("traced stats equal untraced", stats_json(plain) ==
              stats_json(traced))


def overhead_pct(untraced_s: float, traced_s: float) -> float:
    return (traced_s / untraced_s - 1.0) * 100.0


def programs(scale: float, seed: int):
    """Build and predecode the 12 suite programs (the set-up work)."""
    from repro.runtime.keys import cached_program
    from repro.workloads import kernel_names
    return [(k, cached_program(k, scale, seed)) for k in kernel_names()]


def isa_layers(tracer, scale: float, seed: int) -> None:
    """Time program build, predecode and functional execution directly."""
    from repro.isa import interp
    from repro.isa.predecode import predecode
    from repro.workloads import get_workload, kernel_names
    for k in kernel_names():
        with tracer.span("workloads.build", kernel=k) as rec:
            prog = get_workload(k).program(scale, seed)
            rec["static_insts"] = len(prog)
        with tracer.span("isa.predecode", kernel=k):
            predecode(prog)
        with tracer.span("isa.interp", kernel=k) as rec:
            rec["steps"] = interp.run(prog).steps


def stats_dicts(stats) -> List[dict]:
    return [s.to_dict() for s in stats if s is not None]


def layer_metrics(spans, stats: List[dict], known: Dict[str, float]) -> dict:
    """Every declared per-layer metric; a layer the workload does not
    exercise reads 0.  ``known`` holds numbers measured outside spans."""
    hooks = spans.hooks()
    hooks_s = sum(secs for _calls, secs in hooks.values())
    simulate_s = spans.total("uarch.simulate")

    def tot(key: str) -> float:
        return sum(st.get(key, 0) for st in stats)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: Dict[str, float] = {
        "ci.hooks_s": hooks_s,
        "ci.share": ratio(hooks_s, simulate_s),
    }
    for hook, (calls, secs) in hooks.items():
        m[f"ci.{hook}.calls"] = calls
        m[f"ci.{hook}.s"] = secs
    m.update({
        "ci.events": tot("ci_events"),
        "ci.selected": tot("ci_selected"),
        "ci.reused": tot("ci_reused"),
        "ci.reuse_ratio": ratio(tot("ci_reused"), tot("ci_events")),
        "ci.replicas_created": tot("replicas_created"),
        "ci.replica_validations": tot("replica_validations"),
        "ci.validation_ratio": ratio(tot("replica_validations"),
                                     tot("replicas_created")),
        "ci.committed_reused": tot("committed_reused"),
        "ci.coherence_squashes": tot("coherence_squashes"),
        "ci.srsmt_alloc_failures": tot("srsmt_alloc_failures"),
        "uarch.simulate_s": simulate_s,
        "uarch.self_s": simulate_s - hooks_s,
        "uarch.cycles": tot("cycles"),
        "uarch.committed": tot("committed"),
        "uarch.fetched": tot("fetched"),
        "uarch.squashed": tot("squashed"),
        "uarch.mispredicts": tot("mispredicts"),
        "uarch.l1d_accesses": tot("l1d_accesses"),
        "uarch.skipped_cycles": tot("skipped_cycles"),
        "uarch.skip_ratio": ratio(tot("skipped_cycles"), tot("cycles")),
        "runtime.run_many_s": spans.total("runtime.run_many"),
        "runtime.pool_s": spans.total("runtime.pool"),
        "runtime.pool.jobs": spans.attr("runtime.pool", "jobs"),
        "runtime.pool.batches": spans.count("runtime.pool"),
        "runtime.key_s": spans.total("runtime.key"),
        "runtime.key.calls": spans.count("runtime.key"),
        "runtime.cache.get_s": spans.total("runtime.cache.get"),
        "runtime.cache.get.calls": spans.count("runtime.cache.get"),
        "runtime.cache.put_s": spans.total("runtime.cache.put"),
        "runtime.cache.put.calls": spans.count("runtime.cache.put"),
        "runtime.cache.hit_ratio": ratio(
            spans.attr("runtime.cache.get", "hit"),
            spans.count("runtime.cache.get")),
        "sampling.plan_s": spans.total("sampling.plan"),
        "sampling.fast_forward_s": spans.total("sampling.fast_forward"),
        "sampling.intervals": spans.attr("sampling.plan", "intervals"),
        "sampling.detail_ratio": ratio(spans.attr("sampling.plan", "detailed"),
                                       spans.attr("sampling.plan", "insts")),
        "isa.predecode_s": spans.total("isa.predecode"),
        "isa.interp_kips": ratio(spans.attr("isa.interp", "steps"),
                                 spans.total("isa.interp")) / 1e3,
        "workloads.build_s": spans.total("workloads.build"),
        "workloads.static_insts": spans.attr("workloads.build",
                                             "static_insts"),
        "experiments.self_s": sum(spans.self_time(s) for s in
                                  spans.named("experiments.report")),
        "analysis.render_s": spans.total("analysis.render"),
    })
    declared = [d["name"] for d in load_spec()["per_layer"]]
    for name in declared:
        if name in known:
            m[name] = known[name]
        m.setdefault(name, 0.0)
    extra = set(m) - set(declared)
    if extra:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: "
                       f"{sorted(extra)}")
    return {name: float(m[name]) for name in declared}


# -- exact-ci / exact-scal ----------------------------------------------------

def exact(cfg: dict, out: Outcome) -> None:
    from repro import simulate
    from repro.ci.pipeline import MechanismPipeline
    workload, seed = cfg["workload"], cfg["seed"]
    scale = (QUICK_SCALE if cfg["quick"] else SCALE)[workload]
    progs = programs(scale, seed)
    cfgs = configs(workload)

    def plain_hooks(c):
        return MechanismPipeline() if c.ci_policy else None

    def one_round(make_hooks=plain_hooks, tracer=None, run=out.timed):
        stats = []
        for c in cfgs:
            for name, prog in progs:
                if tracer is None:
                    st = run(simulate, prog, c, make_hooks(c))
                else:
                    with tracer.span("uarch.simulate", kernel=name,
                                     policy=c.ci_policy):
                        st = run(simulate, prog, c, make_hooks(c))
                stats.append(st)
        return stats

    # Warm-up, untimed: first-use imports and allocator growth.
    for c in cfgs:
        simulate(progs[0][1], c, plain_hooks(c))

    if cfg["trace"]:
        from spans import SpanSet, Tracer, TracedPipeline
        t0 = clock()
        plain = one_round(run=out.op)
        untraced_s = clock() - t0
        tracer = Tracer(f"{workload}:{seed}")
        t0 = clock()
        traced = one_round(
            lambda c: TracedPipeline(tracer) if c.ci_policy else None, tracer,
            out.op)
        traced_s = clock() - t0
        check_traced(out, plain, traced)
        isa_layers(tracer, scale, seed)
        out.spans = tracer.spans
        out.layers = layer_metrics(
            SpanSet(tracer.spans), stats_dicts(traced),
            {"trace_overhead_pct": overhead_pct(untraced_s, traced_s)})
        return

    rounds = timed_rounds(out, cfg["seconds"], cfg["quick"], one_round)
    out.round_metrics([(ops, committed(stats)) for ops, stats in rounds])
    check_rounds_identical(out, rounds)
    first = rounds[0][1]
    if workload == "exact-ci" and seed == GOLDEN_SEED and not cfg["quick"]:
        n = len(progs)
        for i, c in enumerate(cfgs):
            chunk = first[i * n:(i + 1) * n]
            produced = json.dumps(
                {name: st.as_dict() for (name, _), st in zip(progs, chunk)
                 if st is not None}, indent=1, sort_keys=True) + "\n"
            with open(os.path.join(GOLDEN, f"suite_{c.ci_policy}.json")) as fh:
                out.check(f"golden suite_{c.ci_policy}.json",
                          produced == fh.read())
    if workload == "exact-scal":
        from repro.isa import interp
        steps = [interp.run(prog).steps for _, prog in progs]
        counts = [None if st is None else st.committed for st in first]
        out.check("committed equals interpreter steps",
                  counts == steps * len(cfgs))


# -- figures ------------------------------------------------------------------

RUNTIME_LINE = re.compile(r"runtime: (\d+) simulation\(s\) run .*?"
                          r"(\d+) disk-cache hit\(s\), (\d+) memo hit\(s\)")


def runtime_counts(stderr: str) -> List[int]:
    """(sims run, disk hits, memo hits) from the CLI's summary line."""
    match = RUNTIME_LINE.search(stderr)
    return [int(g) for g in match.groups()] if match else [0, 0, 0]


CACHE_ENTRY = re.compile(r"[0-9a-f]{64}\.json")


def cached_stats(cache_dir: str) -> List[dict]:
    """The stats payloads of the result-cache entries in ``cache_dir``
    (``<root>/<key[:2]>/<key>.json`` envelopes)."""
    out = []
    for shard in sorted(os.listdir(cache_dir)):
        path = os.path.join(cache_dir, shard)
        if len(shard) != 2 or not os.path.isdir(path):
            continue
        for name in sorted(os.listdir(path)):
            if CACHE_ENTRY.fullmatch(name):
                with open(os.path.join(path, name)) as fh:
                    out.append(json.load(fh)["stats"])
    return out


def figures(cfg: dict, out: Outcome) -> None:
    quick, seed, work = cfg["quick"], cfg["seed"], cfg["work"]
    scale = (QUICK_SCALE if quick else SCALE)["figures"]
    try:
        jobs = min(2, len(os.sched_getaffinity(0)))
    except AttributeError:
        jobs = min(2, os.cpu_count() or 1)
    cli = ["figure", "fig05" if quick else "all", "--jobs", str(jobs)]

    def invoke(cache_dir: str, phase: Optional[str] = None):
        """One ``repro figure`` invocation: (seconds, stdout, stderr).

        With ``phase`` the CLI runs under ``cli_traced.py``, which leaves
        its spans in ``<work>/cli-<phase>.json``.  ``REPRO_SCALE``
        carries the scale because ``repro figure --scale`` does not take
        effect (README.md, "Why figures sets REPRO_SCALE")."""
        if phase is None:
            cmd = [sys.executable, "-m", "repro", *cli]
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_traced.py"),
                   os.path.join(work, f"cli-{phase}.json"),
                   f"figures:{seed}:{phase}", *cli]
        env = clean_env(REPRO_SCALE=str(scale), REPRO_SEED=str(seed),
                        REPRO_CACHE_DIR=cache_dir)
        t0 = clock()
        rc, stdout, stderr = run_proc(cmd, env, CLI_TIMEOUT)
        secs = clock() - t0
        out.record(rc == 0, f"{' '.join(cmd)} exited {rc}: {stderr[-2000:]}")
        return secs, stdout, stderr

    def check_warm(stdouts: List[str], stderrs: List[str], cold: str) -> None:
        out.check("warm stdout byte-identical to cold",
                  all(s == cold for s in stdouts), f"{len(stdouts)} runs")
        out.check("warm runs report 0 simulation(s) run",
                  all("runtime: 0 simulation(s) run" in e for e in stderrs))

    cache_dir = tempfile.mkdtemp(dir=work)
    if cfg["trace"]:
        # A traced cold run, then warm runs alternating plain and traced:
        # the overhead is the median traced/plain ratio of those pairs.
        from spans import SpanSet, Tracer
        _, cold_out, cold_err = invoke(cache_dir, "cold")
        plain_outs, errs, ratios = [], [], []
        for i in range(TRACE_WARM_PAIRS):
            plain_s, stdout, stderr = invoke(cache_dir)
            plain_outs.append(stdout)
            errs.append(stderr)
            traced_s, stdout, stderr = invoke(cache_dir, f"warm{i}")
            errs.append(stderr)
            ratios.append(traced_s / plain_s)
        out.check("traced stdout equals untraced",
                  all(o == cold_out for o in plain_outs))
        check_warm(plain_outs, errs, cold_out)
        payloads = []
        for phase in ("cold", "warm0"):
            with open(os.path.join(work, f"cli-{phase}.json")) as fh:
                payloads.append(json.load(fh))
        counts = [runtime_counts(e) for e in (cold_err, errs[1])]
        tracer = Tracer(f"figures:{seed}:isa")
        isa_layers(tracer, scale, seed)
        out.spans = [s for p in payloads for s in p["spans"]] + tracer.spans
        stats = cached_stats(cache_dir)
        out.layers = layer_metrics(SpanSet(out.spans), stats, {
            "runtime.pool_restarts": sum(p["pool_restarts"] for p in payloads),
            "runtime.cache.bytes": dir_bytes(cache_dir),
            "runtime.sims_run": sum(c[0] for c in counts),
            "runtime.disk_hits": sum(c[1] for c in counts),
            "runtime.memo_hits": sum(c[2] for c in counts),
            "experiments.checks_passed": cold_out.count("\n[PASS]"),
            "experiments.checks_total": cold_out.count("\n[PASS]")
            + cold_out.count("\n[DEVIATION]"),
            "cli.import_s": p50([p["import_s"] for p in payloads]),
            "trace_overhead_pct": (p50(ratios) - 1.0) * 100.0,
        })
        return

    start = clock()
    cold_s, cold_out, cold_err = invoke(cache_dir)
    sims = runtime_counts(cold_err)[0]
    stats = cached_stats(cache_dir)
    out.check("one cache entry per simulation run", len(stats) == sims,
              f"{len(stats)} entries, {sims} simulations")
    if seed == GOLDEN_SEED and not quick:
        with open(os.path.join(GOLDEN, "fig05.txt")) as fh:
            out.check("golden fig05.txt in the report (scale 0.1 applied)",
                      fh.read() in cold_out)
    warm_min = QUICK_WARM_MIN if quick else WARM_MIN
    warm: List[float] = []
    stdouts, stderrs = [], []
    while len(warm) < warm_min or not quick and (
            clock() - start + p50(warm) <= cfg["seconds"]):
        secs, stdout, stderr = invoke(cache_dir)
        warm.append(secs)
        stdouts.append(stdout)
        stderrs.append(stderr)
    check_warm(stdouts, stderrs, cold_out)
    # As timed: the speed reference does not track this workload.
    kips = sum(st["committed"] for st in stats) / cold_s / 1e3
    out.metrics["wall_s"] = [cold_s, 1, cold_s]
    out.metrics["sim_kips"] = [kips, 1, kips]
    ms = [s * 1e3 for s in warm]
    out.latencies(ms, ms)


# -- sampled ------------------------------------------------------------------

def sampled(cfg: dict, out: Outcome) -> None:
    from repro import simulate
    from repro.ci.pipeline import MechanismPipeline
    from repro.runtime import ParallelRunner, ResultCache, RunSpec
    from repro.sampling import CheckpointStore
    seed, work, quick = cfg["seed"], cfg["work"], cfg["quick"]
    scale = (QUICK_SCALE if quick else SCALE)["sampled"]
    names = [k for k, _ in programs(scale, seed)]
    cfgs = configs("sampled")

    class Runner(ParallelRunner):
        """A runner on a given checkpoint store (fresh per round)."""

        def __init__(self, store: CheckpointStore):
            super().__init__(scale=scale, seed=seed, jobs=1,
                             cache=ResultCache(enabled=False),
                             sampling="auto")
            self.store = store

        def checkpoint_store(self) -> CheckpointStore:
            return self.store

    def one_round(run=out.timed):
        """36 estimates on a fresh checkpoint store: (stats, store, runner,
        fast-forwards after each configuration)."""
        store = CheckpointStore(root=tempfile.mkdtemp(dir=work), enabled=True)
        runner = Runner(store)
        stats, ffs = [], []
        for c in cfgs:
            for k in names:
                res = run(runner.run_many, [RunSpec(k, scale, seed, c)])
                stats.append(None if res is None else res[0])
            ffs.append(store.fast_forwards)
        return stats, store, runner, ffs

    # Warm-up, untimed: one estimate on a throwaway store.
    Runner(CheckpointStore(root=tempfile.mkdtemp(dir=work), enabled=True)
           ).run_many([RunSpec(names[0], scale, seed, cfgs[0])])

    def check_rounds(rounds) -> None:
        """``rounds``: (stats, fast-forwards after each config) pairs."""
        ffs = [f for _, f in rounds]
        out.check("one fast-forward per kernel, shared by every config",
                  all((f[0] == SAMPLED_FAST_FORWARDS or quick)
                      and f == [f[0]] * len(f) for f in ffs),
                  f"fast-forwards after each config, per round: {ffs}")
        out.check("every estimate has sampled=True",
                  all(st is not None and st.sampled
                      for stats, _ in rounds for st in stats))

    if cfg["trace"]:
        import repro
        from repro.isa import interp
        from repro.sampling import executor
        from spans import SpanSet, Tracer, TracedPipeline, patched, \
            runtime_targets
        t0 = clock()
        plain, _, _, _ = one_round(out.op)
        untraced_s = clock() - t0
        tracer = Tracer(f"sampled:{seed}")

        def traced_hooks_for(_original):
            return lambda c: TracedPipeline(tracer) if c.ci_policy else None

        def plan_note(plan, _args):
            return {"intervals": plan.k, "insts": plan.total,
                    "detailed": plan.detailed_instructions}

        targets = runtime_targets(tracer) + [
            (executor, "plan_for", tracer.wrapper("sampling.plan", plan_note)),
            (executor, "ensure_checkpoints",
             tracer.wrapper("sampling.fast_forward")),
            (executor, "run_interval", tracer.wrapper("uarch.simulate")),
            (interp, "run", tracer.wrapper(
                "sampling.interp", lambda r, _a: {"steps": r.steps})),
            (repro, "hooks_for", traced_hooks_for),
        ]
        t0 = clock()
        with patched(targets):
            traced, store, runner, ffs = one_round(out.op)
        traced_s = clock() - t0
        check_traced(out, plain, traced)
        check_rounds([(traced, ffs)])
        isa_layers(tracer, scale, seed)
        # Accuracy against exact simulation, computed outside any timing.
        progs = dict(programs(scale, seed))
        errors = []
        for i, c in enumerate(cfgs):
            for j, k in enumerate(names):
                est = traced[i * len(names) + j]
                exact_ipc = simulate(progs[k], c, MechanismPipeline()
                                     if c.ci_policy else None).ipc
                if est is not None:
                    errors.append(abs(est.ipc - exact_ipc) / exact_ipc)
        out.spans = tracer.spans
        stats = stats_dicts(traced)
        out.layers = layer_metrics(SpanSet(tracer.spans), stats, {
            "runtime.pool_restarts": runner.pool_restarts,
            "runtime.sims_run": runner.sims_run,
            "runtime.memo_hits": runner.memo_hits,
            "runtime.disk_hits": runner.disk_hits,
            "sampling.fast_forwards": store.fast_forwards,
            "sampling.checkpoint_hits": store.checkpoint_hits,
            "sampling.checkpoint_bytes": dir_bytes(store.root),
            "sampling.ipc_error_pct": 100.0 * sum(errors) / len(errors),
            "trace_overhead_pct": overhead_pct(untraced_s, traced_s),
        })
        return

    def measured_round():
        stats, _store, _runner, ffs = one_round()
        return stats, ffs  # the stores are dropped: peak RSS stays per-round

    rounds = timed_rounds(out, cfg["seconds"], quick, measured_round)
    out.round_metrics([(ops, committed(r[0])) for ops, r in rounds])
    check_rounds_identical(out, rounds, lambda r: r[0])
    check_rounds([r for _, r in rounds])


BODIES = {"exact-ci": exact, "exact-scal": exact, "figures": figures,
          "sampled": sampled}


def peak_rss_mb() -> float:
    """Max resident set of this process and its waited-for descendants."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run(cfg: dict) -> dict:
    out = Outcome()
    BODIES[cfg["workload"]](cfg, out)
    result = {"attempted": out.attempted, "failed": out.failed,
              "checks": out.checks, "layers": out.layers, "tail": out.tail}
    if cfg["trace"]:
        from spans import SpanSet
        with open(cfg["trace_file"], "w") as fh:
            json.dump({"summary": SpanSet(out.spans).summary(),
                       "spans": out.spans}, fh)
    else:
        rss = peak_rss_mb()
        out.metrics["peak_rss_mb"] = [rss, 1, rss]
        result["metrics"] = out.metrics
        if out.speed.samples:
            result["slowdown"] = out.speed.slowdown()
    return result


def probe(workload: str, seed: int, quick: bool) -> None:
    import repro  # noqa: F401  (the import is part of set-up)
    if workload == "figures":
        import repro.cli  # noqa: F401
    elif workload == "sampled":
        import repro.sampling  # noqa: F401
    programs((QUICK_SCALE if quick else SCALE)[workload], seed)


def main(argv: List[str]) -> int:
    sys.path.insert(0, SRC)
    if argv[0] == "run":
        print(json.dumps(run(json.loads(argv[1]))))
    elif argv[0] == "probe":
        probe(argv[1], int(argv[2]), argv[3] == "1")
    else:
        print(f"unknown mode {argv[0]!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
