"""Command-line interface: ``python -m repro <command>``.

Commands
========

``run``      simulate one kernel (or an assembly file) under a named scheme
``suite``    run all 12 kernels under one scheme and print the table
``figure``   regenerate one of the paper's figures (fig04 ... fig14, intext)
``ablation`` run one of the design-choice ablations
``list``     list the kernel and policy registries, figures, ablations and
             schemes (``-v`` adds kernel traits and policy components)
``trace``    trace-driven profile of a kernel (branches, strides, reconv.)
``faults``   fault-injection sweep: seeded mechanism faults across the
             suite, each run held to the invariant checker + state oracle
``chaos``    service-layer chaos drill: kill/corrupt a journaled
             ``repro serve`` subprocess mid-sweep, assert clean recovery
``cache``    inspect, verify or clear the persistent simulation-result cache
``serve``    run the simulation service daemon (async HTTP/JSON front end
             over warm runners and the result cache; see DESIGN.md §10)
``submit``   submit kernels to a running daemon and stream status lines
``pipeview`` per-instruction pipeline trace (text / Konata / JSONL)
``why``      CPI stack + CI-mechanism audit: why cycles are spent and
             why each hard branch was (not) reused

``run`` takes ``--observe SPEC`` (or ``REPRO_OBSERVE``) to attach
observers (``cpi``, ``audit``, ``trace``) and print their reports after
the stats; observation never changes simulation results.

``suite``/``figure``/``ablation`` accept ``--jobs N`` (or ``REPRO_JOBS``)
to fan simulations out over a worker-process pool; results persist in
the disk cache so repeat invocations pay only for new configurations.
A one-line runtime summary (simulations run / cache hits) goes to
stderr, keeping stdout byte-identical between serial and parallel runs.

They also accept the resilience knobs (DESIGN.md §8): ``--keep-going``
(or ``REPRO_KEEP_GOING=1``) degrades job failures into explicit table
holes and a nonzero exit instead of aborting the sweep; ``--timeout``
(``REPRO_TIMEOUT``) arms the stall watchdog; ``--retries``
(``REPRO_RETRIES``) bounds transient-failure retries; ``--server ADDR``
runs the sweep as a thin client of a ``repro serve`` daemon (stdout
stays byte-identical to a local run).  ``run`` takes
``--faults SPEC`` / ``--check`` (``REPRO_FAULTS`` / ``REPRO_CHECK``) to
inject mechanism faults and arm the invariant checker + state oracle.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import run_program
from .analysis import format_table, harmonic_mean
from .isa import assemble
from .uarch import ProcessorConfig, ci, scal, wb, with_spec_mem
from .uarch.config import INF_REGS
from .workloads import UnknownWorkloadError, build_program, kernel_names

SCHEMES = ("scal", "wb", "ci", "ci-iw", "vect")

#: default TCP port of ``repro serve`` (and of ``submit``/``--server``);
#: defined here so building the parser never imports the serve package
DEFAULT_PORT = 8731


def _regs_arg(text: str) -> int:
    """``--regs``: a physical register count, or ``inf`` for
    :data:`INF_REGS`; anything else is a usage error."""
    if text == "inf":
        return INF_REGS
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid register count {text!r} (int or 'inf')") from None


def _add_regs_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--regs", type=_regs_arg, default=512,
                   help="physical registers (int or 'inf')")


def make_config(args: argparse.Namespace) -> ProcessorConfig:
    scheme = args.scheme
    policy = getattr(args, "policy", None)
    try:
        if policy is not None:
            # An explicit registry policy wins over --scheme.
            cfg = ci(args.ports, args.regs, replicas=args.replicas,
                     policy=policy)
        elif scheme == "scal":
            cfg = scal(args.ports, args.regs)
        elif scheme == "wb":
            cfg = wb(args.ports, args.regs)
        elif scheme in ("ci", "ci-iw", "vect"):
            cfg = ci(args.ports, args.regs, replicas=args.replicas,
                     policy=scheme)
        else:  # pragma: no cover - argparse restricts choices
            raise SystemExit(f"unknown scheme {scheme!r}")
    except ValueError as exc:  # unknown --policy: registry suggests fixes
        print(f"error: {exc}", file=sys.stderr)
        print("hint: 'repro list' lists the registered policies",
              file=sys.stderr)
        raise SystemExit(2) from None
    if args.spec_mem:
        cfg = with_spec_mem(cfg, args.spec_mem)
    return cfg


def _add_machine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scheme", choices=SCHEMES, default="ci",
                   help="machine configuration (default: ci)")
    p.add_argument("--policy", default=None, metavar="NAME",
                   help="mechanism policy from the registry (overrides "
                        "--scheme; see 'repro list')")
    _add_regs_arg(p)
    p.add_argument("--ports", type=int, default=1, help="L1 data ports")
    p.add_argument("--replicas", type=int, default=4,
                   help="speculative replicas per vectorized instruction")
    p.add_argument("--spec-mem", type=int, default=0, metavar="POSITIONS",
                   help="attach the speculative data memory")
    p.add_argument("--scale", type=float, default=0.5,
                   help="workload scale factor")
    p.add_argument("--seed", type=int, default=1, help="workload data seed")


def _add_jobs_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="simulation worker processes (default: REPRO_JOBS "
                        "or the machine's core count; 1 = in-process)")
    p.add_argument("--keep-going", action="store_true",
                   help="don't abort the sweep on a failed simulation: "
                        "render an explicit hole, report every failure, "
                        "exit nonzero (default: REPRO_KEEP_GOING)")
    p.add_argument("--timeout", type=float, default=None, metavar="SEC",
                   help="stall watchdog: declare pending jobs hung after "
                        "SEC seconds without progress (default: "
                        "REPRO_TIMEOUT; 0 disables)")
    p.add_argument("--retries", type=int, default=None, metavar="N",
                   help="retries for transient job failures — timeouts, "
                        "pool breakage (default: REPRO_RETRIES or 1)")
    p.add_argument("--server", default=None, metavar="ADDR",
                   help="run on a 'repro serve' daemon at host[:port] "
                        "instead of a local pool (--jobs/--timeout/"
                        "--retries then apply daemon-side)")


def _add_sample_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sample", nargs="?", const="auto", default=None,
                   metavar="SPEC",
                   help="statistical sampling: estimate each run from "
                        "detailed intervals booted off shared functional "
                        "checkpoints instead of simulating every "
                        "instruction ('auto', or 'k=8,w=150,m=250'); "
                        "IPC values are then estimates marked with '~'")


def _make_runner(args: argparse.Namespace, scale: float, seed=None):
    """The sweep runner: local pool, or a thin client of ``--server``."""
    from .experiments.common import EXPERIMENT_SEED
    seed = EXPERIMENT_SEED if seed is None else seed
    sampling = getattr(args, "sample", None)
    if getattr(args, "server", None):
        from .serve.client import RemoteRunner
        return RemoteRunner(args.server, scale=scale, seed=seed,
                            keep_going=args.keep_going,
                            on_event=lambda m: print(
                                f"repro: {m}", file=sys.stderr),
                            sampling=sampling)
    from .runtime import ParallelRunner
    return ParallelRunner(scale=scale, seed=seed, jobs=args.jobs,
                          keep_going=args.keep_going, timeout=args.timeout,
                          retries=args.retries, sampling=sampling)


def _sweep_scale(args: argparse.Namespace) -> float:
    """A figure/ablation sweep's workload scale: ``--scale`` if given,
    else ``REPRO_SCALE``, else the subcommand's default."""
    if args.scale is not None:
        return args.scale
    import os
    env = os.environ.get("REPRO_SCALE")
    return float(env) if env else args.default_scale


def _finish_sweep(runner) -> int:
    """Common sweep epilogue: runtime summary + aggregated failures."""
    print(runner.runtime_summary(), file=sys.stderr)
    if runner.failures:
        print(runner.failure_report(), file=sys.stderr)
        return 1
    return 0


def _load_program(args: argparse.Namespace):
    if args.kernel.endswith(".s") or args.kernel.endswith(".asm"):
        try:
            with open(args.kernel) as fh:
                source = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(2) from None
        return assemble(source, name=args.kernel)
    return build_program(args.kernel, args.scale, args.seed)


def cmd_run(args: argparse.Namespace) -> int:
    import os
    from .observe import make_observer, render_all
    prog = _load_program(args)
    if args.sample is not None:
        return _run_sampled(args, prog)
    spec = args.observe if args.observe is not None \
        else os.environ.get("REPRO_OBSERVE")
    observers = make_observer(spec)
    cfg = make_config(args)
    check = True if args.check else None   # None = honour REPRO_CHECK
    try:
        st = run_program(prog, cfg, observer=observers,
                         faults=args.faults, check=check)
    except ValueError as exc:              # bad --faults spec
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        from .faults import InjectedCrash, InvariantViolation, OracleMismatch
        if isinstance(exc, InjectedCrash):
            print(f"simulated crash: {exc}", file=sys.stderr)
            return 1
        if isinstance(exc, (InvariantViolation, OracleMismatch)):
            print(f"CHECK FAILED: {exc}", file=sys.stderr)
            return 1
        raise
    print(f"program            : {prog.name} ({len(prog)} static instrs)")
    print(f"committed / cycles : {st.committed} / {st.cycles}")
    print(f"IPC                : {st.ipc:.3f}")
    print(f"branch mispredicts : {st.mispredicts} "
          f"({st.mispredict_rate:.1%} of conditional branches)")
    if cfg.ci_policy is not None:
        print(f"reused instructions: {st.committed_reused} "
              f"({st.reuse_fraction:.1%} of committed)")
        print(f"replicas created   : {st.replicas_created} "
              f"(validated {st.replica_validations}, "
              f"failed {st.replica_validation_failures})")
        print(f"CI events          : {st.ci_events} examined, "
              f"{st.ci_selected} selected, {st.ci_reused} reused")
        print(f"coherence squashes : {st.coherence_squashes}")
    print(f"L1 accesses        : {st.l1d_accesses} "
          f"({st.l1d_misses} misses)")
    print(f"avg regs in use    : {st.avg_regs_in_use:.0f} "
          f"(peak {st.regs_in_use_peak})")
    series = st.interval_ipc
    if series:
        # One digit per interval, 0-9 ~ IPC 0-4.5+ (warm-up at a glance).
        timeline = "".join(str(min(9, int(x * 2))) for x in series)
        print(f"IPC timeline       : {timeline}")
    report = render_all(observers)
    if report:
        print()
        print(report)
    return 0


def _run_sampled(args: argparse.Namespace, prog) -> int:
    """``repro run --sample``: a sampled estimate for one program.

    Works for registry kernels and ad-hoc ``.s`` files alike — the
    checkpoint store keys on the program's content fingerprint, not its
    registry name.
    """
    if args.observe or args.faults or args.check:
        print("error: --sample does not compose with --observe, "
              "--faults or --check (a stitched estimate has no "
              "contiguous cycle stream)", file=sys.stderr)
        return 2
    from .sampling import SamplingError, sample_program
    cfg = make_config(args)
    try:
        st, plan = sample_program(prog, cfg, args.sample)
    except (SamplingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    measured = sum(iv.measure for iv in plan.intervals)
    warm = plan.detailed_instructions - measured
    print(f"program            : {prog.name} ({len(prog)} static instrs)")
    print(f"sampled            : {plan.k} interval(s), {measured} of "
          f"{plan.total} instrs measured ({measured / plan.total:.1%}, "
          f"+{warm} warmup), ±{st.sample_rel_ci:.1%} CI")
    print(f"committed / cycles : {st.committed} / ~{st.cycles}")
    print(f"IPC                : ~{float(st.ipc):.3f}")
    print(f"branch mispredicts : ~{st.mispredicts} "
          f"({st.mispredict_rate:.1%} of conditional branches)")
    if cfg.ci_policy is not None:
        print(f"reused instructions: ~{st.committed_reused} "
              f"({st.reuse_fraction:.1%} of committed)")
    print(f"L1 accesses        : ~{st.l1d_accesses} "
          f"({st.l1d_misses} misses)")
    return 0


def cmd_pipeview(args: argparse.Namespace) -> int:
    from .observe import PipeTracer
    prog = _load_program(args)
    tracer = PipeTracer(limit=args.limit)
    run_program(prog, make_config(args), observer=tracer)
    if args.format == "text":
        out = tracer.render_text(limit=args.limit or 32, width=args.width)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(out + "\n")
        else:
            print(out)
    else:
        writer = tracer.to_konata if args.format == "konata" \
            else tracer.to_jsonl
        if args.out:
            with open(args.out, "w") as fh:
                n = writer(fh)
            print(f"wrote {n} instruction(s) to {args.out} "
                  f"({args.format})", file=sys.stderr)
        else:
            writer(sys.stdout)
    return 0


def cmd_why(args: argparse.Namespace) -> int:
    from .observe import AuditTrail, CPIStack, render_all
    prog = _load_program(args)
    observers = [CPIStack(), AuditTrail()]
    st = run_program(prog, make_config(args), observer=observers)
    print(f"{prog.name}: {st.committed} committed / {st.cycles} cycles "
          f"(IPC {st.ipc:.3f}) under {args.scheme}")
    print()
    print(render_all(observers))
    return 0


def _suite_table(stats, runner, cfg, args: argparse.Namespace) -> str:
    """The suite results table (shared by ``suite`` and ``submit`` so a
    served sweep prints byte-identical stdout to a local one)."""
    rows = []
    ipcs = []
    for name, st in stats.items():
        if getattr(st, "failed", False):
            # A keep-going hole: mark it, keep the table complete.
            rows.append([name, float("nan"), "--", "--", "FAILED"])
            continue
        ipcs.append(st.ipc)
        rows.append([name, st.ipc, f"{st.mispredict_rate:.1%}",
                     f"{st.reuse_fraction:.1%}", st.cycles])
    hmean = harmonic_mean(ipcs) if ipcs else float("nan")
    if any(getattr(ipc, "sampled_marker", False) for ipc in ipcs):
        from .uarch.stats import SampledFloat
        hmean = SampledFloat(hmean)
    rows.append(["INT(hmean)", hmean,
                 "" if not runner.failures else "(partial)", "", ""])
    from .experiments.common import reg_label
    label = cfg.ci_policy if cfg.ci_policy is not None else args.scheme
    return format_table(
        f"suite under {label} ({reg_label(args.regs)} regs, "
        f"{args.ports} port(s))",
        ["kernel", "IPC", "mispred", "reuse", "cycles"], rows)


def cmd_suite(args: argparse.Namespace) -> int:
    cfg = make_config(args)
    runner = _make_runner(args, scale=args.scale, seed=args.seed)
    stats = runner.run_suite(cfg)
    print(_suite_table(stats, runner, cfg, args))
    return _finish_sweep(runner)


def cmd_figure(args: argparse.Namespace) -> int:
    from .experiments import ALL_EXPERIMENTS, generate_report
    key = f"fig{int(args.name):02d}" if args.name.isdigit() else args.name
    if key != "all" and key not in ALL_EXPERIMENTS:
        print(f"unknown figure {args.name!r}; known: "
              f"{', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    runner = _make_runner(args, scale=_sweep_scale(args))
    if key == "all":
        print(generate_report(runner))
        return _finish_sweep(runner)
    print(ALL_EXPERIMENTS[key](runner).render())
    return _finish_sweep(runner)


def cmd_ablation(args: argparse.Namespace) -> int:
    from .experiments import ALL_ABLATIONS
    if args.name not in ALL_ABLATIONS:
        print(f"unknown ablation {args.name!r}; known: "
              f"{', '.join(sorted(ALL_ABLATIONS))}", file=sys.stderr)
        return 2
    runner = _make_runner(args, scale=_sweep_scale(args))
    print(ALL_ABLATIONS[args.name](runner).render())
    return _finish_sweep(runner)


def cmd_cache(args: argparse.Namespace) -> int:
    from .runtime import CACHE_SCHEMA, SOURCES, ResultCache
    from .sampling import CheckpointStore
    cache = ResultCache()
    store = CheckpointStore()
    if args.action == "info":
        info = cache.info()
        print(f"cache root : {info['root']}")
        print(f"enabled    : {info['enabled']} (REPRO_CACHE=0 disables)")
        print(f"schema     : v{CACHE_SCHEMA}")
        print(f"entries    : {info['entries']}")
        print(f"size       : {info['bytes'] / 1024:.1f} KiB")
        print(f"quarantined: {info['quarantined']}")
        for name in SOURCES:     # the runners' lifetime source record
            print(f"{name:11s}: {info['counters'].get(name, 0)}")
        cinfo = store.info()
        print(f"checkpoints: {cinfo['entries']} entr"
              f"{'y' if cinfo['entries'] == 1 else 'ies'}, "
              f"{cinfo['bytes'] / 1024:.1f} KiB, "
              f"{cinfo['quarantined']} quarantined "
              f"({cinfo['root']})")
    elif args.action == "verify":
        report = cache.verify()
        print(f"cache root : {report['root']}")
        print(f"verified   : {report['ok']} ok, {report['stale']} stale "
              f"(other schema), {report['corrupt']} corrupt")
        print(f"quarantined: {report['quarantined']}")
        for item in report["bad"]:
            print(f"  quarantined {item['path']}: {item['reason']}")
        creport = store.verify()
        print(f"checkpoints: {creport['ok']} ok, {creport['stale']} "
              f"stale, {creport['corrupt']} corrupt, "
              f"{creport['quarantined']} quarantined")
        for item in creport["bad"]:
            print(f"  quarantined {item['path']}: {item['reason']}")
        if report["corrupt"] or creport["corrupt"]:
            return 1
        if args.strict and (report["quarantined"]
                            or creport["quarantined"]):
            print("strict: quarantined entries present; inspect or clear "
                  f"{report['root']}/quarantine", file=sys.stderr)
            return 1
    else:  # clear
        removed = cache.clear()
        cremoved = store.clear()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.root}")
        print(f"removed {cremoved} checkpoint entr"
              f"{'y' if cremoved == 1 else 'ies'} from {store.root}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import os
    from .serve.server import serve_main
    journal = None
    if not args.no_journal:
        if args.journal:
            journal = args.journal
        else:
            from .runtime.cache import default_cache_dir
            journal = os.path.join(default_cache_dir(),
                                   "serve-journal.jsonl")
    return serve_main(host=args.host, port=args.port, jobs=args.jobs,
                      queue_depth=args.queue_depth, timeout=args.timeout,
                      retries=args.retries, batch_max=args.batch_max,
                      journal=journal)


def cmd_chaos(args: argparse.Namespace) -> int:
    from .faults.chaos import DEFAULT_PLAN, ChaosPlan, run_chaos
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds \
        else [args.seed]
    kernels = args.kernels.split(",") if args.kernels else None
    on_event = (lambda m: print(f"repro chaos: {m}", file=sys.stderr)) \
        if args.verbose else None
    bad = 0
    for i, seed in enumerate(seeds):
        text = args.plan or DEFAULT_PLAN
        if "seed=" not in text:
            text = f"{text},seed={seed}"
        try:
            plan = ChaosPlan.parse(text)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report = run_chaos(plan, kernels, scale=args.scale,
                           data_seed=args.data_seed, jobs=args.jobs,
                           on_event=on_event)
        if i:
            print()
        print(report.render())
        if not report.ok:
            bad += 1
    if len(seeds) > 1:
        print(f"\n{len(seeds) - bad}/{len(seeds)} drill(s) passed")
    return 1 if bad else 0


def cmd_submit(args: argparse.Namespace) -> int:
    from .serve.client import RemoteRunner
    from .workloads import get_workload
    cfg = make_config(args)
    kernels = kernel_names() if args.kernels in ([], ["suite"]) \
        else args.kernels
    for k in kernels:
        get_workload(k)  # unknown name: did-you-mean error, exit 2

    def on_update(job_id, status):
        if not args.quiet:
            print(f"  {status.kernel:9s} {status.state}"
                  f"{' [' + status.source + ']' if status.source else ''}"
                  f"  ({job_id})", file=sys.stderr)

    def on_event(message):
        print(f"  ! {message}", file=sys.stderr)

    from .runtime import RunSpec
    from .serve.client import ServeClient, ServeError
    try:
        # Surface the daemon's structured /healthz state up front, so
        # "why is my sweep refused" is answered before the first job.
        state = ServeClient(args.server).health().get("status", "")
        if state and state != "ok":
            print(f"repro submit: server reports {state}",
                  file=sys.stderr)
    except ServeError:
        pass   # run() below reports unreachability with full context
    runner = RemoteRunner(args.server, scale=args.scale, seed=args.seed,
                          keep_going=True, on_update=on_update,
                          on_event=on_event)
    stats = dict(zip(kernels, runner.run_many(
        [RunSpec(k, args.scale, args.seed, cfg) for k in kernels])))
    print(_suite_table(stats, runner, cfg, args))
    return _finish_sweep(runner)


def cmd_faults(args: argparse.Namespace) -> int:
    from .faults import plan_for_run, run_checked
    from .uarch import ci as ci_config
    kernels = args.kernels.split(",") if args.kernels else kernel_names()
    policies = args.policies.split(",")
    rows = []
    injected = unapplied = bad = 0
    for policy in policies:
        cfg = ci_config(args.ports, args.regs, policy=policy.strip())
        for i, kernel in enumerate(kernels):
            prog = build_program(kernel, args.scale, args.seed)
            # A distinct plan seed per (kernel, policy) point, stable
            # across runs, so the sweep exercises varied schedules.
            plan = plan_for_run(prog, cfg, count=args.count,
                                seed=args.plan_seed + i * len(policies)
                                + policies.index(policy))
            rep = run_checked(prog, cfg, plan=plan)
            injected += len(rep.injected)
            unapplied += rep.unapplied
            if not rep.ok:
                bad += 1
            rows.append([kernel, policy, len(rep.injected), rep.unapplied,
                         len(rep.violations), len(rep.oracle_diffs),
                         "OK" if rep.ok else "FAIL"])
            if args.verbose and (rep.violations or rep.oracle_diffs):
                for v in rep.violations + rep.oracle_diffs:
                    print(f"  {kernel}[{policy}]: {v}", file=sys.stderr)
    print(format_table(
        f"fault-injection sweep ({args.count} fault(s)/run, "
        f"plan seed {args.plan_seed}, scale {args.scale})",
        ["kernel", "policy", "injected", "unapplied", "invariant",
         "oracle", "verdict"], rows))
    print(f"{injected} fault(s) injected across {len(rows)} run(s); "
          f"{unapplied} never armed; {bad} run(s) failed checks")
    return 1 if bad else 0


def cmd_list(args: argparse.Namespace) -> int:
    from .ci import all_policies
    from .experiments import ALL_ABLATIONS, ALL_EXPERIMENTS
    from .workloads import all_workloads
    print("kernels (run/suite/submit KERNEL values):")
    for spec in all_workloads():
        scales = "/".join(f"{s:g}" for s in spec.default_scales)
        print(f"  {spec.name:9s} {spec.category:8s} scales {scales}  "
              f"{spec.description}")
        if args.verbose:
            print(f"  {'':9s} traits: {spec.traits}")
    print("policies (--policy values):")
    for policy in all_policies():
        print(f"  {policy.name:16s} {policy.description}")
        if args.verbose:
            parts = [f"filter={policy.filter}"]
            if policy.tracker:
                parts.append(f"tracker={policy.tracker}")
            if policy.selector:
                parts.append(f"selector={policy.selector}")
            if policy.replicas:
                parts.append(f"replicas={policy.replicas}")
            if policy.squash_reuse:
                parts.append("squash_reuse")
            print(f"  {'':16s} components: {', '.join(parts)}")
    print("figures:", ", ".join(ALL_EXPERIMENTS))
    print("ablations:", ", ".join(sorted(ALL_ABLATIONS)))
    print("schemes:", ", ".join(SCHEMES))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .trace import check_reconvergence, collect_trace, profile_trace
    prog = build_program(args.kernel, args.scale, args.seed)
    events = collect_trace(prog)
    prof = profile_trace(events)
    checks = check_reconvergence(prog, events)
    rows = []
    for pc in sorted(prof.branches):
        b = prof.branches[pc]
        chk = checks.get(pc)
        rows.append([pc, prog.code[pc].text, b.execs,
                     f"{b.taken_rate:.1%}",
                     "hard" if b.is_hard else "easy",
                     f"{chk.hit_rate:.1%}" if chk else "-"])
    print(format_table(f"{args.kernel}: branch anatomy "
                       f"({len(events)} dynamic instructions)",
                       ["pc", "branch", "execs", "taken", "class",
                        "reconv hit"], rows))
    rows = [[pc, l.execs, l.dominant_stride, f"{l.stride_rate:.1%}"]
            for pc, l in sorted(prof.loads.items())]
    print()
    print(format_table(f"{args.kernel}: load strides",
                       ["pc", "execs", "stride", "strided"], rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Control-Flow Independence Reuse via "
                    "Dynamic Vectorization' (IPDPS 2005)")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="simulate one kernel or .s file")
    pr.add_argument("kernel", help="suite kernel name or assembly file")
    _add_machine_args(pr)
    pr.add_argument("--observe", default=None, metavar="SPEC",
                    help="attach observers (comma list of cpi, audit, "
                         "trace; default: REPRO_OBSERVE)")
    pr.add_argument("--faults", default=None, metavar="PLAN",
                    help="inject mechanism faults, e.g. 'squash@400' or "
                         "'valfail*3,seed=7' (default: REPRO_FAULTS)")
    pr.add_argument("--check", action="store_true",
                    help="arm the per-cycle invariant checker and the "
                         "final-state oracle (default: REPRO_CHECK)")
    _add_sample_arg(pr)
    pr.set_defaults(fn=cmd_run)

    pv = sub.add_parser("pipeview",
                        help="per-instruction pipeline trace/diagram")
    pv.add_argument("kernel", help="suite kernel name or assembly file")
    _add_machine_args(pv)
    pv.add_argument("--format", choices=("text", "konata", "jsonl"),
                    default="text",
                    help="text diagram, Konata/Kanata log, or JSONL")
    pv.add_argument("--out", default=None, metavar="FILE",
                    help="write to FILE instead of stdout")
    pv.add_argument("--limit", type=int, default=None, metavar="N",
                    help="trace at most N dynamic instructions")
    pv.add_argument("--width", type=int, default=72,
                    help="text diagram width in cycles")
    pv.set_defaults(fn=cmd_pipeview)

    pw = sub.add_parser("why",
                        help="CPI stack + why branches were (not) reused")
    pw.add_argument("kernel", help="suite kernel name or assembly file")
    _add_machine_args(pw)
    pw.set_defaults(fn=cmd_why)

    ps = sub.add_parser("suite", help="run all kernels under one scheme")
    _add_machine_args(ps)
    _add_jobs_arg(ps)
    _add_sample_arg(ps)
    ps.set_defaults(fn=cmd_suite)

    pf = sub.add_parser("figure", help="regenerate a paper figure")
    pf.add_argument("name",
                    help="fig04..fig14, intext, a number, or 'all' "
                         "(the full EXPERIMENTS.md report)")
    pf.add_argument("--scale", type=float, default=None,
                    help="workload scale (default: REPRO_SCALE, else 0.5)")
    _add_jobs_arg(pf)
    _add_sample_arg(pf)
    pf.set_defaults(fn=cmd_figure, default_scale=0.5)

    pa = sub.add_parser("ablation", help="run a design-choice ablation")
    pa.add_argument("name")
    pa.add_argument("--scale", type=float, default=None,
                    help="workload scale (default: REPRO_SCALE, else 0.35)")
    _add_jobs_arg(pa)
    pa.set_defaults(fn=cmd_ablation, default_scale=0.35)

    pl = sub.add_parser("list", help="list kernels, policies, figures, "
                                     "ablations and schemes")
    pl.add_argument("--verbose", "-v", action="store_true",
                    help="also show kernel traits and each policy's "
                         "component assembly")
    pl.set_defaults(fn=cmd_list)

    pt = sub.add_parser("trace", help="trace-driven kernel profile")
    pt.add_argument("kernel")
    pt.add_argument("--scale", type=float, default=0.5)
    pt.add_argument("--seed", type=int, default=1)
    pt.set_defaults(fn=cmd_trace)

    pc = sub.add_parser("cache", help="persistent result-cache maintenance")
    pc.add_argument("action", choices=("info", "verify", "clear"))
    pc.add_argument("--strict", action="store_true",
                    help="with 'verify': also exit nonzero while any "
                         "quarantined entry remains parked (CI gate)")
    pc.set_defaults(fn=cmd_cache)

    psv = sub.add_parser(
        "serve", help="run the simulation service daemon")
    psv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default: 127.0.0.1)")
    psv.add_argument("--port", type=int, default=DEFAULT_PORT,
                     help=f"TCP port (default: {DEFAULT_PORT}; 0 = any)")
    psv.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="worker processes (default: REPRO_JOBS or the "
                          "machine's usable core count)")
    psv.add_argument("--queue-depth", type=int, default=256, metavar="N",
                     help="admission limit before backpressure "
                          "(default: 256)")
    psv.add_argument("--timeout", type=float, default=None, metavar="SEC",
                     help="per-batch stall watchdog (default: "
                          "REPRO_TIMEOUT)")
    psv.add_argument("--retries", type=int, default=None, metavar="N",
                     help="transient-failure retries (default: "
                          "REPRO_RETRIES or 7)")
    psv.add_argument("--journal", default=None, metavar="FILE",
                     help="crash-safety job journal path (default: "
                          "<cache root>/serve-journal.jsonl)")
    psv.add_argument("--no-journal", action="store_true",
                     help="disable the crash-safety journal (accepted "
                          "jobs do not survive a daemon crash)")
    psv.add_argument("--batch-max", type=int, default=32, metavar="N",
                     help="max queue entries dispatched per executor "
                          "batch (default: 32)")
    psv.set_defaults(fn=cmd_serve)

    psm = sub.add_parser(
        "submit", help="submit kernels to a running daemon")
    psm.add_argument("kernels", nargs="*", metavar="KERNEL",
                     help="kernels to run (default: the whole suite; "
                          "'suite' is an explicit alias)")
    _add_machine_args(psm)
    psm.add_argument("--server", default=f"127.0.0.1:{DEFAULT_PORT}",
                     metavar="ADDR", help="daemon address host[:port] "
                     f"(default: 127.0.0.1:{DEFAULT_PORT})")
    psm.add_argument("--quiet", "-q", action="store_true",
                     help="suppress the per-job status stream on stderr")
    psm.set_defaults(fn=cmd_submit)

    pch = sub.add_parser(
        "chaos",
        help="service-layer chaos drill: crash/restart a journaled "
             "'repro serve' subprocess mid-sweep and audit recovery")
    pch.add_argument("--plan", default=None, metavar="SPEC",
                     help="chaos plan, e.g. 'kill-server@mid,drop-conn' "
                          "(default: every kind once at seeded "
                          "positions)")
    pch.add_argument("--seed", type=int, default=0, metavar="S",
                     help="plan seed for unpinned event positions "
                          "(default: 0)")
    pch.add_argument("--seeds", default=None, metavar="A,B,...",
                     help="run the drill once per seed (overrides "
                          "--seed)")
    pch.add_argument("--kernels", default=None, metavar="A,B,...",
                     help="kernels to sweep (default: the whole suite)")
    pch.add_argument("--scale", type=float, default=0.05,
                     help="workload scale factor (default: 0.05)")
    pch.add_argument("--data-seed", type=int, default=1, metavar="N",
                     help="workload data seed (default: 1)")
    pch.add_argument("--jobs", type=int, default=2, metavar="N",
                     help="daemon worker processes (default: 2 — the "
                          "kill-worker event needs a real pool)")
    pch.add_argument("--verbose", "-v", action="store_true",
                     help="stream drill events to stderr")
    pch.set_defaults(fn=cmd_chaos)

    pfa = sub.add_parser(
        "faults",
        help="seeded fault-injection sweep with invariant + oracle checks")
    pfa.add_argument("--kernels", default=None, metavar="A,B,...",
                     help="kernels to sweep (default: the whole suite)")
    pfa.add_argument("--policies", default="ci,vect", metavar="A,B,...",
                     help="mechanism policies to sweep (default: ci,vect)")
    pfa.add_argument("--count", type=int, default=5, metavar="N",
                     help="faults per (kernel, policy) run (default: 5)")
    pfa.add_argument("--plan-seed", type=int, default=0, metavar="S",
                     help="base seed for the generated fault plans")
    pfa.add_argument("--scale", type=float, default=0.05,
                     help="workload scale factor (default: 0.05)")
    pfa.add_argument("--seed", type=int, default=1,
                     help="workload data seed")
    _add_regs_arg(pfa)
    pfa.add_argument("--ports", type=int, default=1, help="L1 data ports")
    pfa.add_argument("--verbose", "-v", action="store_true",
                     help="print each violation/diff to stderr")
    pfa.set_defaults(fn=cmd_faults)

    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from .runtime import WorkerError
    try:
        return args.fn(args)
    except UnknownWorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: 'repro list' lists the registered kernels",
              file=sys.stderr)
        return 2
    except WorkerError as exc:
        # Sweep-level failure: the aggregated report, not a traceback.
        # A SIGINT drain exits 130 like any interrupted Unix process.
        print(f"error: {exc}", file=sys.stderr)
        return 130 if exc.interrupted else 1
    except Exception as exc:
        from .serve.client import ServeError
        if isinstance(exc, ServeError):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
