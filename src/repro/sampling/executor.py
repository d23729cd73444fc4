"""Execute sampled runs: fast-forward, boot, warm up, measure, stitch.

Three entry points:

* :func:`run_interval` — one interval job (a :class:`RunSpec` whose
  ``sampling`` field is a concrete interval token).  This is what pool
  workers execute; the checkpoint is loaded from the shared store (or
  recomputed as a fallback when the store is cold/disabled).
* :func:`run_sampled_job` — worker-side dispatch for any spec carrying a
  ``sampling`` rider: interval tokens run one interval, parent specs
  run the whole plan in-process (the serial-runner path).
* :func:`resolve_sampled` — the :class:`ParallelRunner` hook: derives
  plans, performs the (shared) fast-forwards in the parent process, then
  fans the interval jobs back through ``runner.run_many`` so coalescing,
  the result cache, retries and ``--keep-going`` apply to them like any
  other job.

Also :func:`sample_program` — the plain in-process path used by
``repro run`` for ad-hoc programs (including assembled ``.s`` files)
that have no registry identity.
"""

from __future__ import annotations

import traceback
from dataclasses import replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..runtime.keys import program_fingerprint
from ..runtime.spec import RunSpec
from ..uarch.stats import SimStats
from .checkpoint import Checkpoint, CheckpointStore, ensure_checkpoints, \
    feature_pass, functional_length
from .estimate import combine, delta_stats
from .plan import GRANULARITY, Interval, SamplingPlan, SamplingSpec, \
    is_interval_token, parse_interval

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..isa import Program
    from ..runtime.parallel import ParallelRunner
    from ..uarch import ProcessorConfig


def _reject_riders(spec: RunSpec) -> None:
    if spec.faults or spec.observe:
        raise ValueError(
            "sampling does not compose with fault injection or "
            "observers: a stitched estimate has no contiguous cycle "
            "stream to perturb or observe "
            f"(spec: {spec.describe()})")


def plan_program(program: "Program", sampling: str,
                 store: CheckpointStore) -> SamplingPlan:
    """The concrete plan for one program + sampling spec (seed-free).

    Derived plans are cached in the checkpoint store keyed by
    (program fingerprint, spec text), so a policy/config sweep derives
    — and signature-passes — each program exactly once.
    """
    sspec = SamplingSpec.parse(sampling)
    fp = program_fingerprint(program)
    cached = store.plan_get(fp, sampling)
    if cached is not None:
        return cached
    if sspec.phased:
        total, feats = feature_pass(program, sspec.g or GRANULARITY,
                                    store)
        plan = SamplingPlan.phased(total, feats, sspec)
    else:
        plan = SamplingPlan.systematic(functional_length(program, store),
                                       sspec)
    store.plan_put(fp, sampling, plan)
    return plan


def plan_for(spec: RunSpec, store: CheckpointStore) -> SamplingPlan:
    """The concrete plan for a parent sampled spec."""
    return plan_program(spec.program(), spec.sampling or "auto", store)


def interval_specs(spec: RunSpec, plan: SamplingPlan) -> List[RunSpec]:
    """The per-interval jobs of one sampled run (same cfg/policy)."""
    return [replace(spec, sampling=plan.token(i)) for i in range(plan.k)]


def _warm_microarch(core, ckpt: Checkpoint) -> None:
    """Replay the checkpoint's event tails into this config's state.

    The tails are config-independent (addresses and branch outcomes);
    replaying them warms *this* core's cache hierarchy and branch
    predictor as an in-order machine executing the pre-boundary stream
    would have.  Cache warming touches tag/LRU state only (no MSHR
    pollution); predictor warming mirrors the commit path's
    predict/speculate/train/recover sequence.
    """
    hierarchy = core.hierarchy
    l1, l2, l3 = hierarchy.l1, hierarchy.l2, hierarchy.l3
    for _is_store, addr in ckpt.mem_tail:
        if not l1.access(addr):
            if not l2.access(addr):
                l3.access(addr)
    bpred = core.bpred
    for pc, taken in ckpt.branch_tail:
        history = bpred.checkpoint()
        predicted = bpred.predict(pc)
        bpred.speculate(predicted)
        bpred.train(pc, history, bool(taken))
        if predicted != bool(taken):
            bpred.recover(history, bool(taken))


def _measure_interval(program: "Program", cfg: "ProcessorConfig",
                      interval: Interval,
                      ckpt: Optional[Checkpoint]) -> SimStats:
    """Boot at the boundary, warm up, measure; return the window delta."""
    from .. import hooks_for
    from ..uarch import Core
    boot = None if interval.boundary == 0 else ckpt
    core = Core(cfg, program, hooks_for(cfg), boot=boot)
    if boot is not None:
        _warm_microarch(core, boot)
    if interval.warmup:
        core.run(max_instructions=interval.warmup)
    before = core.stats.to_dict()
    core.run(max_instructions=interval.warmup + interval.measure)
    delta = delta_stats(core.stats, before)
    if delta.committed <= 0:
        raise RuntimeError(
            f"interval {interval.index} at boundary {interval.boundary} "
            f"measured no instructions (program ended early?)")
    return delta


def run_interval(spec: RunSpec,
                 store: Optional[CheckpointStore] = None) -> SimStats:
    """Execute one interval job (spec.sampling is an interval token)."""
    _reject_riders(spec)
    interval, _total = parse_interval(spec.sampling)
    program = spec.program()
    if store is None:
        store = CheckpointStore()
    ckpt = store.get(program_fingerprint(program), interval.boundary)
    if ckpt is None:
        # Cold/disabled store fallback: recompute this boundary's
        # checkpoint (and persist it for siblings when possible).
        ckpt = ensure_checkpoints(program, [interval.boundary],
                                  store)[interval.boundary]
    return _measure_interval(program, spec.resolved_cfg(), interval, ckpt)


def run_sampled_spec(spec: RunSpec,
                     store: Optional[CheckpointStore] = None) -> SimStats:
    """Whole sampled run, in-process (no pool): plan, ensure, stitch."""
    _reject_riders(spec)
    if store is None:
        store = CheckpointStore()
    plan = plan_for(spec, store)
    program = spec.program()
    checkpoints = ensure_checkpoints(program, plan.boundaries, store)
    cfg = spec.resolved_cfg()
    deltas = [_measure_interval(program, cfg, iv,
                                checkpoints[iv.boundary])
              for iv in plan.intervals]
    return combine(plan, deltas)


def run_sampled_job(job: RunSpec) -> SimStats:
    """Worker-side dispatch for any spec with a ``sampling`` rider."""
    if is_interval_token(job.sampling):
        return run_interval(job)
    return run_sampled_spec(job)


def sample_program(program: "Program", cfg: "ProcessorConfig",
                   sampling: str,
                   store: Optional[CheckpointStore] = None
                   ) -> Tuple[SimStats, SamplingPlan]:
    """Sampled estimate for an ad-hoc program (``repro run`` path)."""
    if store is None:
        store = CheckpointStore()
    plan = plan_program(program, sampling or "auto", store)
    checkpoints = ensure_checkpoints(program, plan.boundaries, store)
    deltas = [_measure_interval(program, cfg, iv,
                                checkpoints[iv.boundary])
              for iv in plan.intervals]
    return combine(plan, deltas), plan


def resolve_sampled(runner: "ParallelRunner", items: Sequence[Tuple]
                    ) -> List[Tuple]:
    """Resolve parent sampled specs through the runner's machinery.

    ``items`` is ``[(ident, spec), ...]`` for specs whose
    ``sampling`` is a *parent* token that missed the memo/disk caches.
    Plans are derived and checkpoints ensured here, in the parent
    process — one fast-forward per (program, boundary) no matter how
    many policies/configs are being swept — then every interval job is
    pushed through ``runner.run_many`` (pool fan-out, interval-level
    result caching, retries, keep-going).  Returns
    ``[(ident, spec, stats-or-FailedResult), ...]``.
    """
    from ..runtime.parallel import FailedResult, WorkerError, \
        aggregate_failure_report
    store = runner.checkpoint_store()
    prepared = []
    out: List[Tuple] = []
    for ident, spec in items:
        try:
            _reject_riders(spec)
            plan = plan_for(spec, store)
            ensure_checkpoints(spec.program(), plan.boundaries, store)
            prepared.append((ident, spec, plan, interval_specs(spec, plan)))
        except Exception:
            fr = FailedResult(spec.kernel, spec.scale, spec.seed,
                              error=traceback.format_exc(),
                              phase="sampling")
            if not runner.keep_going:
                raise WorkerError(aggregate_failure_report([fr])) \
                    from None
            out.append((ident, spec, fr))
    all_children: List[RunSpec] = []
    for _, _, _, children in prepared:
        all_children.extend(children)
    child_stats = runner.run_many(all_children) if all_children else []
    cursor = 0
    for ident, spec, plan, children in prepared:
        deltas = child_stats[cursor:cursor + len(children)]
        cursor += len(children)
        holes = [d for d in deltas if isinstance(d, FailedResult)]
        if holes:
            fr = FailedResult(spec.kernel, spec.scale, spec.seed,
                              error=holes[0].error, phase=holes[0].phase,
                              attempts=holes[0].attempts)
            out.append((ident, spec, fr))
            continue
        try:
            est = combine(plan, deltas)
        except Exception:
            fr = FailedResult(spec.kernel, spec.scale, spec.seed,
                              error=traceback.format_exc(),
                              phase="sampling")
            if not runner.keep_going:
                raise WorkerError(aggregate_failure_report([fr])) \
                    from None
            out.append((ident, spec, fr))
            continue
        out.append((ident, spec, est))
    return out
