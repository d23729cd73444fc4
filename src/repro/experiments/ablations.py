"""Ablations of the mechanism's design choices (DESIGN.md §4/§5).

Not figures from the paper — these quantify the individual ingredients
the paper's design (and our implementation refinements) rely on:

* ``abl_refinements`` — each implementation refinement toggled off,
* ``abl_mbs``        — the MBS hard-branch filter on/off,
* ``abl_select_window`` — how far past re-convergence selection scans,
* ``abl_headroom``   — the replicas' low-priority register allocation,
* ``abl_bpred``      — mechanism benefit vs branch-predictor quality,
* ``abl_frontend``   — mechanism benefit vs pipeline (refill) depth,
* ``abl_policies``   — registry-assembled oracle policies vs the paper's
  hardware (how much the finite MBS / static re-convergence leave behind).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..runtime import ParallelRunner
from ..uarch.config import ci, wb
from .common import Check, Figure, default_runner
from .sweeps import SweepSpec, run_sweep

BASE = ci(ports=1, regs=512)
BASE_WB = wb(ports=1, regs=512)

SWEEP_REFINEMENTS = SweepSpec("abl-refinements", (
    ("full", BASE),
    ("no-recovery-repair", replace(BASE, ci_recovery_repair=False)),
    ("no-exact-range", replace(BASE, ci_exact_range_check=False)),
    ("no-conflict-blacklist", replace(BASE, ci_conflict_blacklist=0)),
    ("no-daec", replace(BASE, ci_daec=False)),
))

SWEEP_MBS = SweepSpec("abl-mbs", (
    ("mbs-on", BASE),
    ("mbs-off", replace(BASE, ci_mbs_filter=False)),
))

SELECT_WINDOWS = (8, 16, 48, 128)

SWEEP_SELECT_WINDOW = SweepSpec("abl-select-window", tuple(
    (f"win{win}", replace(BASE, ci_select_window=win))
    for win in SELECT_WINDOWS))

HEADROOMS = (0, 16, 64, 128)

SWEEP_HEADROOM = SweepSpec("abl-headroom", tuple(
    [(f"hr{hr}", ci(ports=1, regs=192, ci_alloc_headroom=hr))
     for hr in HEADROOMS]
    + [("wb", wb(1, 192))]))

BPRED_KINDS = ("static", "bimodal", "gshare")

SWEEP_BPRED = SweepSpec("abl-bpred", tuple(
    pair for kind in BPRED_KINDS
    for pair in ((f"wb-{kind}", replace(BASE_WB, bpred_kind=kind)),
                 (f"ci-{kind}", replace(BASE, bpred_kind=kind)))))

FRONTEND_DEPTHS = (3, 6, 10)

SWEEP_FRONTEND = SweepSpec("abl-frontend", tuple(
    pair for depth in FRONTEND_DEPTHS
    for pair in ((f"wb-{depth}", replace(BASE_WB, frontend_depth=depth)),
                 (f"ci-{depth}", replace(BASE, frontend_depth=depth)))))

POLICY_NAMES = ("ci", "ci-oracle-mbs", "ci-ideal-reconv", "ci-iw")

SWEEP_POLICIES = SweepSpec("abl-policies", tuple(
    (name, replace(BASE, ci_policy=name)) for name in POLICY_NAMES))


def abl_refinements(runner: Optional[ParallelRunner] = None) -> Figure:
    """Turn off each refinement beyond the paper's sketch, one at a time."""
    runner = runner or default_runner()
    result = run_sweep(runner, SWEEP_REFINEMENTS)
    rows = []
    data = {}
    for label in SWEEP_REFINEMENTS.labels():
        stats = result.suite(label)
        ipc = result.hmean_ipc(label)
        fails = sum(s.replica_validation_failures for s in stats.values())
        squash = sum(s.coherence_squashes for s in stats.values())
        data[label] = (ipc, fails, squash)
        rows.append([label, ipc, fails, squash])
    checks = [
        Check("recovery repair reduces validation churn",
              data["no-recovery-repair"][1] > data["full"][1],
              f"{data['full'][1]} vs {data['no-recovery-repair'][1]}"),
        Check("exact range check avoids false store conflicts",
              data["no-exact-range"][2] >= data["full"][2]),
        Check("conflict blacklist avoids repeated coherence squashes",
              data["no-conflict-blacklist"][2] >= data["full"][2],
              f"{data['full'][2]} vs {data['no-conflict-blacklist'][2]}"),
        Check("no single refinement carries the result "
              "(each off-variant keeps most of the IPC)",
              all(v[0] > data["full"][0] * 0.85 for v in data.values())),
    ]
    return Figure("Ablation A", "implementation refinements (ci, 512 regs)",
                  ["variant", "hmean IPC", "validation fails",
                   "coherence squashes"], rows, checks=checks)


def abl_mbs(runner: Optional[ParallelRunner] = None) -> Figure:
    """The MBS filter: without it, every misprediction arms the CRP."""
    runner = runner or default_runner()
    result = run_sweep(runner, SWEEP_MBS)
    rows = []
    for label in SWEEP_MBS.labels():
        stats = result.suite(label)
        events = sum(s.ci_events for s in stats.values())
        ipc = len(stats) / sum(1 / s.ipc for s in stats.values())
        rows.append([label, ipc, events,
                     sum(s.replicas_created for s in stats.values())])
    checks = [
        Check("disabling the filter examines at least as many events",
              rows[1][2] >= rows[0][2],
              f"{rows[0][2]} vs {rows[1][2]}"),
        Check("the filter costs little performance on hammock-heavy code "
              "(its job is trimming pointless work on easy branches)",
              abs(rows[0][1] - rows[1][1]) / rows[1][1] < 0.05),
    ]
    return Figure("Ablation B", "MBS hard-branch filter",
                  ["variant", "hmean IPC", "CI events", "replicas created"],
                  rows, checks=checks)


def abl_select_window(runner: Optional[ParallelRunner] = None) -> Figure:
    """How far past the re-convergent point selection scans."""
    runner = runner or default_runner()
    result = run_sweep(runner, SWEEP_SELECT_WINDOW)
    rows = []
    ipcs = {}
    for win in SELECT_WINDOWS:
        ipcs[win] = result.hmean_ipc(f"win{win}")
        stats = result.suite(f"win{win}")
        rows.append([win, ipcs[win],
                     sum(s.ci_selected for s in stats.values())])
    checks = [
        Check("a very short selection window loses performance",
              ipcs[8] <= ipcs[48] + 1e-9,
              f"8: {ipcs[8]:.3f} vs 48: {ipcs[48]:.3f}"),
        Check("returns diminish beyond the default window",
              abs(ipcs[128] - ipcs[48]) / ipcs[48] < 0.04),
    ]
    return Figure("Ablation C", "CI selection window (instructions past "
                  "re-convergence)",
                  ["window", "hmean IPC", "events w/ selection"], rows,
                  checks=checks)


def abl_headroom(runner: Optional[ParallelRunner] = None) -> Figure:
    """Low-priority register allocation for replicas, at a tight RF.

    The knob's job is throttling: with more headroom the mechanism backs
    off toward the baseline instead of competing with renaming.  (On our
    suite a greedy mechanism actually *wins* raw IPC at tight register
    files — see EXPERIMENTS.md deviation 1 — so headroom trades raw IPC
    for the paper's pressure behaviour.)"""
    runner = runner or default_runner()
    result = run_sweep(runner, SWEEP_HEADROOM)
    rows = []
    ipcs = {}
    replicas = {}
    for hr in HEADROOMS:
        ipcs[hr] = result.hmean_ipc(f"hr{hr}")
        stats = result.suite(f"hr{hr}")
        replicas[hr] = sum(s.replicas_created for s in stats.values())
        rows.append([hr, ipcs[hr], replicas[hr]])
    base192 = result.hmean_ipc("wb")
    rows.append(["(wb)", base192, 0])
    checks = [
        Check("more headroom throttles replica creation monotonically",
              replicas[0] >= replicas[16] >= replicas[64] >= replicas[128],
              " ".join(f"hr{h}={replicas[h]}" for h in (0, 16, 64, 128))),
        Check("with full headroom the mechanism converges to the baseline",
              abs(ipcs[128] - base192) / base192 < 0.05,
              f"hr128={ipcs[128]:.3f} wb={base192:.3f}"),
        Check("with the default headroom the mechanism never falls below "
              "~baseline",
              ipcs[64] >= base192 * 0.97,
              f"hr64={ipcs[64]:.3f} wb={base192:.3f}"),
    ]
    return Figure("Ablation D", "replica allocation headroom (192 regs)",
                  ["headroom", "hmean IPC", "replicas created"], rows,
                  checks=checks)


def abl_bpred(runner: Optional[ParallelRunner] = None) -> Figure:
    """Mechanism benefit as a function of branch-predictor quality."""
    runner = runner or default_runner()
    result = run_sweep(runner, SWEEP_BPRED)
    rows = []
    gains = {}
    for kind in BPRED_KINDS:
        base = result.suite(f"wb-{kind}")
        mech = result.suite(f"ci-{kind}")
        ipc_b = len(base) / sum(1 / s.ipc for s in base.values())
        ipc_m = len(mech) / sum(1 / s.ipc for s in mech.values())
        mr = (sum(s.mispredicts for s in base.values())
              / max(1, sum(s.cond_branches for s in base.values())))
        gains[kind] = ipc_m / ipc_b - 1
        rows.append([kind, f"{mr:.1%}", ipc_b, ipc_m, f"{gains[kind]:+.1%}"])
    checks = [
        Check("the mechanism helps under every predictor",
              all(g > 0.05 for g in gains.values()),
              " ".join(f"{k}={g:+.1%}" for k, g in gains.items())),
        Check("the static predictor mispredicts most",
              float(rows[0][1].rstrip('%')) >=
              max(float(rows[1][1].rstrip('%')),
                  float(rows[2][1].rstrip('%'))) - 0.5,
              f"static={rows[0][1]}"),
    ]
    return Figure("Ablation E", "benefit vs branch predictor (512 regs)",
                  ["predictor", "base mispred", "wb IPC", "ci IPC", "gain"],
                  rows, checks=checks)


def abl_frontend(runner: Optional[ParallelRunner] = None) -> Figure:
    """Mechanism benefit as the front-end (refill) depth grows."""
    runner = runner or default_runner()
    result = run_sweep(runner, SWEEP_FRONTEND)
    rows = []
    gains = {}
    for depth in FRONTEND_DEPTHS:
        base = result.hmean_ipc(f"wb-{depth}")
        mech = result.hmean_ipc(f"ci-{depth}")
        gains[depth] = mech / base - 1
        rows.append([depth, base, mech, f"{gains[depth]:+.1%}"])
    checks = [
        Check("the mechanism helps at every front-end depth",
              all(g > 0.08 for g in gains.values()),
              " ".join(f"d{d}={g:+.1%}" for d, g in gains.items())),
        Check("relative gains shrink as refill dominates recovery cost "
              "(reuse removes re-execution and resolution wait, not "
              "refill — the same effect that limits ci-iw)",
              gains[10] <= gains[3] + 0.02),
    ]
    return Figure("Ablation F",
                  "benefit vs front-end depth (512 regs): reuse cannot "
                  "hide refill",
                  ["frontend depth", "wb IPC", "ci IPC", "gain"], rows,
                  checks=checks)


def abl_policies(runner: Optional[ParallelRunner] = None) -> Figure:
    """Oracle component swaps from the policy registry.

    Each variant replaces exactly one pipeline component of the paper's
    ``ci`` policy with its idealised form — an offline-profiled bias
    filter (``ci-oracle-mbs``) or exact post-dominator re-convergence
    (``ci-ideal-reconv``) — bounding how much a better MBS or a dynamic
    merge-point predictor (Pruett & Patt) could recover.
    """
    runner = runner or default_runner()
    from ..ci import get_policy
    result = run_sweep(runner, SWEEP_POLICIES)
    rows = []
    data = {}
    for name in POLICY_NAMES:
        get_policy(name)  # validates the name against the registry
        stats = result.suite(name)
        ipc = result.hmean_ipc(name)
        events = sum(s.ci_events for s in stats.values())
        reused = sum(s.ci_reused for s in stats.values())
        data[name] = (ipc, events, reused)
        rows.append([name, ipc, events, reused,
                     f"{reused / max(1, events):.1%}"])
    checks = [
        Check("oracle bias filtering changes which events are examined",
              data["ci-oracle-mbs"][1] != data["ci"][1]
              or data["ci-oracle-mbs"][0] != data["ci"][0],
              f"events {data['ci'][1]} vs {data['ci-oracle-mbs'][1]}"),
        Check("ideal re-convergence performs at least on par with the "
              "static heuristic",
              data["ci-ideal-reconv"][0] >= data["ci"][0] * 0.97,
              f"{data['ci'][0]:.3f} vs {data['ci-ideal-reconv'][0]:.3f}"),
        Check("full ci beats window-limited reuse (ci-iw)",
              data["ci"][0] >= data["ci-iw"][0]),
    ]
    return Figure("Ablation G", "policy registry: oracle component swaps "
                  "(512 regs)",
                  ["policy", "hmean IPC", "CI events", "reused",
                   "reuse rate"], rows, checks=checks)


ALL_ABLATIONS = {
    "refinements": abl_refinements,
    "mbs": abl_mbs,
    "select_window": abl_select_window,
    "headroom": abl_headroom,
    "bpred": abl_bpred,
    "frontend": abl_frontend,
    "policies": abl_policies,
}


def main() -> None:  # pragma: no cover
    runner = default_runner()
    for fn in ALL_ABLATIONS.values():
        print(fn(runner).render())
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
