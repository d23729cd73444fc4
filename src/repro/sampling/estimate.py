"""Stitch per-interval measurements into whole-run estimates.

Each interval contributes the *delta* of the core's counters over its
measured window (warmup cycles excluded).  The estimator extrapolates
every additive counter by the interval's represented-instruction weight
``rep_i / committed_i`` and sums across intervals; ``committed`` itself
is set to the program's exact dynamic length (known, not estimated).
Peak-style fields take the max.

Uncertainty: the per-interval CPI series gives a standard error of the
mean; ``sample_rel_ci`` carries the 95% relative half-width so tables
and the serve layer can report ``ipc ~2.95 (+-1.2%)``.  Estimates are
flagged ``sampled=True`` — provenance that survives SimStats round
trips, cache envelopes and serve responses, and that makes derived IPC
render with a ``~`` marker (:class:`repro.uarch.stats.SampledFloat`).
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import Dict, List, Optional, Sequence

from ..uarch.stats import SimStats
from .plan import SamplingError, SamplingPlan

#: fields that are not additive counters: plan bookkeeping, provenance,
#: the IPC-timeline knobs (an estimate has no contiguous timeline) and
#: the capacity proofs (an estimate proves nothing)
_NON_ADDITIVE = {"interval_cycles", "interval_committed",
                 "sampled", "sample_intervals", "sample_rel_ci",
                 "regs_slack", "spec_mem_slack"}

#: fields combined by max, not extrapolated sums
_PEAK = {"regs_in_use_peak"}


def delta_stats(after: SimStats, before: Dict[str, object]) -> SimStats:
    """Counters accumulated since the ``to_dict`` snapshot ``before``."""
    out = SimStats()
    for f in fields(SimStats):
        name = f.name
        if name in _NON_ADDITIVE:
            continue
        value = getattr(after, name)
        if name in _PEAK:
            setattr(out, name, value)
        else:
            setattr(out, name, value - before[name])
    return out


def combine(plan: SamplingPlan, intervals: Sequence[SimStats]) -> SimStats:
    """One whole-run estimate from the plan's interval measurements."""
    if len(intervals) != plan.k:
        raise SamplingError(
            f"plan has {plan.k} intervals but {len(intervals)} "
            f"measurements were supplied")
    reps = plan.weights
    sums: Dict[str, float] = {}
    peaks: Dict[str, int] = {}
    cpis: List[float] = []
    for st, rep in zip(intervals, reps):
        measured = st.committed
        if measured <= 0:
            raise SamplingError(
                "an interval measured zero committed instructions — the "
                "plan does not fit this program")
        weight = rep / measured
        cpis.append(st.cycles / measured)
        for f in fields(SimStats):
            name = f.name
            if name in _NON_ADDITIVE:
                continue
            value = getattr(st, name)
            if name in _PEAK:
                if value > peaks.get(name, 0):
                    peaks[name] = value
            else:
                sums[name] = sums.get(name, 0.0) + value * weight
    est = SimStats()
    for name, value in sums.items():
        setattr(est, name, int(round(value)))
    for name, value in peaks.items():
        setattr(est, name, value)
    # The dynamic length is exact knowledge (the fast-forward walked
    # every instruction); only the rates are estimated.
    est.committed = plan.total
    est.cycles = max(1, est.cycles)
    est.sampled = True
    est.sample_intervals = len(intervals)
    # Finite-population correction: a dense plan that measured (nearly)
    # the whole run has (nearly) no sampling uncertainty even though its
    # phases' CPIs differ wildly — the between-phase spread is real
    # behaviour the weighted sum accounts for exactly, not noise.
    measured = sum(iv.measure for iv in plan.intervals)
    fpc = math.sqrt(max(0.0, 1.0 - measured / plan.total))
    est.sample_rel_ci = relative_ci(cpis, reps) * fpc
    return est


def relative_ci(cpis: Sequence[float],
                weights: Optional[Sequence[int]] = None) -> float:
    """95% relative half-width of a (weighted) CPI-series mean.

    Unweighted, this is the plain SMARTS interval-variance CI.  With
    weights (phase-clustered plans, where each interval stands for a
    different share of the run) the variance is weight-weighted and the
    sample size replaced by the Kish effective size — a deliberately
    conservative bound, since between-cluster spread also contains true
    phase differences the estimator accounts for exactly.  0 if k<2.
    """
    k = len(cpis)
    if k < 2:
        return 0.0
    if weights is None:
        fracs = [1.0 / k] * k
    else:
        wsum = float(sum(weights)) or 1.0
        fracs = [w / wsum for w in weights]
    mean = sum(f * c for f, c in zip(fracs, cpis))
    if mean <= 0:
        return 0.0
    var = sum(f * (c - mean) ** 2 for f, c in zip(fracs, cpis))
    n_eff = 1.0 / sum(f * f for f in fracs)
    if n_eff <= 1.0:
        return 0.0
    half = 1.96 * math.sqrt(var / (n_eff - 1.0))
    return half / mean
