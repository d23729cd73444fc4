"""The policy registry — mechanism policies as data.

A policy is a :class:`PolicySpec`: a named assembly of the pipeline's
components (filter, tracker, selector, replica manager, squash-reuse).
The built-in entries reproduce the paper's three schemes and add the
ablations that fall out of the component split for free:

========================  =================================================
policy                    assembly
========================  =================================================
``ci``                    MBS + static re-convergence + CI-masked
                          selection + low-priority replicas (the paper)
``ci-iw``                 MBS + static re-convergence + squash reuse
                          (window-limited control independence, Figure 10)
``vect``                  greedy selection + in-pipeline vector replicas,
                          no CI filtering (the full-vectorization
                          comparator [12], Figure 14)
``ci-oracle-mbs``         ``ci`` with an offline-profiled oracle bias
                          filter instead of the finite MBS
``ci-ideal-reconv``       ``ci`` with exact post-dominator re-convergence
                          instead of the static heuristic
========================  =================================================

New policies register with :func:`register_policy`; the CLI resolves
``--policy`` names here (``repro list`` lists the table), and the
process-pool runtime ships the policy *name* across workers — specs are
resolved locally on each side, so custom components stay picklable-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..suggest import unknown_name_message

from .filters import (
    AlwaysHardFilter,
    HardBranchFilter,
    MBSFilter,
    NeverHardFilter,
    OracleBiasFilter,
)
from .replicas import ReplicaManager
from .selection import GreedySliceSelector, SliceSelector
from .squash_reuse import SquashReuseUnit
from .tracking import IdealReconvergenceTracker, ReconvergenceTracker


@dataclass(frozen=True)
class PolicySpec:
    """One named assembly of mechanism components.

    Component fields name factories in the tables below; ``None`` means
    the policy does not install that component (and the pipeline's
    corresponding hooks become no-ops).
    """

    name: str
    description: str
    filter: str = "mbs"
    tracker: Optional[str] = "static"
    selector: Optional[str] = "ci"
    replicas: Optional[str] = "ci"
    squash_reuse: bool = False


FILTERS: Dict[str, Callable[[], HardBranchFilter]] = {
    "mbs": MBSFilter,
    "oracle": OracleBiasFilter,
    "always": AlwaysHardFilter,
    "never": NeverHardFilter,
}

TRACKERS: Dict[str, Callable[[], ReconvergenceTracker]] = {
    "static": ReconvergenceTracker,
    "ideal": IdealReconvergenceTracker,
}

SELECTORS: Dict[str, Callable[[], SliceSelector]] = {
    "ci": SliceSelector,
    "greedy": GreedySliceSelector,
}

MANAGERS: Dict[str, Callable[[], ReplicaManager]] = {
    "ci": lambda: ReplicaManager(greedy=False),
    "vect": lambda: ReplicaManager(greedy=True),
}

_REGISTRY: Dict[str, PolicySpec] = {}


def register_policy(spec: PolicySpec) -> PolicySpec:
    """Register ``spec`` (validating its component names); returns it."""
    if spec.filter not in FILTERS:
        raise ValueError(f"policy {spec.name!r}: unknown filter "
                         f"{spec.filter!r}; known: {sorted(FILTERS)}")
    if spec.tracker is not None and spec.tracker not in TRACKERS:
        raise ValueError(f"policy {spec.name!r}: unknown tracker "
                         f"{spec.tracker!r}; known: {sorted(TRACKERS)}")
    if spec.selector is not None and spec.selector not in SELECTORS:
        raise ValueError(f"policy {spec.name!r}: unknown selector "
                         f"{spec.selector!r}; known: {sorted(SELECTORS)}")
    if spec.replicas is not None and spec.replicas not in MANAGERS:
        raise ValueError(f"policy {spec.name!r}: unknown replica manager "
                         f"{spec.replicas!r}; known: {sorted(MANAGERS)}")
    if spec.replicas is not None and spec.selector is None:
        raise ValueError(f"policy {spec.name!r}: a replica manager needs "
                         "a selector (it owns the stride predictor)")
    _REGISTRY[spec.name] = spec
    return spec


def get_policy(name: str) -> PolicySpec:
    """Resolve a policy name, with close-match suggestions on failure."""
    spec = _REGISTRY.get(name)
    if spec is not None:
        return spec
    raise ValueError(unknown_name_message("policy", name, policy_names()))


def policy_names() -> List[str]:
    return sorted(_REGISTRY)


def all_policies() -> List[PolicySpec]:
    return [_REGISTRY[n] for n in policy_names()]


def build_components(spec: PolicySpec, cfg) -> dict:
    """Instantiate (but do not attach) one pipeline's components.

    ``cfg.ci_mbs_filter=False`` substitutes the no-filtering variant for
    the MBS, preserving the pre-registry meaning of that ablation flag
    ("treat every branch as hard").
    """
    filter_key = spec.filter
    if filter_key == "mbs" and not cfg.ci_mbs_filter:
        filter_key = "always"
    return {
        "filter": FILTERS[filter_key](),
        "tracker": TRACKERS[spec.tracker]() if spec.tracker else None,
        "selector": SELECTORS[spec.selector]() if spec.selector else None,
        "replicas": MANAGERS[spec.replicas]() if spec.replicas else None,
        "squash_reuse": SquashReuseUnit() if spec.squash_reuse else None,
    }


# ---------------------------------------------------------------------------
# Built-in policies.
# ---------------------------------------------------------------------------

register_policy(PolicySpec(
    name="ci",
    description="the paper's scheme: MBS-filtered CI reuse via dynamic "
                "vectorization (steps 1-4 of Section 2.3)"))

register_policy(PolicySpec(
    name="ci-iw",
    description="squash reuse: control independence only for results "
                "already in the window at recovery (Figure 10)",
    selector=None, replicas=None, squash_reuse=True))

register_policy(PolicySpec(
    name="vect",
    description="full dynamic vectorization [12]: every confident strided "
                "load vectorizes, no CI filtering (Figure 14)",
    tracker=None, selector="greedy", replicas="vect"))

register_policy(PolicySpec(
    name="ci-oracle-mbs",
    description="ablation: ci with an offline-profiled oracle bias filter "
                "instead of the finite, late-training MBS",
    filter="oracle"))

register_policy(PolicySpec(
    name="ci-ideal-reconv",
    description="ablation: ci with exact immediate-post-dominator "
                "re-convergence instead of the static heuristic",
    tracker="ideal"))
