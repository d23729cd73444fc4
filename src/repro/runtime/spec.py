"""The canonical run vocabulary: :class:`RunSpec`.

One frozen value names one logical simulation: *what* to run (kernel,
scale, seed), *how* the machine is shaped (config + optional policy
override), and the optional perturbation/observation riders (a fault
plan spec, an observer spec).  Every layer speaks it:

* the local pool (:mod:`repro.runtime.parallel` executes specs directly),
* the disk cache (envelopes record ``spec.to_dict()`` for provenance),
* the serve protocol (a wire job is ``spec.to_dict()`` without
  ``observe`` — :func:`repro.serve.protocol.parse_job`),
* experiment sweeps (:mod:`repro.experiments.sweeps` expands declarative
  matrices into lists of specs),
* fault campaigns (the plan rides on the spec instead of a side channel).

Identity is owned by :mod:`repro.runtime.keys`: :meth:`RunSpec.cache_key`
is THE content-addressed name of a run, identical whether computed by
the local runner, the serve coalescing index, or a spec that has been
through JSON (``tests/golden/run_keys.json`` pins this byte-for-byte).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

from ..uarch import ProcessorConfig
from ..uarch.config import config_from_dict, config_to_dict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.plan import FaultPlan
    from ..isa import Program

#: every serialised-spec key, in serialisation order
SPEC_FIELDS = ("kernel", "scale", "seed", "cfg", "policy", "faults",
               "observe", "sampling")


@dataclass(frozen=True)
class RunSpec:
    """One logical simulation run, as a frozen value.

    Construction never validates (a client must be able to name a
    kernel its server knows and it does not); :meth:`validate` performs
    the full check — unknown kernel/policy with did-you-mean hints,
    malformed fault plan — in one place for every layer.
    """

    kernel: str
    scale: float = 0.5
    seed: int = 1
    cfg: ProcessorConfig = field(default_factory=ProcessorConfig)
    #: registry policy name overriding ``cfg.ci_policy`` (kept separate
    #: so sweeps can vary policy without forging configs)
    policy: Optional[str] = None
    #: fault-plan spec string (``"squash@400"``, ``"valfail*3,seed=7"``);
    #: part of the run's identity — perturbed results never collide with
    #: clean ones
    faults: Optional[str] = None
    #: observer spec, a comma list of ``cpi``, ``audit``, ``trace`` and
    #: ``null`` (:func:`repro.observe.observer_names`); watches a
    #: run without changing it, so it is excluded from the cache key —
    #: but observed runs bypass cache *reads* so the observer really runs
    observe: Optional[str] = None
    #: sampling spec string (``"auto"``, ``"k=8,w=250,m=400"``) — opt-in
    #: statistical sampling (repro.sampling): the run is *estimated* from
    #: detailed intervals reached by functional fast-forward.  Part of
    #: the run's identity (estimates never collide with exact results).
    sampling: Optional[str] = None

    # -- resolution ---------------------------------------------------------

    def resolved_cfg(self) -> ProcessorConfig:
        """The effective configuration (with any policy override)."""
        if self.policy is None:
            return self.cfg
        return replace(self.cfg, ci_policy=self.policy)

    def program(self) -> "Program":
        """Build (memoised, predecoded) the program this spec names."""
        from . import keys
        return keys.cached_program(self.kernel, self.scale, self.seed)

    def fault_plan(self) -> Optional["FaultPlan"]:
        """Parse the fault rider into a plan (``None`` when absent)."""
        if not self.faults:
            return None
        from ..faults.plan import FaultPlan
        return FaultPlan.parse(self.faults)

    def validate(self) -> "RunSpec":
        """Check every resolvable field; returns ``self`` for chaining.

        Raises :class:`~repro.workloads.UnknownWorkloadError` for an
        unregistered kernel and :class:`ValueError` for an unknown
        policy or a malformed fault plan — each message carries
        did-you-mean hints where the registries provide them.
        """
        from ..workloads import get_workload
        get_workload(self.kernel)
        self.resolved_cfg()
        self.fault_plan()
        if self.sampling:
            from ..sampling.plan import SamplingSpec
            SamplingSpec.parse(self.sampling)
            if self.faults:
                raise ValueError("sampling does not compose with fault "
                                 "injection: a fault plan perturbs timing "
                                 "at absolute cycles, which a stitched "
                                 "estimate cannot represent")
            if self.observe:
                raise ValueError("sampling does not compose with "
                                 "observers: a stitched estimate has no "
                                 "contiguous cycle stream to observe")
        return self

    # -- identity -----------------------------------------------------------

    def cache_key(self) -> str:
        """THE content-addressed identity of this run.

        Derived once, in :func:`repro.runtime.keys.run_key`; the local
        pool's memo/disk lookups and the serve coalescing index both
        call through here, so they cannot disagree.
        """
        from . import keys
        return keys.run_key(self)

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical dict form (all fields always present)."""
        return {"kernel": self.kernel, "scale": self.scale,
                "seed": self.seed, "cfg": config_to_dict(self.cfg),
                "policy": self.policy, "faults": self.faults,
                "observe": self.observe, "sampling": self.sampling}

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output (strict)."""
        if not isinstance(data, dict):
            raise ValueError(f"run spec must be a dict, got "
                             f"{type(data).__name__}")
        unknown = set(data) - set(SPEC_FIELDS)
        if unknown:
            raise ValueError(f"run spec has unknown fields: "
                             f"{sorted(unknown)}")
        kernel = data.get("kernel")
        if not isinstance(kernel, str) or not kernel:
            raise ValueError("run spec needs a 'kernel' name")
        for key in ("policy", "faults", "observe", "sampling"):
            value = data.get(key)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"run spec {key!r} must be a string "
                                 f"or null")
        try:
            scale = float(data.get("scale", 0.5))
            seed = int(data.get("seed", 1))
        except (TypeError, ValueError):
            raise ValueError("run spec 'scale'/'seed' must be numeric") \
                from None
        cfg = config_from_dict(data.get("cfg") or {})
        return cls(kernel=kernel, scale=scale, seed=seed, cfg=cfg,
                   policy=data.get("policy"), faults=data.get("faults"),
                   observe=data.get("observe"),
                   sampling=data.get("sampling"))

    def to_json(self) -> str:
        """Canonical JSON form (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"run spec is not valid JSON: {exc}") \
                from None
        return cls.from_dict(data)

    def describe(self) -> str:
        """One-line human label used by failure reports and logs."""
        parts = [f"{self.kernel} scale={self.scale} seed={self.seed}"]
        if self.policy:
            parts.append(f"policy={self.policy}")
        if self.faults:
            parts.append(f"faults={self.faults}")
        if self.observe:
            parts.append(f"observe={self.observe}")
        if self.sampling:
            parts.append(f"sampling={self.sampling}")
        return " ".join(parts)
