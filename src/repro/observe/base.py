"""Observer protocol: delivery surface for the canonical event taxonomy.

An :class:`Observer` receives the two callback families of
:mod:`repro.observe.events` — one hook method per :class:`EventKind`
(:data:`~repro.observe.events.OBSERVER_HOOKS`):

* **pipeline events** from the timing core — one call per dynamic
  instruction per stage (fetch / dispatch / issue / writeback / commit /
  squash) plus one ``on_cycle_end`` per simulated cycle;
* **mechanism events** from the CI pipeline — MBS verdicts, CRP arm /
  reach / disarm, CI selection, SRSMT allocation, replica validation
  and store-coherence conflicts.

Observation is strictly read-only: an attached observer must never
perturb simulation state, so ``SimStats`` stay byte-identical with an
observer attached or detached (asserted in ``tests/test_runtime.py``).

Observers are subscribers of the core's event table
(``uarch/hooks.py`` ``bind_hooks``), listed after the mechanism: a hook
method an observer overrides is bound, one called per event, several
fanned out in list order.  Zero overhead when off: an event no observer
overrides binds to ``None`` and its call site costs one ``is not None``
test on a hoisted local, so the base :class:`Observer` costs the same
as no observer at all (``tests/test_hook_binding.py`` asserts that
every core event binds ``None`` under the base :class:`Observer`).

Worker transport: observers cannot cross a process boundary alive, so
each one serialises to a plain-data payload (:meth:`Observer.export`)
that ships back from pool workers and merges deterministically in job
order (:func:`merge_payloads`).
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence

from .events import OBSERVER_HOOKS


class Observer:
    """Base observer: every hook is a no-op; subclasses override a few.

    The base class doubles as the protocol definition — the event table
    binds only methods named in
    :data:`~repro.observe.events.OBSERVER_HOOKS` (one per event kind),
    which is asserted at import time below — and as the ``null``
    observer: it overrides nothing, so it subscribes to no event.
    """

    #: registry/payload key; subclasses override
    name = "null"

    # -- lifecycle -------------------------------------------------------
    def attach(self, core) -> None:
        """Called once before simulation starts; keep a core reference.

        The reference is non-owning (a ``weakref.proxy``): the core owns
        its subscribers, and an observer owning the core back would keep
        the finished run alive until the cyclic collector ran (DESIGN.md
        §9.6).  It is valid while the run's owner holds the core."""
        self.core = weakref.proxy(core)

    def finalize(self, stats) -> None:
        """Called once when the simulation ends (closes open accounting)."""

    # -- pipeline channel (uarch/core.py + uarch/frontend.py) ------------
    def on_fetch(self, inst, cycle: int) -> None:
        """``inst`` entered the fetch queue at ``cycle``."""

    def on_dispatch(self, inst, cycle: int) -> None:
        """``inst`` was renamed + functionally executed into the window."""

    def on_issue(self, inst, cycle: int, latency: int) -> None:
        """``inst`` was issued (``latency`` cycles to completion).

        Validated (replica-reuse) instructions issue through the commit
        fast path with the copy latency; check ``inst.validated``."""

    def on_writeback(self, inst, cycle: int) -> None:
        """``inst`` completed and woke its consumers."""

    def on_commit(self, inst, cycle: int) -> None:
        """``inst`` retired."""

    def on_squash(self, inst, cycle: int) -> None:
        """``inst`` was squashed by a recovery."""

    def on_recovery(self, pivot, n_squashed: int, is_branch: bool,
                    cycle: int) -> None:
        """The window was walked back to ``pivot`` at ``cycle``."""

    def on_cycle_end(self, core) -> None:
        """End of one simulated cycle (after all stages + hooks)."""

    # -- mechanism channel (ci/pipeline.py + components) -----------------
    def on_mbs_verdict(self, pc: int, hard: bool, mispredicted: bool,
                       cycle: int) -> None:
        """A conditional branch resolved; MBS classified it hard/easy."""

    def on_ci_event(self, event, pc: int, seq: int, cycle: int) -> None:
        """A hard mispredicted branch was examined (one ReuseEvent)."""

    def on_ci_untracked(self, pc: int, seq: int, cycle: int) -> None:
        """A hard misprediction could not be examined (NRBQ full)."""

    def on_crp_disarm(self, reason: str, cycle: int) -> None:
        """The CRP disarmed (``window-exhausted`` or ``never-reached``)."""

    def on_ci_selected(self, event, pc: int, cycle: int) -> None:
        """First control-independent instruction selected for ``event``."""

    def on_slice_marked(self, event, load_pc: int, ok: bool,
                        cycle: int) -> None:
        """A strided load in a CI backward slice was marked (S flag)."""

    def on_replicas_created(self, pc: int, nregs: int, event,
                            cycle: int) -> None:
        """An SRSMT entry with ``nregs`` replicas was allocated."""

    def on_srsmt_alloc_fail(self, pc: int, event, reason: str,
                            cycle: int) -> None:
        """Vectorization failed (``no-regs`` or ``no-srsmt-way``)."""

    def on_validation(self, pc: int, event, ok: bool, reason: str,
                      cycle: int) -> None:
        """A replica validation succeeded (``ok``) or failed (why)."""

    def on_coherence_conflict(self, pc: int, addr: int, cycle: int) -> None:
        """A committing store hit a replica range; the entry died."""

    def on_fault_injected(self, kind: str, detail: str, cycle: int) -> None:
        """A fault-injection harness perturbed the run (``repro.faults``)."""

    # -- worker transport ------------------------------------------------
    def export_data(self) -> dict:
        """Plain-data (JSON-able) form of everything observed."""
        return {}

    @classmethod
    def merge_data(cls, datas: Sequence[dict]) -> dict:
        """Deterministically merge ``export_data`` payloads (job order)."""
        return datas[0] if datas else {}

    def export(self) -> Dict[str, dict]:
        """Payload keyed by observer name (shippable across processes)."""
        return {self.name: self.export_data()}

    def render(self) -> str:
        """Human-readable report (used by ``repro run --observe``)."""
        return ""


for _m in tuple(OBSERVER_HOOKS.values()) + ("attach", "finalize"):
    assert callable(getattr(Observer, _m)), \
        f"taxonomy hook {_m!r} missing from Observer"


def render_all(observers: Sequence[Observer]) -> str:
    """The non-empty reports of ``observers``, blank-line separated."""
    return "\n\n".join(r for r in (o.render() for o in observers) if r)


# ---------------------------------------------------------------------------
# Registry + factory (used by --observe / REPRO_OBSERVE and pool workers).
# ---------------------------------------------------------------------------

def _registry() -> dict:
    from .audit import AuditTrail
    from .cpistack import CPIStack
    from .pipetrace import PipeTracer
    return {
        "cpi": CPIStack,
        "audit": AuditTrail,
        "trace": PipeTracer,
        "null": Observer,
    }


def observer_names() -> List[str]:
    return sorted(_registry())


def make_observer(spec: Optional[str]) -> List[Observer]:
    """Build the observers a spec like ``"cpi"`` or ``"cpi,audit"`` names.

    ``None`` / ``""`` / ``"0"`` / ``"off"`` mean "no observation" and
    give an empty list, so callers can pass the spec straight through
    from ``REPRO_OBSERVE``.  The list subscribes in spec order.
    """
    if not spec or spec.strip().lower() in ("0", "off", "none"):
        return []
    registry = _registry()
    observers: List[Observer] = []
    for part in spec.split(","):
        key = part.strip().lower()
        if not key:
            continue
        try:
            observers.append(registry[key]())
        except KeyError:
            raise ValueError(
                f"unknown observer {key!r}; known: {observer_names()}"
            ) from None
    return observers


def merge_payloads(payloads: Sequence[Dict[str, dict]]) -> Dict[str, dict]:
    """Merge per-worker ``Observer.export`` payloads, deterministically.

    Payloads are merged in the order given (the runner submits jobs in a
    fixed order and collects results positionally, so the merged result
    is independent of worker scheduling).
    """
    registry = _registry()
    by_name: Dict[str, List[dict]] = {}
    for payload in payloads:
        for name, data in payload.items():
            by_name.setdefault(name, []).append(data)
    return {name: registry[name].merge_data(datas) if name in registry
            else (datas[0] if datas else {})
            for name, datas in by_name.items()}
