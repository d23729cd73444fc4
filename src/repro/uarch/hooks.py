"""The typed mechanism hook surface and the core's event table.

:class:`MechanismHooks` is the explicit contract the timing core
programs against: every attachment point the core will ever call, with
its exact signature, in one place.  The base class is a no-op, so a bare
:class:`~repro.uarch.core.Core` is a plain superscalar; the CI
mechanism's :class:`~repro.ci.pipeline.MechanismPipeline` subclasses it
and delegates each hook to its policy-selected components.

Everything that listens to the core is a *subscriber*: a fault
injector, the mechanism and any number of observers, in that order.
The core resolves every event once, at construction (:func:`bind_hooks`):
an event no subscriber overrides is bound as ``None``, so it costs the
core one ``is not None`` test (DESIGN.md §9.9).
"""

from __future__ import annotations

import weakref
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence)

from ..observe.base import Observer
from ..observe.events import OBSERVER_HOOKS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import Core, PortState
    from .rob import DynInst


class MechanismHooks:
    """Mechanism attachment points; the base class is a no-op superscalar.

    Call sites (all in ``uarch/core.py``, in pipeline-stage order):

    ========================  ================================================
    hook                      called from
    ========================  ================================================
    ``attach``                ``Core.__init__`` (before the hooks bind)
    ``dispatch_gate``         ``Core._dispatch`` (before any slot is used)
    ``on_dispatch``           ``Core._dispatch`` (after rename + execution)
    ``on_branch_resolved``    ``Core._writeback`` (before recovery)
    ``on_recovery``           ``Core._recover`` (after the window walk-back)
    ``on_commit``             ``Core._commit`` (as the instruction retires)
    ``on_store_commit``       ``Core._commit`` (committing store, pre-hazard)
    ``on_cycle``              ``Core.run`` (end of cycle, leftover slots)
    ``validated_extra_latency``  ``Core._dispatch`` (validated fast path)
    ========================  ================================================
    """

    #: Non-owning core reference (a ``weakref.proxy``), set by
    #: :meth:`attach`.
    core: "Core"

    #: Whether the mechanism holds replicated (pre-executed) state that
    #: committing stores must be checked against.  The core reads this to
    #: decide whether store commit pays the coherence-check tax
    #: (Section 2.4.3); mechanisms with a replica manager set it True.
    has_replicas: bool = False

    def attach(self, core: "Core") -> None:
        """Called once from ``Core.__init__``; keep a core reference.

        The reference is non-owning: the core owns its subscribers, so a
        subscriber holding it back would put the whole core in a
        reference cycle (DESIGN.md §9.6).  It is valid while the run's
        owner holds the core; past that it raises ``ReferenceError``."""
        self.core = weakref.proxy(core)

    def on_dispatch(self, inst: "DynInst") -> None:
        """Called after functional execution + renaming of ``inst``.

        May set ``inst.validated`` (and ``inst.done_cycle``) to make the
        core skip execution entirely (replica reuse)."""

    def on_branch_resolved(self, inst: "DynInst") -> None:
        """Called when a conditional branch executes (before recovery)."""

    def on_recovery(self, pivot: "DynInst", squashed: List["DynInst"],
                    is_branch: bool) -> None:
        """Called after the window was walked back to ``pivot``."""

    def on_commit(self, inst: "DynInst") -> None:
        """Called as ``inst`` retires."""

    def on_store_commit(self, inst: "DynInst") -> bool:
        """Return True if the store conflicts with speculative data
        (Section 2.4.3) and younger instructions must be squashed."""
        return False

    def on_cycle(self, leftover_issue_slots: int, ports: "PortState") -> None:
        """End-of-cycle hook: replica issue uses leftover resources."""

    def dispatch_gate(self) -> bool:
        """Return False to block dispatch this cycle (e.g. an in-pipeline
        vector instruction waiting for registers, as in [12])."""
        return True

    def next_event_cycle(self) -> "int | None":
        """Skip-ahead contract (``Core.run`` idle-cycle skip, DESIGN §9).

        Called when every core stage is provably stalled.  Return:

        * ``None`` — the mechanism is quiescent: it is guaranteed to do
          no observable per-cycle work until some core event (dispatch,
          writeback, recovery) re-activates it;
        * a future cycle number — the mechanism's next scheduled event
          (e.g. an in-flight replica completion); the core will not skip
          past it;
        * any value ``<=`` the current cycle — veto: the mechanism has
          (or may have) per-cycle work pending, tick normally.

        The no-op base mechanism never has per-cycle work.
        """
        return None

    def validated_extra_latency(self, inst: "DynInst") -> int:
        """Extra cycles before a validated instruction's value is usable
        (the speculative-data-memory copy path)."""
        return 0


#: The per-event hooks, in the order of the table above (``attach`` is
#: called once and is not an event).
HOOK_NAMES = ("dispatch_gate", "on_dispatch", "on_branch_resolved",
              "on_recovery", "on_commit", "on_store_commit", "on_cycle",
              "next_event_cycle", "validated_extra_latency")

#: The two event families of the table: subscriber base class -> {table
#: key: hook method}.  Mechanism events are keyed by hook name, observer
#: events by :class:`~repro.observe.events.EventKind` (three hook names,
#: ``on_dispatch``, ``on_commit`` and ``on_recovery``, exist in both).
FAMILIES: Dict[type, Dict[Any, str]] = {
    MechanismHooks: {name: name for name in HOOK_NAMES},
    Observer: OBSERVER_HOOKS,
}


#: Hooks whose answer the core uses; only ``next_event_cycle`` may have
#: several subscribers (skip-ahead stops at the earliest event), the
#: others belong to the one mechanism.
_ANSWERED = ("dispatch_gate", "on_store_commit", "validated_extra_latency")


def _fan_out(name: str, fns: List[Callable]) -> Callable:
    if name in _ANSWERED:
        raise TypeError(f"{name} has {len(fns)} subscribers; at most one "
                        f"may override it")
    if name == "next_event_cycle":
        def fan():
            return min((c for c in (fn() for fn in fns) if c is not None),
                       default=None)
    else:
        def fan(*args):
            for fn in fns:
                fn(*args)
    fan.__name__ = name
    return fan


def flatten(*parts) -> List[object]:
    """One ordered subscriber list from ``parts``: each ``None``, one
    subscriber, or a list or tuple of them."""
    out: List[object] = []
    for part in parts:
        if isinstance(part, (list, tuple)):
            out.extend(part)
        elif part is not None:
            out.append(part)
    return out


def bind_hooks(subscribers: Sequence[object],
               base: type = MechanismHooks) -> Dict[Any, Optional[Callable]]:
    """Bind the ``base`` family of events over ordered ``subscribers``.

    Each event of :data:`FAMILIES` ``[base]`` maps to ``None`` when no
    ``base`` instance among ``subscribers`` overrides its hook, to the
    one override directly, or to a fan-out calling every override in
    list order (``next_event_cycle`` keeps the earliest non-``None``
    answer; the other hooks with an answer allow one override only).
    An instance attribute counts as an override like a subclass method
    does, so the core binds a family *after* its subscribers attach:
    ``MechanismPipeline`` installs its flattened ``on_dispatch`` there, a
    tracing wrapper its timed hooks.
    A ``None`` mechanism entry stands for the base default:
    ``dispatch_gate`` True, ``on_store_commit`` False,
    ``next_event_cycle`` None, ``validated_extra_latency`` 0.
    """
    members = [s for s in subscribers if isinstance(s, base)]
    table: Dict[Any, Optional[Callable]] = {}
    for key, name in FAMILIES[base].items():
        default = getattr(base, name)
        fns = [fn for fn in (getattr(s, name) for s in members)
               if getattr(fn, "__func__", None) is not default]
        table[key] = (None if not fns else fns[0] if len(fns) == 1
                      else _fan_out(name, fns))
    return table
