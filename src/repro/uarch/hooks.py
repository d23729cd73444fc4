"""The typed mechanism hook surface between the core and a mechanism.

:class:`MechanismHooks` is the explicit contract the timing core
programs against: every attachment point the core will ever call, with
its exact signature, in one place.  The base class is a no-op, so a bare
:class:`~repro.uarch.core.Core` is a plain superscalar; the CI
mechanism's :class:`~repro.ci.pipeline.MechanismPipeline` subclasses it
and delegates each hook to its policy-selected components.

The core resolves the per-event hooks once (:func:`bind_hooks`), right
after ``attach``: a hook still resolving to the no-op base is bound as
``None``, so an event no mechanism subscribes to costs the core one
``is not None`` test (DESIGN.md §9.9).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import Core, PortState
    from .rob import DynInst


class MechanismHooks:
    """Mechanism attachment points; the base class is a no-op superscalar.

    Call sites (all in ``uarch/core.py``, in pipeline-stage order):

    ========================  ================================================
    hook                      called from
    ========================  ================================================
    ``attach``                ``Core.__init__`` (after observer setup)
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

    #: Core reference, set by :meth:`attach`.
    core: "Core"

    #: Whether the mechanism holds replicated (pre-executed) state that
    #: committing stores must be checked against.  The core reads this to
    #: decide whether store commit pays the coherence-check tax
    #: (Section 2.4.3); mechanisms with a replica manager set it True.
    has_replicas: bool = False

    def attach(self, core: "Core") -> None:
        """Called once from ``Core.__init__``; keep the core reference."""
        self.core = core

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


def bind_hooks(hooks: MechanismHooks) -> Dict[str, Optional[Callable]]:
    """Resolve every per-event hook of an attached ``hooks`` once.

    Maps each name in :data:`HOOK_NAMES` to the callable the core should
    invoke, or to ``None`` where it is still the :class:`MechanismHooks`
    no-op.  Call it *after* ``attach``: mechanisms install handlers
    there as instance attributes (``MechanismPipeline``'s flattened
    ``on_dispatch``, a tracing wrapper's timed hooks), and those count
    as subscriptions like any subclass override.  A ``None`` entry
    stands for the base default: ``dispatch_gate`` True,
    ``on_store_commit`` False, ``next_event_cycle`` None,
    ``validated_extra_latency`` 0.
    """
    table: Dict[str, Optional[Callable]] = {}
    for name in HOOK_NAMES:
        fn = getattr(hooks, name)
        if getattr(fn, "__func__", None) is getattr(MechanismHooks, name):
            fn = None
        table[name] = fn
    return table
