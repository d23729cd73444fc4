"""Fetch unit: 8-wide, at most one predicted-taken branch per cycle."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ..isa import Program
from ..isa.predecode import (
    CTRL_COND_BWD,
    CTRL_HALT,
    CTRL_JUMP,
    CTRL_SEQ,
    predecode,
)
from .bpred import Gshare
from .config import ProcessorConfig
from .rob import DynInst


class FetchUnit:
    """Fetches down the *predicted* path into a fetch queue.

    Entries carry a ``ready_at`` cycle modelling the decode/rename depth;
    dispatch consumes them once ready.  A misprediction recovery flushes
    the queue and redirects the PC (effective the following cycle).
    """

    def __init__(self, cfg: ProcessorConfig, program: Program, bpred: Gshare):
        self.cfg = cfg
        self.program = program
        #: shared decode-once image (fetch reads control class + target)
        self.image = predecode(program)
        self.bpred = bpred
        # Hoisted config scalars (read every fetch cycle).
        self._fetch_width = cfg.fetch_width
        self._queue_size = cfg.fetch_queue_size
        self._depth = cfg.frontend_depth
        self._max_taken = cfg.max_taken_per_fetch
        self.pc = 0
        self.queue: Deque[Tuple[int, DynInst]] = deque()  # (ready_at, inst)
        self.stalled = False      # ran past code / fetched HALT
        self._redirect_at: Optional[int] = None
        self._redirect_pc: int = 0
        self.next_seq = 0
        #: pipeline observer (set via :meth:`set_observer`; ``None`` when
        #: not observing)
        self.observer: Optional[object] = None

    def set_observer(self, observer) -> None:
        """Install the (already normalised) pipeline observer.

        The core calls this once during construction with its
        ``active_observer`` — ``None`` means "not observing" and keeps
        the fetch loop on the no-event fast path.
        """
        self.observer = observer

    def redirect(self, pc: int, cycle: int) -> None:
        """Squash the queue and restart fetching at ``pc`` next cycle."""
        obs = self.observer
        if obs is not None:
            # Wrong-path instructions still in the fetch queue vanish
            # here without touching core stats; the trace records them
            # as squashed at the redirect cycle.
            for _, di in self.queue:
                obs.on_squash(di, cycle)
        self.queue.clear()
        self._redirect_at = cycle + 1
        self._redirect_pc = pc
        self.stalled = True

    def fetch_cycle(self, cycle: int) -> int:
        """Fetch up to ``fetch_width`` instructions; returns the count."""
        if self._redirect_at is not None:
            if cycle < self._redirect_at:
                return 0
            self.pc = self._redirect_pc
            self._redirect_at = None
            self.stalled = False
        if self.stalled:
            return 0
        image = self.image
        code = self.program.code
        ctrl_a = image.ctrl
        target_a = image.target
        ncode = image.n
        queue = self.queue
        queue_append = queue.append
        bpred = self.bpred
        obs = self.observer
        pc = self.pc
        seq = self.next_seq
        fetched = 0
        taken_seen = 0
        limit = min(self._fetch_width, self._queue_size - len(queue))
        ready_at = cycle + self._depth
        while fetched < limit:
            if not 0 <= pc < ncode:
                self.stalled = True
                break
            di = DynInst(seq, code[pc])
            seq += 1
            next_pc = pc + 1
            ctrl = ctrl_a[pc]
            if ctrl != CTRL_SEQ:
                if ctrl <= CTRL_COND_BWD:     # conditional branch
                    di.bp_history = bpred.checkpoint()
                    di.pred_taken = bpred.predict(
                        pc, backward=ctrl == CTRL_COND_BWD)
                    bpred.speculate(di.pred_taken)
                    if di.pred_taken:
                        next_pc = target_a[pc]
                        taken_seen += 1
                elif ctrl == CTRL_JUMP:
                    next_pc = target_a[pc]
                    taken_seen += 1
            queue_append((ready_at, di))
            if obs is not None:
                obs.on_fetch(di, cycle)
            fetched += 1
            pc = next_pc
            if ctrl == CTRL_HALT:
                self.stalled = True
                break
            if taken_seen >= self._max_taken:
                break
        self.pc = pc
        self.next_seq = seq
        return fetched

    @property
    def empty(self) -> bool:
        return not self.queue and self.stalled and self._redirect_at is None
