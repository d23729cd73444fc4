"""The cycle-level out-of-order core.

Execution model (DESIGN.md §5): instructions execute *functionally* at
dispatch — including down mispredicted paths, against a speculative
register file and memory image with per-instruction undo records — while
the timing model decides when results become available.  This mirrors
SimpleScalar's sim-outorder structure and gives real wrong-path fetch,
which the control-independence mechanism's mask construction needs.

Stage order within a cycle (reverse pipeline order, standard):
commit → writeback → issue → dispatch → fetch → mechanism hooks.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from typing import Deque, Dict, List, Optional

from ..isa import MASK64, NUM_LOGICAL_REGS, Program
from ..isa.instructions import K_ALU, K_BRANCH, K_JUMP, K_LOAD, K_STORE
from ..isa.predecode import (
    F_COND_BRANCH,
    F_HALT,
    F_LOAD,
    F_MEM,
    F_STORE,
    F_WRITES_REG,
    predecode,
)
from ..observe.base import Observer
from ..observe.events import EventKind
from .bpred import make_predictor
from .caches import MemoryHierarchy
from .config import ProcessorConfig
from .frontend import FetchUnit
from .funits import FUPool
from .hooks import MechanismHooks, bind_hooks, flatten
from .rename import FreeList
from .rob import DynInst, MEM_ABSENT
from .stats import SimStats


class SimulationError(RuntimeError):
    """Raised when the simulation cannot make progress."""


class PortState:
    """Per-cycle L1 data-cache port arbitration, including wide buses.

    One instance lives for the whole simulation.  ``Core.run`` restores
    its budget each cycle (``ports_left``, ``open_lines``); core loads
    (``Core._issue``) and replica loads (``ReplicaScheduler.issue``)
    account inline, and the store commit path calls :meth:`try_store`,
    against the same counters.
    """

    def __init__(self, cfg: ProcessorConfig, stats: SimStats,
                 hierarchy: MemoryHierarchy):
        self.cfg = cfg
        self.stats = stats
        self.hierarchy = hierarchy
        self.ports_left = cfg.l1d_ports
        #: wide bus: loads still free on each line opened this cycle
        self.open_lines: Dict[int, int] = {}

    def try_store(self) -> bool:
        if self.ports_left <= 0:
            return False
        self.ports_left -= 1
        self.stats.l1d_accesses += 1
        self.stats.l1d_store_accesses += 1
        return True


def _skip_ahead_default() -> bool:
    """Idle-cycle skip-ahead is on unless ``REPRO_SKIP=0`` disables it."""
    return os.environ.get("REPRO_SKIP", "1").lower() not in ("0", "off", "no")


class Core:
    """One simulated processor running one program.

    ``skip_ahead`` controls idle-cycle skip-ahead (DESIGN.md §9): when no
    stage can provably make progress the clock advances straight to the
    next cycle at which any event is possible.  Skipping is exact — all
    per-cycle statistics bookkeeping is replayed over the span, and with
    ``on_cycle_end`` subscribed the span is force-ticked cycle by cycle
    so CPI stacks, pipeview traces and the invariant checker see every
    cycle.  ``None`` (the default) resolves from the environment
    (``REPRO_SKIP=0`` disables); tests force it both ways to assert
    byte-identical results.

    ``hooks`` is the mechanism, or the ordered subscriber list itself (a
    fault injector, then the mechanism, then observers); ``observer`` is
    an observer, or a list of them, subscribed after ``hooks``.  The
    event table binds once, here (``uarch/hooks.py``, DESIGN.md §9.9).
    """

    def __init__(self, cfg: ProcessorConfig, program: Program,
                 hooks=None, observer=None,
                 skip_ahead: Optional[bool] = None,
                 boot: Optional[object] = None):
        self.cfg = cfg
        self.program = program
        #: shared decode-once image (see repro.isa.predecode)
        self.image = predecode(program)
        self.skip_ahead = (_skip_ahead_default() if skip_ahead is None
                           else skip_ahead)
        self.stats = SimStats()
        self.bpred = make_predictor(cfg.bpred_kind, cfg.gshare_bits)
        self.hierarchy = MemoryHierarchy(cfg)
        self.fu = FUPool(cfg)
        #: rename map: each register's youngest in-flight producer
        self.owner: List[Optional[DynInst]] = [None] * NUM_LOGICAL_REGS
        self.freelist = FreeList(cfg.rename_regs)
        self.window: Deque[DynInst] = deque()
        self.lsq_count = 0
        #: in-flight stores per effective address (youngest last)
        self.store_map: Dict[int, List[DynInst]] = {}
        # Speculative architectural state (functional-at-dispatch).
        self.sregs: List[int] = [0] * NUM_LOGICAL_REGS
        self.mem: Dict[int, int] = program.initial_memory()
        # Scheduling structures.
        self.ready: List[tuple] = []        # (seq, inst)
        self.completion: List[tuple] = []   # (done_cycle, seq, inst)
        self.cycle = 0
        self.halted = False
        subscribers = self.subscribers = flatten(hooks, observer)
        self.observers = [s for s in subscribers if isinstance(s, Observer)]
        # Each family binds after its subscribers attach, so it sees the
        # handlers attach installs.  Observers go first: the mechanism
        # hoists its emitters from the table in attach (DESIGN §9.9).
        for obs in self.observers:
            obs.attach(self)
        events = self.events = bind_hooks(subscribers, Observer)
        self.fetch = FetchUnit(cfg, program, self.bpred, events)
        for sub in subscribers:
            if not isinstance(sub, Observer):
                sub.attach(self)
        events.update(bind_hooks(subscribers))
        self._dispatch_gate = events["dispatch_gate"]
        self._on_dispatch = events["on_dispatch"]
        self._on_branch_resolved = events["on_branch_resolved"]
        self._on_recovery = events["on_recovery"]
        self._on_commit = events["on_commit"]
        self._on_store_commit = events["on_store_commit"]
        self._on_cycle = events["on_cycle"]
        self._next_event_cycle = events["next_event_cycle"]
        self._extra_latency = events["validated_extra_latency"]
        self._emit_dispatch = events[EventKind.DISPATCH]
        self._emit_issue = events[EventKind.ISSUE]
        self._emit_writeback = events[EventKind.WRITEBACK]
        self._emit_commit = events[EventKind.COMMIT]
        self._emit_squash = events[EventKind.SQUASH]
        self._emit_recovery = events[EventKind.RECOVERY]
        self._emit_cycle_end = events[EventKind.CYCLE_END]
        # The coherence check (Section 2.4.3) taxes store commit only
        # when some subscriber holds replicas to check against.
        self._has_replicas = any(s.has_replicas for s in subscribers
                                 if isinstance(s, MechanismHooks))
        self._last_progress_cycle = 0
        self._ports = PortState(cfg, self.stats, self.hierarchy)
        if boot is not None:
            # Boot from a functional checkpoint (repro.sampling): seed
            # the architectural state — register file, memory image and
            # fetch cursor — from the checkpointed values.  Architectural
            # state depends only on the program, so one checkpoint boots
            # every config/policy point; the *microarchitectural* state
            # (branch predictor, caches, rename) deliberately starts
            # cold — the sampling plan's detailed-warmup window exists
            # to re-warm it before measurement begins.
            self.sregs[:] = boot.regs
            self.mem.update(boot.mem_delta)
            self.fetch.pc = boot.pc

    def __del__(self) -> None:
        # A core dropped mid-run (a sampling interval stops at its
        # instruction budget, a fault crashes the run) still holds
        # producers whose consumers reference them back; drop those
        # lists as it dies so reference counting frees the window too
        # (DESIGN.md §9.6).  A run that halts leaves none.
        for inst in getattr(self, "window", ()):
            inst.consumers = None

    # ------------------------------------------------------------------
    # Public driver.
    # ------------------------------------------------------------------
    def run(self, max_instructions: Optional[int] = None) -> SimStats:
        """Simulate until the program halts (or limits trip)."""
        max_insn = max_instructions or (1 << 62)
        # Hoisted hot locals: each name below is read every cycle.
        stats = self.stats
        fetch = self.fetch
        queue = fetch.queue
        dispatch_gate = self._dispatch_gate
        on_cycle = self._on_cycle
        next_event_cycle = self._next_event_cycle
        fu_avail = self.fu.avail
        fu_capacity = self.fu.capacity
        ports = self._ports
        open_lines = ports.open_lines
        freelist = self.freelist
        cycle_end = self._emit_cycle_end
        window = self.window
        completion = self.completion
        ready = self.ready
        cfg = self.cfg
        l1d_ports = cfg.l1d_ports
        issue_width = cfg.issue_width
        max_cycles = cfg.max_cycles
        window_size = cfg.window_size
        lsq_size = cfg.lsq_size
        fetch_queue_size = cfg.fetch_queue_size
        flags_a = self.image.flags
        interval = stats.interval_cycles
        skipping = self.skip_ahead
        while not self.halted:
            cycle = self.cycle = self.cycle + 1
            stats.cycles = cycle
            if cycle > max_cycles:
                raise SimulationError(
                    f"{self.program.name}: exceeded {max_cycles} cycles")
            if cycle - self._last_progress_cycle > 20_000:
                raise SimulationError(
                    f"{self.program.name}: no commit for 20k cycles at "
                    f"cycle {cycle} (head={self.window[0] if self.window else None})")
            # Fresh per-cycle budgets, then each stage only when it can
            # act (DESIGN.md §9.9).
            fu_avail[:] = fu_capacity
            ports.ports_left = l1d_ports
            if open_lines:
                open_lines.clear()
            if window and (window[0].done or window[0].validated):
                self._commit(ports)
            if self.halted or stats.committed >= max_insn:
                break
            if completion and completion[0][0] <= cycle:
                self._writeback()
            leftover = self._issue(ports) if ready else issue_width
            # The gate runs every cycle, dispatchable or not: the vect
            # gate records register slack and reclaims dead entries.
            if (dispatch_gate is None or dispatch_gate()) \
                    and queue and queue[0][0] <= cycle:
                self._dispatch()
            stats.fetched += fetch.fetch_cycle(cycle)
            if on_cycle is not None:
                on_cycle(leftover, ports)
            in_use = freelist.capacity - freelist.free
            stats.regs_in_use_samples += 1
            stats.regs_in_use_sum += in_use
            if in_use > stats.regs_in_use_peak:
                stats.regs_in_use_peak = in_use
            if cycle % interval == 0:
                stats.record_interval()
            if cycle_end is not None:
                cycle_end(self)
            if (not window and fetch.empty and not completion):
                break  # fell off the end of the program
            # ----------------------------------------------------------
            # Idle-cycle skip-ahead (DESIGN.md §9): when every stage is
            # provably stalled until a known future cycle, advance the
            # clock to just before that cycle instead of ticking through
            # the span.  Every guard below is conservative — any state
            # that *could* act next cycle vetoes the skip.
            # ----------------------------------------------------------
            if not skipping or ready:
                continue  # an issuable instruction: next cycle acts
            # Next-event candidates; the watchdog horizon bounds the skip
            # so a genuine deadlock still trips at the same cycle.
            nxt = self._last_progress_cycle + 20_001
            if cycle + 1 >= nxt:
                continue
            if window:
                head = window[0]
                if head.done:
                    continue  # commits next cycle
                if head.validated:
                    cra = head.commit_ready_at
                    if cra <= cycle:
                        continue  # commit-ready (or unknown): no skip
                    if cra < nxt:
                        nxt = cra
            if completion and completion[0][0] < nxt:
                nxt = completion[0][0]
            if queue:
                head_ready = queue[0][0]
                if head_ready > cycle:
                    if head_ready < nxt:
                        nxt = head_ready  # decode depth: ready later
                elif not (len(window) >= window_size
                          or (flags_a[queue[0][1].pc] & F_MEM
                              and self.lsq_count >= lsq_size)):
                    # Dispatch could act (or charge a rename stall) next
                    # cycle; only window-full / LSQ-full blockage — which
                    # drains via commit, covered by the candidates above —
                    # is safely skippable.
                    continue
            redirect_at = fetch._redirect_at
            if redirect_at is not None:
                if redirect_at < nxt:
                    nxt = redirect_at
            elif not fetch.stalled and len(queue) < fetch_queue_size:
                continue  # the front end fetches next cycle
            if next_event_cycle is not None:
                mech = next_event_cycle()
                if mech is not None:
                    if mech <= cycle:
                        continue  # mechanism vetoes (per-cycle work pending)
                    if mech < nxt:
                        nxt = mech
            if max_cycles < nxt:
                nxt = max_cycles + 1
            span_end = nxt - 1
            if span_end <= cycle:
                continue
            span = span_end - cycle
            stats.skipped_cycles += span
            if cycle_end is None:
                # Batch the per-cycle bookkeeping over the whole span:
                # register-pressure samples and interval marks see state
                # frozen exactly as every skipped cycle would have.
                stats.regs_in_use_samples += span
                stats.regs_in_use_sum += span * in_use
                marks = span_end // interval - cycle // interval
                if marks:
                    stats.interval_committed.extend(
                        [stats.committed] * marks)
                self.cycle = span_end
                stats.cycles = span_end
            else:
                # Observed run: force-tick the span so per-cycle
                # subscribers (CPI stack, pipeview, invariant checker)
                # see every cycle with exact state.  No stage can act, so
                # only the clock and the bookkeeping advance.
                c = cycle
                while c < span_end:
                    c += 1
                    self.cycle = c
                    stats.cycles = c
                    stats.record_reg_usage(in_use)
                    if c % interval == 0:
                        stats.record_interval()
                    cycle_end(self)
        self.stats.regs_slack = self.freelist.slack
        for obs in self.observers:
            obs.finalize(self.stats)
        return self.stats

    # ------------------------------------------------------------------
    # Commit.
    # ------------------------------------------------------------------
    def _commit(self, ports: PortState) -> None:
        cfg = self.cfg
        emit_commit = self._emit_commit
        stats = self.stats
        window = self.window
        freelist = self.freelist
        owner_a = self.owner
        cycle = self.cycle
        on_commit = self._on_commit
        flags_a = self.image.flags
        rd_a = self.image.rd
        slots = cfg.commit_width
        stores_this_cycle = 0
        while slots > 0 and window:
            inst = window[0]
            if not inst.done and not (
                    inst.validated and 0 <= inst.commit_ready_at <= cycle):
                break
            flags = flags_a[inst.pc]
            if flags & F_STORE:
                has_replicas = self._has_replicas
                max_stores = (cfg.ci_max_store_commits if has_replicas
                              else cfg.l1d_ports + 1)
                if stores_this_cycle >= max_stores:
                    break
                if not ports.try_store():
                    break
                cost = 1 + (cfg.ci_store_commit_extra if has_replicas else 0)
                if slots < cost:
                    break
                slots -= cost
                stores_this_cycle += 1
            else:
                slots -= 1
            window.popleft()
            inst.committed = True
            stats.committed += 1
            if emit_commit is not None:
                emit_commit(inst, cycle)
            self._last_progress_cycle = cycle
            if inst.validated:
                stats.committed_reused += 1
            if flags & F_WRITES_REG:
                freelist.release(1)
                rd = rd_a[inst.pc]
                if owner_a[rd] is inst:
                    owner_a[rd] = None  # the value is architectural
                # A retired instruction can no longer be undone; keeping
                # the record would chain every older producer to it.
                inst.rename_undo = None
            if flags & F_MEM:
                self.lsq_count -= 1
            if flags & F_STORE:
                stats.stores_committed += 1
                self.hierarchy.store_access(inst.eff_addr)
                self._store_map_remove(inst)
                on_store_commit = self._on_store_commit
                if on_store_commit is not None and on_store_commit(inst):
                    stats.coherence_squashes += 1
                    self._recover(inst, inst.pc + 1, is_branch=False)
                    if on_commit is not None:
                        on_commit(inst)
                    return
            if flags & F_COND_BRANCH:
                stats.cond_branches += 1
                if inst.mispredicted:
                    stats.mispredicts += 1
                    if inst.hard_branch:
                        stats.mispredicts_hard += 1
            if on_commit is not None:
                on_commit(inst)
            if flags & F_HALT:
                self.halted = True
                return

    # ------------------------------------------------------------------
    # Writeback / branch resolution.
    # ------------------------------------------------------------------
    def _writeback(self) -> None:
        comp = self.completion
        ready = self.ready
        heappop = heapq.heappop
        heappush = heapq.heappush
        cycle = self.cycle
        emit_writeback = self._emit_writeback
        flags_a = self.image.flags
        while comp and comp[0][0] <= cycle:
            inst = heappop(comp)[2]
            if inst.squashed or inst.done:
                continue
            inst.done = True
            if emit_writeback is not None:
                emit_writeback(inst, cycle)
            consumers = inst.consumers
            # Woken consumers are never needed again.  Each one references
            # this producer (undo record, forwarded store), so keeping the
            # list would tie them into a reference cycle.
            inst.consumers = None
            for c in consumers or ():
                c.num_pending -= 1
                if (c.num_pending == 0 and not c.issued and not c.squashed
                        and not c.in_ready):
                    c.in_ready = True
                    heappush(ready, (c.seq, c))
            if flags_a[inst.pc] & F_COND_BRANCH:
                self.bpred.train(inst.pc, inst.bp_history, inst.actual_taken)
                if self._on_branch_resolved is not None:
                    self._on_branch_resolved(inst)
                if inst.mispredicted and not inst.squashed:
                    self.bpred.recover(inst.bp_history, inst.actual_taken)
                    self._recover(inst, inst.actual_next_pc, is_branch=True)

    # ------------------------------------------------------------------
    # Recovery: squash everything younger than ``pivot``.
    # ------------------------------------------------------------------
    def _recover(self, pivot: DynInst, redirect_pc: int, is_branch: bool) -> None:
        window = self.window
        stats = self.stats
        emit_squash = self._emit_squash
        cycle = self.cycle
        flags_a = self.image.flags
        rd_a = self.image.rd
        sregs = self.sregs
        mem = self.mem
        owner_a = self.owner
        freelist = self.freelist
        pivot_seq = pivot.seq
        squashed: List[DynInst] = []
        while window and window[-1].seq > pivot_seq:
            # Undo the youngest instruction's functional and rename
            # effects.
            inst = window.pop()
            inst.squashed = True
            inst.consumers = None  # all younger: squashed with it
            stats.squashed += 1
            if emit_squash is not None:
                emit_squash(inst, cycle)
            flags = flags_a[inst.pc]
            if flags & F_STORE:
                if inst.mem_old is MEM_ABSENT:
                    mem.pop(inst.eff_addr, None)
                else:
                    mem[inst.eff_addr] = inst.mem_old
                self._store_map_remove(inst)
            if flags & F_MEM:
                self.lsq_count -= 1
            if flags & F_WRITES_REG:
                sregs[rd_a[inst.pc]] = inst.sreg_old
                owner_a[rd_a[inst.pc]] = inst.rename_undo
                inst.rename_undo = None
                if inst.reg_allocated:
                    freelist.release(1)
            squashed.append(inst)
        squashed.reverse()
        if self._on_recovery is not None:
            self._on_recovery(pivot, squashed, is_branch)
        if self._emit_recovery is not None:
            self._emit_recovery(pivot, len(squashed), is_branch, cycle)
        self.fetch.redirect(redirect_pc, cycle)

    def _store_map_remove(self, inst: DynInst) -> None:
        lst = self.store_map.get(inst.eff_addr)
        if lst is not None:
            try:
                lst.remove(inst)
            except ValueError:
                pass
            if not lst:
                del self.store_map[inst.eff_addr]

    # ------------------------------------------------------------------
    # Issue.
    # ------------------------------------------------------------------
    def _issue(self, ports: PortState) -> int:
        """Issue ready instructions oldest first; returns the slots left.

        FU and port accounting is inline, against the flat per-cycle
        budgets: ``FUPool.avail`` indexed by the predecoded FU slot, and
        the ``PortState`` counters the replica scheduler draws on later
        in the same cycle.
        """
        ready = self.ready
        completion = self.completion
        heappop = heapq.heappop
        heappush = heapq.heappush
        cycle = self.cycle
        emit_issue = self._emit_issue
        stats = self.stats
        hierarchy = self.hierarchy
        image = self.image
        flags_a = image.flags
        slot_a = image.fu_slot
        lat_a = image.fu_lat
        avail = self.fu.avail
        cfg = self.cfg
        width = cfg.issue_width
        wide_bus = cfg.wide_bus
        ports_left = ports.ports_left
        open_lines = ports.open_lines
        deferred: List[tuple] = []
        issued = 0
        while issued < width and ready:
            item = heappop(ready)
            inst = item[1]
            inst.in_ready = False
            if inst.squashed or inst.issued:
                continue
            pc = inst.pc
            slot = slot_a[pc]
            if avail[slot] <= 0:
                deferred.append(item)
                continue
            if flags_a[pc] & F_LOAD:
                if inst.forward_store is None:
                    # Port arbitration; ReplicaScheduler.issue does the same.
                    addr = inst.eff_addr
                    line = addr // hierarchy.l1.line
                    free = open_lines.get(line, 0) if wide_bus else 0
                    if free > 0:
                        open_lines[line] = free - 1
                    elif ports_left > 0:
                        ports_left -= 1
                        if wide_bus:
                            open_lines[line] = cfg.wide_loads_per_access - 1
                        stats.l1d_accesses += 1
                        stats.l1d_load_accesses += 1
                    else:
                        deferred.append(item)
                        continue
                    lat = hierarchy.load_latency(addr, cycle)
                    if lat > hierarchy.l1.hit_latency:
                        stats.l1d_misses += 1
                else:  # forwarded from an in-flight store
                    stats.store_forwards += 1
                    lat = 1
            else:
                lat = lat_a[pc]
            avail[slot] -= 1
            inst.issued = True
            issued += 1
            inst.done_cycle = done = cycle + lat
            heappush(completion, (done, item[0], inst))
            if emit_issue is not None:
                emit_issue(inst, cycle, lat)
        ports.ports_left = ports_left
        for item in deferred:
            item[1].in_ready = True
            heappush(ready, item)
        return width - issued

    # ------------------------------------------------------------------
    # Dispatch: rename + functional execution, fused over the predecoded
    # image.  One pass per instruction reads the flat arrays instead of
    # chasing ``Instruction`` attributes (the pre-fusion split into
    # ``_execute_functional`` / ``_rename_and_schedule`` cost two extra
    # calls and repeated attribute loads per dynamic instruction on the
    # hottest path in the simulator).
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Dispatch from the fetch queue (``run`` calls it only when the
        gate is open and the queue head has finished decode)."""
        queue = self.fetch.queue
        cycle = self.cycle
        cfg = self.cfg
        window = self.window
        emit_dispatch = self._emit_dispatch
        emit_issue = self._emit_issue
        on_dispatch = self._on_dispatch
        stats = self.stats
        freelist = self.freelist
        owner_a = self.owner
        sregs = self.sregs
        mem = self.mem
        store_map = self.store_map
        completion = self.completion
        ready = self.ready
        heappush = heapq.heappush
        image = self.image
        kind_a = image.kind
        flags_a = image.flags
        rd_a = image.rd
        rs1_a = image.rs1
        rs2_a = image.rs2
        imm_a = image.imm
        target_a = image.target
        srcs_a = image.srcs
        alu_a = image.alu_fn
        branch_a = image.branch_fn
        window_size = cfg.window_size
        lsq_size = cfg.lsq_size
        for _ in range(cfg.issue_width):
            if len(window) >= window_size:
                break
            if not queue or queue[0][0] > cycle:
                break
            inst = queue[0][1]
            pc = inst.pc
            flags = flags_a[pc]
            if flags & F_MEM and self.lsq_count >= lsq_size:
                break
            writes = flags & F_WRITES_REG
            if writes and not freelist.alloc(1):
                stats.rename_stall_cycles += 1
                break
            queue.popleft()
            if writes:
                inst.reg_allocated = True
            # -- functional execution (sim-outorder style).  The or-zero
            # register encoding is safe: evaluation callables ignore
            # their unused operands (see repro.isa.predecode).
            kind = kind_a[pc]
            if kind == K_ALU:
                rd = rd_a[pc]
                inst.sreg_old = sregs[rd]
                inst.result = result = alu_a[pc](
                    sregs[rs1_a[pc]], sregs[rs2_a[pc]], imm_a[pc])
                sregs[rd] = result
            elif kind == K_LOAD:
                addr = (sregs[rs1_a[pc]] + imm_a[pc]) & MASK64
                inst.eff_addr = addr
                rd = rd_a[pc]
                inst.sreg_old = sregs[rd]
                inst.result = result = mem.get(addr, 0)
                sregs[rd] = result
            elif kind == K_STORE:
                addr = (sregs[rs1_a[pc]] + imm_a[pc]) & MASK64
                inst.eff_addr = addr
                inst.mem_old = mem.get(addr, MEM_ABSENT)
                inst.result = result = sregs[rs2_a[pc]]
                mem[addr] = result
            elif kind == K_BRANCH:
                taken = branch_a[pc](sregs[rs1_a[pc]], sregs[rs2_a[pc]])
                inst.actual_taken = taken
                inst.actual_next_pc = target_a[pc] if taken else pc + 1
            elif kind == K_JUMP:
                inst.actual_next_pc = target_a[pc]
            # -- rename: source dependencies through the rename map.
            num_pending = 0
            for r in srcs_a[pc]:
                owner = owner_a[r]
                if owner is not None and not owner.done \
                        and not owner.squashed:
                    num_pending += 1
                    if owner.consumers is None:
                        owner.consumers = [inst]
                    else:
                        owner.consumers.append(inst)
            if flags & F_MEM:
                # Memory dependence: forward from the youngest older
                # in-flight store to the same address (perfect
                # disambiguation, DESIGN.md §5).
                if flags & F_LOAD:
                    stores = store_map.get(inst.eff_addr)
                    if stores:
                        s = stores[-1]
                        inst.forward_store = s
                        if not s.done:
                            num_pending += 1
                            if s.consumers is None:
                                s.consumers = [inst]
                            else:
                                s.consumers.append(inst)
                else:
                    store_map.setdefault(inst.eff_addr, []).append(inst)
                self.lsq_count += 1
            if num_pending:
                inst.num_pending = num_pending
            # Destination rename; the undo record is the previous owner.
            if writes:
                rd = rd_a[pc]
                inst.rename_undo = owner_a[rd]
                owner_a[rd] = inst
            # -- schedule (K_JUMP/K_NOP/K_HALT complete unconditionally).
            if kind >= K_JUMP:
                inst.issued = True
                inst.done_cycle = cycle + 1
                heappush(completion, (cycle + 1, inst.seq, inst))
            elif num_pending == 0:
                inst.in_ready = True
                heappush(ready, (inst.seq, inst))
            stats.dispatched += 1
            window.append(inst)
            if on_dispatch is not None:
                on_dispatch(inst)
            if emit_dispatch is not None:
                emit_dispatch(inst, cycle)
            if inst.validated and not inst.issued:
                # Replica reuse: skip execution.  The instruction may reach
                # commit immediately (validation goes straight there,
                # Section 2.4.6); consumers wait for the copy out of the
                # speculative data memory, charged as extra latency.
                extra = self._extra_latency
                lat = 1 + (extra(inst) if extra is not None else 0)
                inst.issued = True
                inst.commit_ready_at = cycle + 1
                inst.done_cycle = cycle + lat
                heappush(completion, (inst.done_cycle, inst.seq, inst))
                if emit_issue is not None:
                    emit_issue(inst, cycle, lat)


def simulate(program: Program, cfg: Optional[ProcessorConfig] = None,
             hooks=None, max_instructions: Optional[int] = None,
             observer=None, skip_ahead: Optional[bool] = None) -> SimStats:
    """Convenience wrapper: build a core, run it, return the statistics.

    ``hooks`` and ``observer`` are the subscribers, as for :class:`Core`.
    """
    core = Core(cfg or ProcessorConfig(), program, hooks, observer=observer,
                skip_ahead=skip_ahead)
    return core.run(max_instructions=max_instructions)
