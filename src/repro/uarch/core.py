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

from ..isa import (
    MASK64,
    FUClass,
    FU_LATENCY,
    NUM_LOGICAL_REGS,
    Program,
)
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
from ..observe.base import NullObserver, Observer
from .bpred import make_predictor
from .caches import MemoryHierarchy
from .config import ProcessorConfig
from .frontend import FetchUnit
from .funits import FUPool
from .hooks import MechanismHooks
from .rename import FreeList, RenameTable
from .rob import DynInst, MEM_ABSENT
from .stats import SimStats


class SimulationError(RuntimeError):
    """Raised when the simulation cannot make progress."""


class PortState:
    """Per-cycle L1 data-cache port arbitration, including wide buses.

    One instance lives for the whole simulation and is ``reset()`` each
    cycle — allocating a fresh object (and its ``open_lines`` dict) per
    cycle showed up in profiles of long runs.
    """

    def __init__(self, cfg: ProcessorConfig, stats: SimStats,
                 hierarchy: MemoryHierarchy):
        self.cfg = cfg
        self.stats = stats
        self.hierarchy = hierarchy
        self.ports_left = cfg.l1d_ports
        self.open_lines: Dict[int, int] = {}

    def reset(self) -> None:
        """Start a new cycle: full port budget, no open wide-bus lines."""
        self.ports_left = self.cfg.l1d_ports
        if self.open_lines:
            self.open_lines.clear()

    def can_load(self, line: int) -> bool:
        if self.cfg.wide_bus and self.open_lines.get(line, 0) > 0:
            return True
        return self.ports_left > 0

    def do_load(self, line: int, replica: bool = False) -> None:
        """Consume port bandwidth for one load (``can_load`` must hold)."""
        if self.cfg.wide_bus:
            slots = self.open_lines.get(line, 0)
            if slots > 0:
                self.open_lines[line] = slots - 1
                return
            self.ports_left -= 1
            self.open_lines[line] = self.cfg.wide_loads_per_access - 1
        else:
            self.ports_left -= 1
        self.stats.l1d_accesses += 1
        if replica:
            self.stats.l1d_replica_accesses += 1
        else:
            self.stats.l1d_load_accesses += 1

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
    an observer attached the span is force-ticked cycle by cycle so CPI
    stacks, pipeview traces and the invariant checker see every cycle.
    ``None`` (the default) resolves from the environment
    (``REPRO_SKIP=0`` disables); tests force it both ways to assert
    byte-identical results.
    """

    def __init__(self, cfg: ProcessorConfig, program: Program,
                 hooks: Optional[MechanismHooks] = None,
                 observer: Optional[Observer] = None,
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
        self.fetch = FetchUnit(cfg, program, self.bpred)
        self.hierarchy = MemoryHierarchy(cfg)
        self.fu = FUPool(cfg)
        self.rename = RenameTable(NUM_LOGICAL_REGS, cfg.strided_pcs_per_entry)
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
        # Observation (read-only; see repro.observe).  ``None`` and
        # NullObserver normalise to "not observing" so the hot loop pays
        # one ``is not None`` test per event site and nothing else.
        self.observer = observer
        self._obs: Optional[Observer] = (
            None if observer is None or isinstance(observer, NullObserver)
            else observer)
        self.fetch.set_observer(self._obs)
        if self._obs is not None:
            self._obs.attach(self)
        self.hooks: MechanismHooks = hooks or MechanismHooks()
        self.hooks.attach(self)
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

    @property
    def active_observer(self) -> Optional[Observer]:
        """The observer receiving events, or ``None`` when not observing.

        This is the formal accessor for mechanism code: ``None`` and
        :class:`NullObserver` are already normalised away, so callers
        guard event emission with one ``is not None`` test.
        """
        return self._obs

    # ------------------------------------------------------------------
    # Public driver.
    # ------------------------------------------------------------------
    def run(self, max_instructions: Optional[int] = None) -> SimStats:
        """Simulate until the program halts (or limits trip)."""
        max_insn = max_instructions or (1 << 62)
        # Hoisted hot locals: each name below is read every cycle.
        stats = self.stats
        fetch = self.fetch
        hooks = self.hooks
        fu = self.fu
        ports = self._ports
        freelist = self.freelist
        obs = self._obs
        window = self.window
        completion = self.completion
        ready = self.ready
        cfg = self.cfg
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
            fu.reset()
            ports.reset()
            self._commit(ports)
            if self.halted or stats.committed >= max_insn:
                break
            self._writeback()
            leftover = self._issue(ports)
            self._dispatch()
            stats.fetched += fetch.fetch_cycle(cycle)
            hooks.on_cycle(leftover, ports)
            in_use = freelist.in_use
            stats.record_reg_usage(in_use)
            if cycle % interval == 0:
                stats.record_interval()
            if obs is not None:
                obs.on_cycle_end(self)
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
            queue = fetch.queue
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
            mech = hooks.next_event_cycle()
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
            if obs is None:
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
                # observers (CPI stack, pipeview, invariant checker) see
                # every cycle with exact state.  No stage can act, so
                # only the clock and the bookkeeping advance.
                c = cycle
                while c < span_end:
                    c += 1
                    self.cycle = c
                    stats.cycles = c
                    stats.record_reg_usage(in_use)
                    if c % interval == 0:
                        stats.record_interval()
                    obs.on_cycle_end(self)
        self.stats.stridedpc_assignments = self.rename.assign_count
        self.stats.stridedpc_sum = self.rename.assign_sum
        self.stats.stridedpc_overflow = self.rename.overflow_count
        self.stats.regs_slack = self.freelist.slack
        if obs is not None:
            obs.finalize(self.stats)
        return self.stats

    # ------------------------------------------------------------------
    # Commit.
    # ------------------------------------------------------------------
    def _commit(self, ports: PortState) -> None:
        cfg = self.cfg
        obs = self._obs
        flags_a = self.image.flags
        slots = cfg.commit_width
        stores_this_cycle = 0
        while slots > 0 and self.window:
            inst = self.window[0]
            if not inst.done and not (
                    inst.validated and 0 <= inst.commit_ready_at <= self.cycle):
                break
            flags = flags_a[inst.pc]
            if flags & F_STORE:
                # The coherence check (Section 2.4.3) taxes store commit
                # only when replicas exist to check against.
                has_replicas = self.hooks.has_replicas
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
            self.window.popleft()
            inst.committed = True
            self.stats.committed += 1
            if obs is not None:
                obs.on_commit(inst, self.cycle)
            self._last_progress_cycle = self.cycle
            if inst.validated:
                self.stats.committed_reused += 1
            if flags & F_WRITES_REG:
                self.freelist.release(1)
                self.rename.clear_owner_if(self.image.rd[inst.pc], inst)
                # A retired instruction can no longer be undone; keeping
                # the record would chain every older producer to it.
                inst.rename_undo = None
            if flags & F_MEM:
                self.lsq_count -= 1
            if flags & F_STORE:
                self.stats.stores_committed += 1
                self.hierarchy.store_access(inst.eff_addr)
                self._store_map_remove(inst)
                conflict = self.hooks.on_store_commit(inst)
                if conflict:
                    self.stats.coherence_squashes += 1
                    self._recover(inst, inst.pc + 1, is_branch=False)
                    self.hooks.on_commit(inst)
                    return
            if flags & F_COND_BRANCH:
                self.stats.cond_branches += 1
                if inst.mispredicted:
                    self.stats.mispredicts += 1
                    if inst.hard_branch:
                        self.stats.mispredicts_hard += 1
            self.hooks.on_commit(inst)
            if flags & F_HALT:
                self.halted = True
                return

    # ------------------------------------------------------------------
    # Writeback / branch resolution.
    # ------------------------------------------------------------------
    def _writeback(self) -> None:
        comp = self.completion
        obs = self._obs
        flags_a = self.image.flags
        while comp and comp[0][0] <= self.cycle:
            _, _, inst = heapq.heappop(comp)
            if inst.squashed or inst.done:
                continue
            inst.done = True
            if obs is not None:
                obs.on_writeback(inst, self.cycle)
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
                    heapq.heappush(self.ready, (c.seq, c))
            if flags_a[inst.pc] & F_COND_BRANCH:
                self.bpred.train(inst.pc, inst.bp_history, inst.actual_taken)
                self.hooks.on_branch_resolved(inst)
                if inst.mispredicted and not inst.squashed:
                    self.bpred.recover(inst.bp_history, inst.actual_taken)
                    self._recover(inst, inst.actual_next_pc, is_branch=True)

    # ------------------------------------------------------------------
    # Recovery: squash everything younger than ``pivot``.
    # ------------------------------------------------------------------
    def _recover(self, pivot: DynInst, redirect_pc: int, is_branch: bool) -> None:
        squashed: List[DynInst] = []
        while self.window and self.window[-1].seq > pivot.seq:
            inst = self.window.pop()
            self._undo(inst)
            squashed.append(inst)
        squashed.reverse()
        self.hooks.on_recovery(pivot, squashed, is_branch)
        if self._obs is not None:
            self._obs.on_recovery(pivot, len(squashed), is_branch, self.cycle)
        self.fetch.redirect(redirect_pc, self.cycle)

    def _undo(self, inst: DynInst) -> None:
        """Roll back one instruction's functional and rename effects."""
        inst.squashed = True
        inst.consumers = None  # all younger: squashed with it
        self.stats.squashed += 1
        if self._obs is not None:
            self._obs.on_squash(inst, self.cycle)
        flags = self.image.flags[inst.pc]
        if flags & F_STORE:
            if inst.mem_old is MEM_ABSENT:
                self.mem.pop(inst.eff_addr, None)
            else:
                self.mem[inst.eff_addr] = inst.mem_old
            self._store_map_remove(inst)
        if flags & F_MEM:
            self.lsq_count -= 1
        if flags & F_WRITES_REG:
            self.sregs[self.image.rd[inst.pc]] = inst.sreg_old
            self.rename.restore_reg(inst.rename_undo)
            inst.rename_undo = None
            if inst.reg_allocated:
                self.freelist.release(1)

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
        issued = 0
        deferred: List[tuple] = []
        cfg = self.cfg
        obs = self._obs
        flags_a = self.image.flags
        fu_a = self.image.fu_class
        while issued < cfg.issue_width and self.ready:
            seq, inst = heapq.heappop(self.ready)
            inst.in_ready = False
            if inst.squashed or inst.issued:
                continue
            is_load = flags_a[inst.pc] & F_LOAD
            fu = fu_a[inst.pc]
            if is_load and inst.forward_store is None:
                line = self.hierarchy.line_of(inst.eff_addr)
                if not ports.can_load(line) or self.fu.available(FUClass.MEM) <= 0:
                    deferred.append((seq, inst))
                    continue
                self.fu.acquire(FUClass.MEM)
                ports.do_load(line)
                lat = self.hierarchy.load_latency(inst.eff_addr, self.cycle)
                if lat > self.hierarchy.l1.hit_latency:
                    self.stats.l1d_misses += 1
            else:
                if not self.fu.acquire(fu):
                    deferred.append((seq, inst))
                    continue
                if is_load:  # forwarded from an in-flight store
                    self.stats.store_forwards += 1
                    lat = 1
                else:
                    lat = FU_LATENCY[fu]
            inst.issued = True
            issued += 1
            inst.done_cycle = self.cycle + lat
            heapq.heappush(self.completion, (inst.done_cycle, inst.seq, inst))
            if obs is not None:
                obs.on_issue(inst, self.cycle, lat)
        for item in deferred:
            item[1].in_ready = True
            heapq.heappush(self.ready, item)
        return cfg.issue_width - issued

    # ------------------------------------------------------------------
    # Dispatch: rename + functional execution, fused over the predecoded
    # image.  One pass per instruction reads the flat arrays instead of
    # chasing ``Instruction`` attributes (the pre-fusion split into
    # ``_execute_functional`` / ``_rename_and_schedule`` cost two extra
    # calls and repeated attribute loads per dynamic instruction on the
    # hottest path in the simulator).
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        if not self.hooks.dispatch_gate():
            return
        queue = self.fetch.queue
        cycle = self.cycle
        if not queue or queue[0][0] > cycle:
            return
        cfg = self.cfg
        window = self.window
        obs = self._obs
        hooks = self.hooks
        stats = self.stats
        freelist = self.freelist
        rename = self.rename
        owner_a = rename.owner
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
            # -- rename: source dependencies through the rename table.
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
            # Destination rename, with default stridedPC propagation
            # (ALU ops merge their sources'; the mechanism hook refines
            # loads).
            if writes:
                rd = rd_a[pc]
                srcs = srcs_a[pc]
                spcs = rename.merge_strided(srcs) \
                    if kind != K_LOAD and srcs else ()
                inst.rename_undo = rename.snapshot_reg(rd)
                rename.write(rd, inst, None, spcs)
            inst.dispatch_cycle = cycle
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
            hooks.on_dispatch(inst)
            if obs is not None:
                obs.on_dispatch(inst, cycle)
            if inst.validated and not inst.issued:
                # Replica reuse: skip execution.  The instruction may reach
                # commit immediately (validation goes straight there,
                # Section 2.4.6); consumers wait for the copy out of the
                # speculative data memory, charged as extra latency.
                lat = 1 + hooks.validated_extra_latency(inst)
                inst.issued = True
                inst.commit_ready_at = cycle + 1
                inst.done_cycle = cycle + lat
                heappush(completion, (inst.done_cycle, inst.seq, inst))
                if obs is not None:
                    obs.on_issue(inst, cycle, lat)


def simulate(program: Program, cfg: Optional[ProcessorConfig] = None,
             hooks: Optional[MechanismHooks] = None,
             max_instructions: Optional[int] = None,
             observer: Optional[Observer] = None,
             skip_ahead: Optional[bool] = None) -> SimStats:
    """Convenience wrapper: build a core, run it, return the statistics."""
    core = Core(cfg or ProcessorConfig(), program, hooks, observer=observer,
                skip_ahead=skip_ahead)
    return core.run(max_instructions=max_instructions)
