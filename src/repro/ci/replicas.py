"""Replica management — SRSMT allocation, execution, validation (steps 3–4).

The fourth component of the mechanism pipeline: once the selector marks
a strided load (or the dependence-propagation rule reaches one of its
consumers), the replica manager allocates an SRSMT entry, pre-executes
the replica batch with leftover issue slots, and validates later dynamic
instances against the precomputed results so they can skip execution.

Two operating modes, chosen by the policy registry:

* ``greedy=False`` — the paper's scheme: replicas are lowest-priority
  (allocation headroom, never blocks dispatch), one rename register per
  replica, chronically failing PCs back off;
* ``greedy=True``  — the full dynamic-vectorization comparator [12]:
  vector instructions live in the pipeline (dispatch *blocks* until the
  whole register set allocates), carry double register cost, tolerate 4x
  the store conflicts, and never back off — which is exactly why the
  scheme collapses at small register files (Figure 14).

Validation is value-checked on top of the paper's producer-seq and
stride checks (DESIGN.md §5): a replica is reused only if its
precomputed value matches the oracle result, so the simplified model
never commits wrong values — mismatches count as validation failures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..isa.predecode import F_LOAD, F_WRITES_REG
from ..uarch.rename import FreeList
from .srsmt import SCALAR, SELF, VEC, Operand, ReplicaScheduler, SRSMT, SRSMTEntry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..uarch.core import PortState
    from ..uarch.rob import DynInst
    from .pipeline import MechanismPipeline


class ReplicaManager:
    """SRSMT + replica scheduler + validation."""

    kind = "ci"

    def __init__(self, greedy: bool = False):
        self.greedy = greedy

    def attach(self, pipeline: "MechanismPipeline") -> None:
        self.pipeline = pipeline
        core = pipeline.core
        cfg = pipeline.cfg
        self.core = core
        self.cfg = cfg
        self.obs = pipeline.obs
        self.stats = pipeline.stats
        self.stride = pipeline.selector.stride
        self.srsmt = SRSMT(cfg.srsmt_sets, cfg.srsmt_ways,
                           release=self._release_entry)
        self.scheduler = ReplicaScheduler(
            load_latency=core.hierarchy.load_latency,
            mem_read=lambda addr: core.mem.get(addr, 0))
        #: the speculative data memory's positions (Section 2.4.6), a
        #: second capacity pool with its own slack proof (DESIGN §9.7);
        #: ``None`` when replicas draw from the register file
        self._positions = None
        if pipeline.spec_mem is not None:
            self._positions = FreeList(cfg.spec_mem_size)
            self.stats.spec_mem_slack = cfg.spec_mem_size
        self._vect_wait = False
        #: scalar registers charged per replica (2 for the vect comparator)
        self._vect_factor = 2 if self.greedy else 1
        #: consecutive validation failures per PC; instructions that can
        #: never validate (loop-variant scalar operands) stop re-vectorizing
        self._fail_streak: Dict[int, int] = {}
        # Per-PC dispatch classification from the decode-once image:
        # 1 = load with a destination, 2 = ALU-evaluable with a
        # destination, 0 = nothing for the replica manager to do.  The
        # dispatch hook runs for every dynamic instruction (wrong paths
        # included), so the filter must be one indexed read.
        image = core.image
        disp = bytearray(image.n)
        for pc in range(image.n):
            f = image.flags[pc]
            if f & F_WRITES_REG:
                if f & F_LOAD:
                    disp[pc] = 1
                elif image.alu_fn[pc] is not None:
                    disp[pc] = 2
        self._disp_kind = bytes(disp)

    # ------------------------------------------------------------------
    # Resource accounting for replica destinations.
    # ------------------------------------------------------------------
    def _alloc_replicas(self, want: int) -> int:
        faults = self.pipeline.faults
        if faults is not None and faults.deny_alloc():
            # Injected allocation pressure: refuse this batch outright.
            # Callers take their normal "no-regs" failure path.
            return 0
        positions = self._positions
        if positions is not None:
            got = positions.alloc_up_to(want)
            if got < want:
                self.stats.spec_mem_alloc_failures += 1
            self.stats.spec_mem_slack = positions.slack
            return got
        fl = self.core.freelist
        if self.greedy:
            # The full dynamic-vectorization comparator [12] is greedy: its
            # vector instructions live in the pipeline, carry full vector
            # state (we charge two scalar registers per replica), and
            # *block dispatch* until the whole set can be allocated — which
            # is exactly why the scheme collapses at small register files
            # (Figure 14).
            if not fl.alloc(want * self._vect_factor):
                self._vect_wait = True
                return 0
            return want
        # Replicas have the lowest priority (Section 2.4.1): leave headroom
        # in the free list so the conventional rename path keeps flowing.
        return fl.alloc_up_to(want, self.cfg.ci_alloc_headroom)

    def _conflict_blacklist(self) -> int:
        """Store-conflict tolerance before a load stops re-vectorizing.

        The greedy comparator [12] keeps re-vectorizing conflicting loads
        far longer (4x), one source of its extra useless speculation."""
        base = self.cfg.ci_conflict_blacklist
        return base * 4 if self.greedy else base

    def _release_regs(self, n: int) -> None:
        if n <= 0:
            return
        positions = self._positions
        if positions is not None:
            positions.release(n)
        else:
            self.core.freelist.release(n)

    def _release_entry(self, entry: SRSMTEntry) -> None:
        """SRSMT deallocation: return the entry's registers and drop the
        replicas parked on its outputs (they can never execute)."""
        self._release_regs(entry.regs_held)
        self.scheduler.drop_waiters(entry)

    def _chronically_failing(self, pc: int) -> bool:
        """Gate for PCs whose validations (almost) never succeed.

        The streak decays while the gate holds, so a PC is retried after a
        cooling-off period instead of being disabled forever (a transient
        failure burst must not permanently lose a valid chain)."""
        streak = self._fail_streak.get(pc, 0)
        if streak >= 8:
            self._fail_streak[pc] = streak - 1
            return True
        return False

    def _vect_pc_of(self, inst: "DynInst", r: int):
        """The V/S+Seq rename state of ``r`` as *this* instruction read it.

        The core renames the destination before the hook runs, so for a
        source that is also the destination (accumulators) the pre-rename
        state lives in the instruction's undo record."""
        if inst.instr.rd == r and inst.rename_undo is not None:
            return inst.rename_undo[2]
        return self.core.rename.vect_pc[r]

    # ------------------------------------------------------------------
    # Dispatch: stride propagation, validation, replication.
    # ------------------------------------------------------------------
    def on_dispatch(self, inst: "DynInst") -> None:
        k = self._disp_kind[inst.pc]
        if k:
            if k == 1:
                self._dispatch_load(inst)
            else:
                self._dispatch_alu(inst)

    def _dispatch_load(self, inst: "DynInst") -> None:
        instr = inst.instr
        rename = self.core.rename
        se = self.stride.confident(inst.pc)
        if se is not None:
            rename.strided_pcs[instr.rd] = (inst.pc,)
            rename.assign_count += 1
            rename.assign_sum += 1
        entry = self.srsmt.lookup(inst.pc)
        if entry is not None:
            if self._validate(inst, entry):
                rename.vect_pc[instr.rd] = inst.pc
                return
            entry = None  # validation failed; entry was deallocated
        blacklist = self._conflict_blacklist()
        wants_vector = (
            se is not None
            and (self.greedy or se.selected)
            and not (blacklist and se.conflicts >= blacklist))
        if wants_vector:
            created = self._create_load_entry(inst, se.stride,
                                              se.event if se else None)
            if created:
                rename.vect_pc[instr.rd] = inst.pc
            return
        # Dependent ("gather") load: the address register is the outcome of
        # a vectorized instruction (step 3's dependence-propagation rule).
        vpc = self._vect_pc_of(inst, instr.rs1)
        if vpc is not None and vpc != inst.pc \
                and (self.greedy
                     or not self._chronically_failing(inst.pc)):
            # The conflict blacklist covers gather loads too: their stride
            # entry exists (every committed load trains the predictor) even
            # though its confidence never builds.
            se_any = self.stride.lookup(inst.pc)
            if (blacklist and se_any is not None
                    and se_any.conflicts >= blacklist):
                return
            prod = self.srsmt.lookup(vpc)
            if prod is not None and self._create_dep_load_entry(inst, prod):
                rename.vect_pc[instr.rd] = inst.pc

    def _create_dep_load_entry(self, inst: "DynInst", prod) -> bool:
        nregs = self._alloc_replicas(self.cfg.replicas)
        if nregs == 0:
            if self.obs is not None:
                self.obs.on_srsmt_alloc_fail(inst.pc, prod.event, "no-regs",
                                             self.core.cycle)
            return False
        spec_mem = self.pipeline.spec_mem
        entry = SRSMTEntry(inst.pc, inst.instr, nregs,
                           storage="specmem" if spec_mem else "rf")
        entry.regs_held = nregs * self._vect_factor
        entry.addr_operand = Operand(VEC, producer=prod,
                                     producer_generation=prod.generation,
                                     base=prod.decode)
        entry.event = prod.event
        if not self.srsmt.try_insert(entry):
            self._release_regs(nregs * self._vect_factor)
            self.stats.srsmt_alloc_failures += 1
            if self.obs is not None:
                self.obs.on_srsmt_alloc_fail(inst.pc, prod.event,
                                             "no-srsmt-way", self.core.cycle)
            return False
        self.scheduler.enqueue_batch(entry)
        self.stats.replicas_created += nregs
        self.stats.replica_batches += 1
        if self.obs is not None:
            self.obs.on_replicas_created(inst.pc, nregs, prod.event,
                                         self.core.cycle)
        return True

    def _create_load_entry(self, inst: "DynInst", stride: int, event) -> bool:
        nregs = self._alloc_replicas(self.cfg.replicas)
        if nregs == 0:
            if self.obs is not None:
                self.obs.on_srsmt_alloc_fail(inst.pc, event, "no-regs",
                                             self.core.cycle)
            return False
        spec_mem = self.pipeline.spec_mem
        entry = SRSMTEntry(inst.pc, inst.instr, nregs,
                           storage="specmem" if spec_mem else "rf")
        entry.regs_held = nregs * self._vect_factor
        entry.set_load_pattern(inst.eff_addr, stride)
        entry.event = event
        if not self.srsmt.try_insert(entry):
            self._release_regs(nregs * self._vect_factor)
            self.stats.srsmt_alloc_failures += 1
            if self.obs is not None:
                self.obs.on_srsmt_alloc_fail(inst.pc, event, "no-srsmt-way",
                                             self.core.cycle)
            return False
        self.scheduler.enqueue_batch(entry)
        self.stats.replicas_created += nregs
        self.stats.replica_batches += 1
        if self.obs is not None:
            self.obs.on_replicas_created(inst.pc, nregs, event,
                                         self.core.cycle)
        return True

    # -- ALU dependents: vectorize when a source is vectorized ------------
    def _dispatch_alu(self, inst: "DynInst") -> None:
        instr = inst.instr
        rename = self.core.rename
        entry = self.srsmt.lookup(inst.pc)
        if entry is not None:
            if self._validate(inst, entry):
                rename.vect_pc[instr.rd] = inst.pc
                return
            entry = None
        # Fast early-out (inlined _vect_pc_of): most ALU instructions have
        # no vectorized source and leave here after two table reads.
        vect_pc = rename.vect_pc
        undo = inst.rename_undo
        rd = instr.rd
        for r in instr.srcs:
            v = undo[2] if (undo is not None and r == rd) else vect_pc[r]
            if v is not None:
                break
        else:
            return
        if self._chronically_failing(inst.pc):
            return  # this PC (almost) never validates: stop churning
        operands: List[Operand] = []
        sregs = self.core.sregs
        for r in instr.srcs:
            vpc = self._vect_pc_of(inst, r)
            if vpc == inst.pc:
                # Self-recurrence: replica 0 seeds from this instance's
                # own output.
                operands.append(Operand(SELF, value=inst.result))
            elif vpc is not None:
                prod = self.srsmt.lookup(vpc)
                if prod is None:
                    operands.append(Operand(
                        SCALAR,
                        value=inst.sreg_old if r == instr.rd else sregs[r]))
                else:
                    operands.append(Operand(VEC, producer=prod,
                                            producer_generation=prod.generation,
                                            base=prod.decode))
            else:
                operands.append(Operand(
                    SCALAR,
                    value=inst.sreg_old if r == instr.rd else sregs[r]))
        # Attribute to the first producer's event (reuse chains propagate
        # their originating misprediction for Figure 5).
        event = next((o.producer.event for o in operands
                      if o.kind == VEC and o.producer is not None
                      and o.producer.event), None)
        nregs = self._alloc_replicas(self.cfg.replicas)
        if nregs == 0:
            if self.obs is not None:
                self.obs.on_srsmt_alloc_fail(inst.pc, event, "no-regs",
                                             self.core.cycle)
            return
        spec_mem = self.pipeline.spec_mem
        entry = SRSMTEntry(inst.pc, instr, nregs,
                           storage="specmem" if spec_mem else "rf")
        entry.regs_held = nregs * self._vect_factor
        entry.operands = operands
        entry.event = event
        if not self.srsmt.try_insert(entry):
            self._release_regs(nregs * self._vect_factor)
            self.stats.srsmt_alloc_failures += 1
            if self.obs is not None:
                self.obs.on_srsmt_alloc_fail(inst.pc, event, "no-srsmt-way",
                                             self.core.cycle)
            return
        self.scheduler.enqueue_batch(entry)
        self.stats.replicas_created += nregs
        self.stats.replica_batches += 1
        if self.obs is not None:
            self.obs.on_replicas_created(inst.pc, nregs, event,
                                         self.core.cycle)
        rename.vect_pc[instr.rd] = inst.pc

    # -- validation (step 4) ----------------------------------------------
    def _validate(self, inst: "DynInst", entry: SRSMTEntry) -> bool:
        """Try to reuse replica ``entry.decode`` for this dynamic instance.

        On success the instruction skips execution.  On failure the entry
        is deallocated (the paper recreates replicas with new operands; the
        re-creation happens naturally on a later fetch)."""
        instr = inst.instr
        idx = entry.decode
        obs = self.obs
        if idx >= entry.nregs:
            # Batch exhausted: re-batch immediately from this instance (it
            # executes normally and seeds the next replica set).  Waiting
            # for full commit would desynchronise chained entries.
            event = entry.event
            self.srsmt.deallocate(entry)
            if obs is not None:
                obs.on_validation(inst.pc, event, False, "batch-exhausted",
                                  self.core.cycle)
            if instr.is_load:
                se = self.stride.confident(inst.pc)
                blacklist = self.cfg.ci_conflict_blacklist
                if se is not None \
                        and (self.greedy or se.selected) \
                        and not (blacklist and se.conflicts >= blacklist):
                    self._create_load_entry(inst, se.stride, event)
            # ALU entries are recreated by the dependent-vectorization
            # path on this same dispatch (caller re-checks sources).
            return False
        # The paper's check compares the producer identifiers (PCs)
        # currently in the rename table against seq1/seq2 — a producer that
        # merely started a new replica batch still matches; the value check
        # below arbitrates actual staleness.
        ok = entry.done[idx]
        reason = "ok" if ok else "replica-not-ready"
        if ok and instr.is_load:
            if entry.addr_operand is not None:
                opnd = entry.addr_operand
                if not (entry.addrs[idx] == inst.eff_addr
                        and self._vect_pc_of(inst, instr.rs1)
                        == opnd.seq_id()):
                    ok, reason = False, "producer-mismatch"
            elif inst.eff_addr != entry.replica_addr(idx):
                ok, reason = False, "stride-break"
        elif ok:
            for r, opnd in zip(instr.srcs, entry.operands):
                if opnd.kind == SELF:
                    continue
                if opnd.kind == VEC:
                    if self._vect_pc_of(inst, r) != opnd.seq_id():
                        ok, reason = False, "producer-mismatch"
                        break
                elif self._vect_pc_of(inst, r) is not None:
                    # A previously scalar operand became vectorized: the
                    # stored scalar value is stale by construction.
                    ok, reason = False, "stale-scalar"
                    break
        if ok and entry.values[idx] != inst.result:
            ok, reason = False, "value-mismatch"  # model-level safety net
        if ok:
            faults = self.pipeline.faults
            if faults is not None \
                    and faults.force_validation_failure(inst.pc):
                # Injected after the natural checks, so it only downgrades
                # a validation that would have succeeded — and then rides
                # the full failure path (stats, streaks, deallocation).
                ok, reason = False, "fault-injected"
        if obs is not None:
            obs.on_validation(inst.pc, entry.event, ok, reason,
                              self.core.cycle)
        if not ok:
            self.stats.replica_validation_failures += 1
            self._fail_streak[inst.pc] = min(
                32, self._fail_streak.get(inst.pc, 0) + 1)
            self.srsmt.deallocate(entry)
            return False
        self._fail_streak[inst.pc] = 0
        entry.decode += 1
        inst.validated = True
        inst.validated_entry = (entry, entry.generation)
        self.stats.replica_validations += 1
        self.pipeline.credit_reuse(entry.event)
        return True

    # ------------------------------------------------------------------
    # Recovery / commit.
    # ------------------------------------------------------------------
    def on_recovery(self) -> None:
        """A branch recovery happened: squash-younger the SRSMT."""
        dead = self.srsmt.on_recovery()
        if self.cfg.ci_daec:
            for entry in dead:
                self.srsmt.deallocate(entry)
        if self.cfg.ci_recovery_repair:
            self._repair_decode_cursors()

    def _repair_decode_cursors(self) -> None:
        """Advance decode past validations that survived the squash.

        The paper's plain decode<-commit rollback forgets in-flight
        validated instances that are older than the mispredicted branch;
        their replicas would be re-validated (and value-fail) on the next
        fetch, deallocating the whole batch.  A recovery-time repair scan
        of the window fixes the cursors (DESIGN.md §5)."""
        survivors: Dict[int, int] = {}
        for inst in self.core.window:
            if inst.validated and inst.validated_entry is not None \
                    and not inst.committed:
                entry, generation = inst.validated_entry
                if entry.generation == generation:
                    survivors[id(entry)] = survivors.get(id(entry), 0) + 1
        if not survivors:
            return
        for entry in self.srsmt.all_entries():
            n = survivors.get(id(entry))
            if n:
                entry.decode = min(entry.nregs, entry.commit + n)

    def on_commit(self, inst: "DynInst") -> None:
        """A non-branch instruction retired: train + advance cursors."""
        instr = inst.instr
        if instr.is_load:
            self.stride.update(inst.pc, inst.eff_addr)
        if inst.validated and inst.validated_entry is not None:
            entry, generation = inst.validated_entry
            if entry.generation == generation and entry.commit < entry.nregs:
                # The replica's register keeps holding the value until the
                # whole batch retires (stretched lifetimes, Section 2.4.2);
                # deallocation/re-batch releases the set.
                entry.commit += 1

    def on_store_commit(self, inst: "DynInst") -> bool:
        if not self.srsmt:
            return False  # nothing replicated: nothing to check
        conflict = False
        addr = inst.eff_addr
        exact = self.cfg.ci_exact_range_check
        for entry in self.srsmt.all_entries():
            if not entry.contains_addr(addr):
                continue
            if exact and entry.stride and (addr - entry.range_lo) % abs(entry.stride):
                continue  # store falls between the replicas' addresses
            # De-select the load so it does not immediately re-vectorize
            # into the same store stream (it must be re-selected by a
            # future misprediction event first).
            se = self.stride.lookup(entry.pc)
            if se is not None:
                se.selected = False
                se.conflicts += 1
            if self.obs is not None:
                self.obs.on_coherence_conflict(entry.pc, addr,
                                               self.core.cycle)
            self.srsmt.deallocate(entry)
            conflict = True
        return conflict

    # ------------------------------------------------------------------
    # Per-cycle replica execution.
    # ------------------------------------------------------------------
    def dispatch_gate(self) -> bool:
        if not self._vect_wait:
            return True
        # The stalled in-pipeline vector instruction blocks dispatch until
        # enough registers free up; under real shortage that means waiting
        # for the machine to drain — the thrashing behaviour that makes the
        # full vectorization scheme collapse on small register files.
        if self.core.freelist.free_at_least(
                self.cfg.replicas * self._vect_factor + 16):
            self._vect_wait = False
            return True
        if not self.core.window:
            # Fully drained: reclaim dead vector register sets and resume.
            for e in self.srsmt.all_entries():
                if e.decode == e.commit and e.issue == 0:
                    self.srsmt.deallocate(e)
            self._vect_wait = False
            return True
        return False

    def on_cycle(self, leftover_issue_slots: int, ports: "PortState") -> None:
        now = self.core.cycle
        self.scheduler.drain_completions(now)
        spec_mem = self.pipeline.spec_mem
        max_writes = (spec_mem.write_ports if spec_mem else None)
        self.scheduler.issue(now, leftover_issue_slots, ports, self.stats,
                             max_mem_writes=max_writes)

    def next_event_cycle(self):
        if self._vect_wait:
            # The dispatch gate's drain/reclaim logic must re-evaluate the
            # free list every cycle while a vector instruction is stalled.
            return 0
        sched = self.scheduler
        if sched.pending:
            return 0  # replicas may issue with leftover slots any cycle
        if sched.completions:
            # Operand-blocked replicas are parked on producer completions;
            # the next drain is the next possible wake-up.
            return sched.completions[0][0]
        return None
