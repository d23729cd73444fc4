"""SRSMT — Scalar Register Set Map Table — and replica scheduling.

Each entry (Figure 6) manages one vectorized static instruction's set of
speculative replicas: the allocated destination registers (or speculative-
data-memory positions), the ``decode``/``commit`` validation cursors, the
in-flight ``issue`` count, the DAEC dead-association counter, the producer
identifiers ``seq1``/``seq2``, and — for loads — the address ``Range`` the
replicas read (used by the store coherence check of Section 2.4.3).

Replicas themselves are lightweight µops executed by :class:`ReplicaScheduler`
with *leftover* issue slots and cache ports only (Section 2.4.1: lowest
priority, never squashed by branch recoveries, retired at write-back).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..isa import ALU_EVAL, FU_LATENCY, Instruction
from .assoc import SetAssocTable

#: operand kinds for vectorized ALU instructions
VEC, SELF, SCALAR = "vec", "self", "scalar"


@dataclass
class Operand:
    """One source of a vectorized ALU instruction.

    ``vec``    — produced by another vectorized instruction; replica *n*
                 of the consumer uses the producer's replica ``base + n``.
    ``self``   — the instruction's own previous output (accumulators);
                 replica 0 seeds from the triggering dynamic instance.
    ``scalar`` — a plain register value captured at vectorization time.
    """

    kind: str
    producer: Optional["SRSMTEntry"] = None
    producer_generation: int = -1
    base: int = 0
    value: int = 0

    def seq_id(self) -> Optional[int]:
        """The paper's seq field: producer PC for vector operands."""
        return self.producer.pc if self.kind == VEC and self.producer else None


class SRSMTEntry:
    """One vectorized static instruction's replica set."""

    __slots__ = (
        "pc", "instr", "is_load", "nregs", "decode", "commit", "issue",
        "daec", "base_addr", "stride", "range_lo", "range_hi", "operands",
        "values", "done", "issued", "event", "generation", "regs_held",
        "storage", "addr_operand", "addrs",
    )

    def __init__(self, pc: int, instr: Instruction, nregs: int,
                 storage: str = "rf"):
        self.pc = pc
        self.instr = instr
        self.is_load = instr.is_load
        self.nregs = nregs
        self.decode = 0
        self.commit = 0
        self.issue = 0
        self.daec = 0
        self.base_addr = 0
        self.stride = 0
        self.range_lo = 0
        self.range_hi = 0
        self.operands: List[Operand] = []
        self.values: List[Optional[int]] = [None] * nregs
        self.done: List[bool] = [False] * nregs
        self.issued: List[bool] = [False] * nregs
        self.event = None
        self.generation = 0
        self.regs_held = nregs
        self.storage = storage
        #: dependent ("gather") loads: address comes from a vectorized
        #: producer instead of a stride pattern (step 3's dependence rule)
        self.addr_operand: Optional[Operand] = None
        self.addrs: List[Optional[int]] = [None] * nregs

    def set_load_pattern(self, base_addr: int, stride: int) -> None:
        self.base_addr = base_addr
        self.stride = stride
        addrs = [base_addr + stride * (i + 1) for i in range(self.nregs)]
        self.range_lo = min(addrs)
        self.range_hi = max(addrs)

    def replica_addr(self, idx: int) -> int:
        return self.base_addr + self.stride * (idx + 1)

    def contains_addr(self, addr: int) -> bool:
        """Conservative Range check for the store coherence mechanism."""
        if not self.is_load:
            return False
        if self.addr_operand is not None:
            return any(a == addr for a in self.addrs if a is not None)
        return self.range_lo <= addr <= self.range_hi

    def rollback_decode(self) -> None:
        """Branch-misprediction recovery: copy commit into decode."""
        self.decode = self.commit

    def __repr__(self) -> str:  # pragma: no cover
        kind = "LD" if self.is_load else self.instr.op.name
        return (f"<SRSMT pc={self.pc} {kind} n={self.nregs} "
                f"d={self.decode} c={self.commit} daec={self.daec}>")


class SRSMT:
    """The table proper: 4-way × 64-set, LRU within a set.

    Deallocation requires ``decode == commit`` and ``issue == 0``; the
    engine passes a ``release`` callback that returns the entry's registers
    to whichever pool they came from.
    """

    def __init__(self, sets: int = 64, ways: int = 4,
                 release: Optional[Callable[["SRSMTEntry"], None]] = None):
        self.table: SetAssocTable[SRSMTEntry] = SetAssocTable(sets, ways)
        self.release = release or (lambda e: None)
        #: flat pc → entry mirror of the table.  ``lookup`` runs on the
        #: per-dispatch hot path; the set-associative walk only matters
        #: for capacity and eviction policy, so reads take the flat path.
        self._by_pc: dict = {}

    def lookup(self, pc: int) -> Optional[SRSMTEntry]:
        return self._by_pc.get(pc)

    def deallocate(self, entry: SRSMTEntry) -> None:
        """Free an entry and its remaining resources."""
        entry.generation += 1
        self.release(entry)
        entry.regs_held = 0
        self.table.remove(entry.pc)
        self._by_pc.pop(entry.pc, None)

    def try_insert(self, entry: SRSMTEntry) -> bool:
        """Insert a new entry, evicting a dead LRU entry if necessary.

        An entry can be evicted only when its replicas are neither awaited
        (decode == commit) nor executing (issue == 0) — Section 2.3.3.
        """
        s = self.table._set_of(entry.pc)
        if entry.pc in s:
            self.deallocate(s[entry.pc])
        if len(s) >= self.table.ways:
            victim = None
            for e in s.values():  # oldest (LRU) first
                if e.decode == e.commit and e.issue == 0:
                    victim = e
                    break
            if victim is None:
                return False
            self.deallocate(victim)
        self.table.insert(entry.pc, entry)
        self._by_pc[entry.pc] = entry
        return True

    def all_entries(self) -> List[SRSMTEntry]:
        # Snapshot from the flat mirror: callers deallocate while
        # iterating, and the store-coherence check runs per committed
        # store — walking the 64 per-set dicts each time is pure waste.
        return list(self._by_pc.values())

    def __bool__(self) -> bool:
        return bool(self._by_pc)

    def on_recovery(self) -> List[SRSMTEntry]:
        """Branch-misprediction recovery (Sections 2.3.3 / 2.4.2 / 2.4.4).

        Rolls every entry's decode cursor back to its commit cursor and
        applies the DAEC policy; returns entries whose DAEC expired (the
        caller deallocates them).
        """
        dead: List[SRSMTEntry] = []
        for e in self.all_entries():
            if e.decode == e.commit:
                e.daec += 1
                if e.daec >= 2:
                    dead.append(e)
            else:
                e.daec = 0
            e.rollback_decode()
        return dead


class ReplicaScheduler:
    """Executes replica µops with leftover issue slots and cache ports."""

    def __init__(self, load_latency: Callable[[int, int], int],
                 mem_read: Callable[[int], int]):
        #: scannable replicas, a heap of (idx, serial, entry, generation).
        #: The serial is a global enqueue counter, so (idx, serial) is a
        #: unique key reproducing the paper's replica-index issue order
        #: (same-index replicas in batch-arrival order) no matter how
        #: items move between this heap and the wait lists — and when the
        #: per-cycle issue budget runs out the scan just stops popping,
        #: leaving the untouched tail exactly where it is.
        self.pending: List[Tuple[int, int, SRSMTEntry, int]] = []
        #: executing replicas, a heap of (cycle, tick, entry, idx,
        #: generation); the tick is unique, so entries are never compared
        self.completions: List[Tuple[int, int, SRSMTEntry, int, int]] = []
        self._tick = 0
        self._serial = 0
        self.load_latency = load_latency
        self.mem_read = mem_read
        #: operand-blocked replicas parked off the scan path, keyed by the
        #: producer replica they wait on: (id(producer_entry), replica_idx)
        #: → items.  A drained completion for that replica re-activates
        #: them.  Replica readiness is monotonic (``done`` flags are only
        #: ever set, never cleared; deallocation kills by generation), so
        #: parking is sound: a parked item can never become issuable before
        #: its wake event.  Deallocating a producer kills every item parked
        #: on it, so the SRSMT drops its lists then (:meth:`drop_waiters`).
        self._waiters: dict = {}

    def enqueue_batch(self, entry: SRSMTEntry) -> None:
        serial = self._serial
        gen = entry.generation
        push = heapq.heappush
        for i in range(entry.nregs):
            push(self.pending, (i, serial + i, entry, gen))
        self._serial = serial + entry.nregs

    _DEAD = object()

    def _operand_value(self, entry: SRSMTEntry, opnd: Operand, idx: int):
        """The operand's value, None if still pending, _DEAD if unobtainable."""
        if opnd.kind == SCALAR:
            return opnd.value
        if opnd.kind == SELF:
            if idx == 0:
                return opnd.value
            return entry.values[idx - 1] if entry.done[idx - 1] else None
        prod = opnd.producer
        if prod is None or prod.generation != opnd.producer_generation:
            return self._DEAD
        j = opnd.base + idx
        if j >= prod.nregs:
            return self._DEAD
        if not prod.done[j]:
            return None
        return prod.values[j]

    def drop_waiters(self, entry: SRSMTEntry) -> None:
        """Forget the replicas parked on ``entry``'s outputs.

        Called when the SRSMT deallocates ``entry``: every replica waiting
        on it is dead by generation, and one whose producer replica never
        issued would otherwise stay parked, holding its batch and
        operands, until the run ends."""
        waiters = self._waiters
        if waiters:
            eid = id(entry)
            for idx in range(entry.nregs):
                waiters.pop((eid, idx), None)

    def drain_completions(self, now: int) -> None:
        completions = self.completions
        while completions and completions[0][0] <= now:
            _, _, e, idx, generation = heapq.heappop(completions)
            woken = self._waiters.pop((id(e), idx), None)
            if woken is not None:
                # Re-activate parked consumers; the (idx, serial) heap key
                # restores their exact scan position.
                for item in woken:
                    heapq.heappush(self.pending, item)
            if e.generation != generation:
                continue  # entry was deallocated while executing
            e.done[idx] = True
            e.issue -= 1

    def issue(self, now: int, slots: int, ports, stats,
              max_mem_writes: Optional[int] = None) -> int:
        """Issue up to ``slots`` ready replicas; returns the number issued."""
        pending = self.pending
        if slots <= 0 or not pending:
            return 0
        issued = 0
        writes = 0
        # Resource-blocked items (cache ports are a per-cycle resource)
        # go back on the heap after the scan — appending them during the
        # scan could re-pop them in the same cycle.
        keep: List[Tuple[int, int, SRSMTEntry, int]] = []
        waiters = self._waiters
        pop = heapq.heappop
        wide_bus = ports.cfg.wide_bus
        line_size = ports.hierarchy.l1.line
        ports_left = ports.ports_left
        open_lines = ports.open_lines
        # Issue in replica-index order so sibling entries' same-iteration
        # loads (which usually share a cache line) group into one wide
        # access, as the scalar loads they shadow would.  The heap pops
        # in (idx, serial) order; when the budget runs out we simply stop.
        while pending:
            if issued >= slots or (max_mem_writes is not None
                                   and writes >= max_mem_writes):
                break
            item = pop(pending)
            idx, _serial, entry, gen = item
            if entry.generation != gen:
                continue  # dead batch: drop silently
            value: Optional[int] = None
            lat = 0
            if entry.is_load:
                if entry.addr_operand is not None:
                    opnd = entry.addr_operand
                    base = self._operand_value(entry, opnd, idx)
                    if base is self._DEAD:
                        continue
                    if base is None:
                        key = ((id(entry), idx - 1) if opnd.kind == SELF
                               else (id(opnd.producer), opnd.base + idx))
                        waiters.setdefault(key, []).append(item)
                        continue
                    addr = (base + entry.instr.imm) & ((1 << 64) - 1)
                else:
                    addr = entry.replica_addr(idx)
                # Port arbitration, as in Core._issue.
                line = addr // line_size
                free = open_lines.get(line, 0) if wide_bus else 0
                if free > 0:
                    open_lines[line] = free - 1
                elif ports_left > 0:
                    ports_left -= 1
                    if wide_bus:
                        open_lines[line] = ports.cfg.wide_loads_per_access - 1
                    stats.l1d_accesses += 1
                    stats.l1d_replica_accesses += 1
                else:
                    keep.append(item)
                    continue
                entry.addrs[idx] = addr
                value = self.mem_read(addr)
                lat = self.load_latency(addr, now)
            else:
                # Inlined _operand_value: collect values until the first
                # not-yet-done producer replica, and park on it.
                vals = []
                dead = False
                wait_key = None
                for opnd in entry.operands:
                    kind = opnd.kind
                    if kind == SCALAR:
                        vals.append(opnd.value)
                        continue
                    if kind == SELF:
                        if idx == 0:
                            vals.append(opnd.value)
                            continue
                        if entry.done[idx - 1]:
                            vals.append(entry.values[idx - 1])
                            continue
                        wait_key = (id(entry), idx - 1)
                        break
                    prod = opnd.producer
                    if prod is None \
                            or prod.generation != opnd.producer_generation:
                        dead = True
                        break
                    j = opnd.base + idx
                    if j >= prod.nregs:
                        dead = True
                        break
                    if not prod.done[j]:
                        wait_key = (id(prod), j)
                        break
                    vals.append(prod.values[j])
                if dead:
                    continue  # producers gone: replica can never execute
                if wait_key is not None:
                    waiters.setdefault(wait_key, []).append(item)
                    continue
                a = vals[0] if vals else 0
                b = vals[1] if len(vals) > 1 else 0
                value = ALU_EVAL[entry.instr.op](a, b, entry.instr.imm)
                lat = FU_LATENCY[entry.instr.fu_class]
            entry.values[idx] = value
            entry.issued[idx] = True
            entry.issue += 1
            issued += 1
            writes += 1
            stats.replicas_executed += 1
            self._tick += 1
            heapq.heappush(self.completions,
                           (now + lat, self._tick, entry, idx,
                            entry.generation))
        ports.ports_left = ports_left
        for item in keep:
            heapq.heappush(pending, item)
        return issued
