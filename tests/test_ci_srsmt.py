"""Unit tests for the SRSMT table and replica scheduler."""

import pytest

from repro.ci.srsmt import (
    SCALAR,
    SELF,
    VEC,
    Operand,
    ReplicaScheduler,
    SRSMT,
    SRSMTEntry,
)
from repro.isa import Op, assemble
from repro.uarch import PortState, ProcessorConfig, SimStats
from repro.uarch.caches import MemoryHierarchy


def load_instr(pc=0):
    return assemble("\n".join(["nop"] * pc + ["ld r1, 0(r2)"])).code[pc]


def alu_instr(src="add r3, r3, r1", pc=0):
    return assemble("\n".join(["nop"] * pc + [src])).code[pc]


def make_ports(cfg=None, stats=None):
    cfg = cfg or ProcessorConfig(wide_bus=True, l1d_ports=2)
    stats = stats or SimStats()
    return PortState(cfg, stats, MemoryHierarchy(cfg)), stats


class TestSRSMTEntry:
    def test_load_pattern_range(self):
        e = SRSMTEntry(0, load_instr(), nregs=4)
        e.set_load_pattern(1000, 8)
        assert [e.replica_addr(i) for i in range(4)] == [1008, 1016, 1024, 1032]
        assert e.range_lo == 1008 and e.range_hi == 1032
        assert e.contains_addr(1016) and not e.contains_addr(1000)

    def test_negative_stride_range(self):
        e = SRSMTEntry(0, load_instr(), nregs=2)
        e.set_load_pattern(1000, -8)
        assert e.range_lo == 984 and e.range_hi == 992

    def test_non_load_never_contains(self):
        e = SRSMTEntry(0, alu_instr(), nregs=2)
        assert not e.contains_addr(0)

    def test_rollback_decode(self):
        e = SRSMTEntry(0, load_instr(), nregs=4)
        e.decode, e.commit = 3, 1
        e.rollback_decode()
        assert e.decode == 1

    def test_dep_load_contains_realised_addrs(self):
        e = SRSMTEntry(0, load_instr(), nregs=2)
        e.addr_operand = Operand(SCALAR, value=0)
        e.addrs = [2000, None]
        assert e.contains_addr(2000) and not e.contains_addr(2008)


class TestSRSMTTable:
    def test_insert_lookup_dealloc(self):
        released = []
        t = SRSMT(sets=4, ways=2, release=released.append)
        e = SRSMTEntry(5, load_instr(), 4)
        assert t.try_insert(e)
        assert t.lookup(5) is e
        t.deallocate(e)
        assert t.lookup(5) is None
        assert released == [e]
        assert e.generation == 1

    def test_eviction_requires_dead_entry(self):
        t = SRSMT(sets=1, ways=1)
        busy = SRSMTEntry(0, load_instr(), 4)
        busy.decode = 2  # decode != commit: in use
        assert t.try_insert(busy)
        fresh = SRSMTEntry(1, load_instr(), 4)
        assert not t.try_insert(fresh)
        busy.decode = busy.commit = 2
        assert t.try_insert(fresh)

    def test_same_pc_replaces(self):
        t = SRSMT(sets=4, ways=2)
        a = SRSMTEntry(5, load_instr(), 4)
        b = SRSMTEntry(5, load_instr(), 4)
        t.try_insert(a)
        assert t.try_insert(b)
        assert t.lookup(5) is b and a.generation == 1

    def test_recovery_rolls_back_and_daec(self):
        t = SRSMT()
        used = SRSMTEntry(1, load_instr(), 4)
        used.decode = 2
        idle = SRSMTEntry(2, load_instr(), 4)
        t.try_insert(used)
        t.try_insert(idle)
        dead = t.on_recovery()
        assert dead == [] and used.daec == 0 and idle.daec == 1
        assert used.decode == used.commit == 0
        dead = t.on_recovery()
        assert idle in dead  # DAEC reached 2


class TestReplicaScheduler:
    def make_sched(self, mem=None):
        mem = mem if mem is not None else {}
        return ReplicaScheduler(load_latency=lambda a, n: 1,
                                mem_read=lambda a: mem.get(a, 0))

    def test_strided_load_replicas_execute(self):
        mem = {1008: 11, 1016: 22, 1024: 33, 1032: 44}
        s = self.make_sched(mem)
        e = SRSMTEntry(0, load_instr(), 4)
        e.set_load_pattern(1000, 8)
        s.enqueue_batch(e)
        ports, stats = make_ports()
        assert s.issue(now=1, slots=8, ports=ports, stats=stats) == 4
        s.drain_completions(now=2)
        assert e.values == [11, 22, 33, 44]
        assert all(e.done) and e.issue == 0
        assert stats.replicas_executed == 4

    def test_port_limited_issue(self):
        cfg = ProcessorConfig(wide_bus=False, l1d_ports=1)
        s = self.make_sched()
        e = SRSMTEntry(0, load_instr(), 4)
        e.set_load_pattern(1000, 8)
        s.enqueue_batch(e)
        ports, stats = make_ports(cfg)
        assert s.issue(1, slots=8, ports=ports, stats=stats) == 1
        assert len(s.pending) == 3

    def test_wide_bus_groups_replica_loads(self):
        s = self.make_sched()
        e = SRSMTEntry(0, load_instr(), 4)
        e.set_load_pattern(1000, 8)  # 1008..1032 span two 32B lines
        s.enqueue_batch(e)
        ports, stats = make_ports()
        s.issue(1, slots=8, ports=ports, stats=stats)
        assert stats.l1d_replica_accesses == 2

    def test_alu_chain_waits_for_producer(self):
        s = self.make_sched({1008: 7})
        prod = SRSMTEntry(0, load_instr(), 2)
        prod.set_load_pattern(1000, 8)
        cons = SRSMTEntry(1, alu_instr("addi r3, r1, 5", pc=0), 2)
        cons.operands = [Operand(VEC, producer=prod, producer_generation=0,
                                 base=0)]
        s.enqueue_batch(prod)
        s.enqueue_batch(cons)
        ports, stats = make_ports()
        s.issue(1, 8, ports, stats)       # loads go; ALUs wait
        assert not any(cons.done)
        s.drain_completions(2)
        ports2, _ = make_ports(stats=stats)
        s.issue(2, 8, ports2, stats)
        s.drain_completions(3)
        assert cons.values[0] == 12       # 7 + 5

    def test_self_recurrent_chain(self):
        s = self.make_sched()
        e = SRSMTEntry(0, alu_instr("addi r3, r3, 2", pc=0), 3)
        e.operands = [Operand(SELF, value=10)]
        s.enqueue_batch(e)
        for cyc in range(1, 8):
            ports, stats = make_ports()
            s.drain_completions(cyc)
            s.issue(cyc, 8, ports, SimStats())
        s.drain_completions(99)
        assert e.values == [12, 14, 16]

    def test_dead_generation_dropped(self):
        s = self.make_sched()
        e = SRSMTEntry(0, load_instr(), 4)
        e.set_load_pattern(1000, 8)
        s.enqueue_batch(e)
        e.generation += 1  # deallocated
        ports, stats = make_ports()
        assert s.issue(1, 8, ports, stats) == 0
        assert not s.pending

    def test_dead_producer_drops_consumer(self):
        s = self.make_sched()
        prod = SRSMTEntry(0, load_instr(), 2)
        prod.set_load_pattern(1000, 8)
        cons = SRSMTEntry(1, alu_instr("addi r3, r1, 5", pc=0), 2)
        cons.operands = [Operand(VEC, producer=prod, producer_generation=0,
                                 base=0)]
        s.enqueue_batch(cons)
        prod.generation += 1
        ports, stats = make_ports()
        s.issue(1, 8, ports, stats)
        assert not s.pending  # consumers silently dropped

    def test_slot_budget_respected(self):
        s = self.make_sched()
        e = SRSMTEntry(0, load_instr(), 4)
        e.set_load_pattern(1000, 8)
        s.enqueue_batch(e)
        ports, stats = make_ports()
        assert s.issue(1, slots=2, ports=ports, stats=stats) == 2

    def test_scalar_operands_always_ready(self):
        s = self.make_sched()
        e = SRSMTEntry(0, alu_instr("add r3, r1, r2", pc=0), 2)
        e.operands = [Operand(SCALAR, value=4), Operand(SCALAR, value=6)]
        s.enqueue_batch(e)
        ports, stats = make_ports()
        s.issue(1, 8, ports, stats)
        s.drain_completions(5)
        assert e.values == [10, 10]
