"""Unit tests for the mechanism's hardware structures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ci import (
    CRP,
    MBS,
    NRBQ,
    SpecDataMemory,
    SquashReuseBuffer,
    StridePredictor,
)
from repro import hooks_for
from repro.ci.assoc import SetAssocTable
from repro.ci.mbs import COUNTER_MAX, COUNTER_MID
from repro.uarch import Core, ci, with_spec_mem
from repro.workloads import build_program


class TestSetAssocTable:
    def test_insert_lookup(self):
        t = SetAssocTable(4, 2)
        t.insert(8, "a")
        assert t.lookup(8) == "a"
        assert t.lookup(12) is None

    def test_conflict_eviction_lru(self):
        t = SetAssocTable(4, 2)
        t.insert(0, "a")
        t.insert(4, "b")   # same set (0 % 4 == 4 % 4)
        t.lookup(0)        # refresh a -> b becomes LRU
        t.insert(8, "c")   # evicts b
        assert t.lookup(4) is None
        assert t.lookup(0) == "a" and t.lookup(8) == "c"

    def test_insert_returns_evicted(self):
        t = SetAssocTable(1, 1)
        assert t.insert(1, "a") is None
        assert t.insert(2, "b") == (1, "a")

    def test_reinsert_same_key_no_eviction(self):
        t = SetAssocTable(1, 2)
        t.insert(1, "a")
        t.insert(3, "b")
        assert t.insert(1, "a2") is None
        assert t.lookup(1) == "a2" and len(t) == 2

    def test_remove(self):
        t = SetAssocTable(2, 2)
        t.insert(5, "x")
        assert t.remove(5) == "x"
        assert t.remove(5) is None

    def test_different_sets_do_not_conflict(self):
        t = SetAssocTable(4, 1)
        for k in range(4):
            t.insert(k, k)
        assert len(t) == 4

    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_capacity_invariant(self, keys):
        t = SetAssocTable(4, 2)
        for k in keys:
            t.insert(k, k)
        assert len(t) <= 8
        for s in t._sets:
            assert len(s) <= 2


class TestMBS:
    def test_unknown_branch_is_hard(self):
        assert MBS().is_hard(100)

    def test_biased_taken_becomes_easy(self):
        m = MBS()
        for _ in range(8):
            m.update(10, True)
        assert not m.is_hard(10)

    def test_biased_not_taken_becomes_easy(self):
        m = MBS()
        for _ in range(9):
            m.update(10, False)
        assert not m.is_hard(10)

    def test_alternation_stays_hard(self):
        m = MBS()
        taken = True
        for _ in range(50):
            m.update(10, taken)
            taken = not taken
        assert m.is_hard(10)

    def test_direction_flip_resets_to_middle(self):
        m = MBS()
        for _ in range(8):
            m.update(10, True)   # saturate at max
        m.update(10, False)      # flip -> reset to middle
        e = m.table.lookup(10)
        assert e.counter == COUNTER_MID
        assert m.is_hard(10)

    def test_counter_saturates(self):
        m = MBS()
        for _ in range(40):
            m.update(10, True)
        assert m.table.lookup(10).counter == COUNTER_MAX


class TestStridePredictor:
    def test_confidence_builds_with_stable_stride(self):
        p = StridePredictor()
        for i in range(5):
            p.update(7, 1000 + 8 * i)
        e = p.confident(7)
        assert e is not None and e.stride == 8

    def test_not_confident_initially(self):
        p = StridePredictor()
        p.update(7, 1000)
        p.update(7, 1008)
        assert p.confident(7) is None

    def test_zero_stride_never_confident(self):
        p = StridePredictor()
        for _ in range(6):
            p.update(7, 1000)
        assert p.confident(7) is None

    def test_stride_change_decays_then_relearns(self):
        p = StridePredictor()
        for i in range(6):
            p.update(7, 1000 + 8 * i)
        for i in range(8):
            p.update(7, 5000 + 16 * i)
        e = p.confident(7)
        assert e is not None and e.stride == 16

    def test_mark_selected_sets_s_flag(self):
        p = StridePredictor()
        p.update(7, 0)
        assert p.mark_selected(7)
        assert p.lookup(7).selected

    def test_mark_selected_unknown_pc(self):
        assert not StridePredictor().mark_selected(99)

    def test_conflict_blacklist_blocks_reselection(self):
        p = StridePredictor()
        p.update(7, 0)
        p.lookup(7).conflicts = 2
        assert not p.mark_selected(7, conflict_blacklist=2)
        assert p.mark_selected(7, conflict_blacklist=0)  # disabled

    @given(st.integers(min_value=1, max_value=512),
           st.integers(min_value=4, max_value=12))
    @settings(max_examples=25, deadline=None)
    def test_any_constant_stride_learned(self, stride, n):
        p = StridePredictor()
        for i in range(n):
            p.update(3, 10_000 + stride * i)
        e = p.confident(3)
        assert e is not None and e.stride == stride


class TestNRBQAndCRP:
    def test_capacity_limit(self):
        q = NRBQ(capacity=2)
        assert q.on_branch_fetch(1, 2, seq=1)
        assert q.on_branch_fetch(3, 4, seq=2)
        assert q.on_branch_fetch(5, 6, seq=3) is None

    def test_retire_and_squash(self):
        q = NRBQ()
        for s in (1, 2, 3):
            q.on_branch_fetch(s * 10, s * 10 + 5, seq=s)
        q.squash_younger(2)
        assert [e.seq for e in q.entries] == [1, 2]
        q.on_branch_retire(1)
        assert [e.seq for e in q.entries] == [2]

    def test_crp_reached_and_selection_window(self):
        c = CRP()
        c.arm(branch_pc=10, branch_seq=5, reconv_pc=20, initial_mask=1 << 2)
        assert not c.on_decode(15, dest_reg=3)   # pre-reconv: dirties r3
        assert c.mask & (1 << 3)
        assert c.on_decode(20, dest_reg=4)       # reconv reached
        assert c.reached
        assert c.on_decode(21, dest_reg=None)    # post-reconv

    def test_crp_sources_clean(self):
        c = CRP()
        c.arm(10, 5, 20, initial_mask=(1 << 2) | (1 << 7))
        assert c.sources_clean((1, 3))
        assert not c.sources_clean((2,))
        assert not c.sources_clean((1, 7))

    def test_crp_disarm(self):
        c = CRP()
        c.arm(10, 5, 20, 0)
        c.disarm()
        assert not c.active and not c.on_decode(20, None)


class TestSquashReuse:
    class FakeInst:
        def __init__(self, pc, rd, srcs, result, done=True):
            self.pc = pc
            self.result = result
            self.done = done
            self.instr = type("I", (), {
                "rd": rd, "srcs": tuple(srcs), "is_store": False})()

    def test_harvest_post_reconv_clean(self):
        buf = SquashReuseBuffer()
        squashed = [
            self.FakeInst(11, 2, (2,), 5),      # wrong arm: writes r2
            self.FakeInst(20, 4, (4, 0), 9),    # reconv: clean
            self.FakeInst(21, 6, (2,), 1),      # depends on dirty r2
        ]
        n = buf.harvest(reconv_pc=20, initial_mask=0, squashed=squashed)
        assert n == 1
        assert 20 in buf.records and 21 not in buf.records

    def test_match_value_check(self):
        buf = SquashReuseBuffer()
        buf.harvest(20, 0, [self.FakeInst(20, 4, (), 9)])
        assert buf.match(20, 8) is None          # wrong value: rejected
        assert buf.match(20, 9) is None          # entry consumed by miss

    def test_match_consumes(self):
        buf = SquashReuseBuffer()
        buf.harvest(20, 0, [self.FakeInst(20, 4, (), 9)])
        assert buf.match(20, 9) is not None
        assert buf.match(20, 9) is None

    def test_initial_mask_blocks(self):
        buf = SquashReuseBuffer()
        n = buf.harvest(20, 1 << 0, [self.FakeInst(20, 4, (0,), 9)])
        assert n == 0

    def test_unreached_reconv_harvests_nothing(self):
        buf = SquashReuseBuffer()
        n = buf.harvest(99, 0, [self.FakeInst(20, 4, (), 9)])
        assert n == 0

    def test_poisoning_propagates(self):
        buf = SquashReuseBuffer()
        squashed = [
            self.FakeInst(20, 4, (9,), 9),       # reconv, clean -> harvested
            self.FakeInst(21, 5, (8,), 1),       # dirty source r8
            self.FakeInst(22, 6, (5,), 2),       # depends on poisoned r5
        ]
        n = buf.harvest(20, 1 << 8, squashed)
        assert n == 1 and 22 not in buf.records


class TestSpecDataMemory:
    """Latency/ports live in ``SpecDataMemory``; its positions are the
    replica manager's second ``FreeList``."""

    @staticmethod
    def replicas(positions):
        cfg = with_spec_mem(ci(1), positions)
        core = Core(cfg, build_program("bzip2", 0.05, 1),
                    hooks=hooks_for(cfg))
        return core.hooks.replicas

    def test_alloc_release(self):
        m = self.replicas(8)
        assert m._alloc_replicas(5) == 5
        assert m._alloc_replicas(5) == 3
        m._release_regs(8)
        assert m._positions.free == 8

    def test_alloc_failure_counted(self):
        m = self.replicas(2)
        m._alloc_replicas(2)
        m._alloc_replicas(1)
        assert m.stats.spec_mem_alloc_failures == 1

    def test_copy_latency_port_queueing(self):
        m = SpecDataMemory(latency=2, read_ports=2)
        lats = [m.copy_latency(10) for _ in range(5)]
        assert lats == [2, 2, 3, 3, 4]
        assert m.copy_latency(11) == 2  # new cycle resets the queue

    def test_double_release_asserts(self):
        m = self.replicas(1)
        with pytest.raises(AssertionError):
            m._release_regs(1)
