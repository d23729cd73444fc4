"""Unit tests for the superscalar substrate's components."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch import (
    CacheConfig,
    CacheLevel,
    FreeList,
    Gshare,
    MemoryHierarchy,
    ProcessorConfig,
    RenameTable,
    ci,
    scal,
    wb,
    with_spec_mem,
)
from repro.uarch.funits import FUPool
from repro.isa import FU_SLOT, FUClass, assemble


class TestGshare:
    def test_learns_always_taken(self):
        g = Gshare(10)
        for _ in range(8):
            taken = g.predict(100)
            g.speculate(True)
            g.train(100, g.history >> 1, True)
        assert g.predict(100) is True

    def test_learns_alternation_with_history(self):
        g = Gshare(12)
        outcome = True
        correct = 0
        for i in range(200):
            h = g.checkpoint()
            pred = g.predict(64)
            g.speculate(outcome)
            g.train(64, h, outcome)
            if i >= 100 and pred == outcome:
                correct += 1
            outcome = not outcome
        assert correct >= 95  # alternating pattern is learnable

    def test_recover_restores_history(self):
        g = Gshare(8)
        h0 = g.checkpoint()
        g.speculate(True)
        g.speculate(True)
        g.recover(h0, False)
        assert g.history == ((h0 << 1) & g.mask)

    def test_history_wraps_to_mask(self):
        g = Gshare(4)
        for _ in range(100):
            g.speculate(True)
        assert g.history == 0xF


class TestCaches:
    def make(self, size=1024, assoc=2, line=32):
        return CacheLevel(CacheConfig(size, assoc, line, 1))

    def test_miss_then_hit(self):
        c = self.make()
        assert not c.access(0x100)
        assert c.access(0x100)
        assert c.access(0x11F)  # same 32B line
        assert not c.access(0x120)  # next line

    def test_lru_eviction(self):
        c = self.make(size=2 * 32 * 2, assoc=2, line=32)  # 2 sets, 2 ways
        sets = c.num_sets
        a, b, d = 0, sets * 32, 2 * sets * 32  # all map to set 0
        c.access(a)
        c.access(b)
        c.access(d)          # evicts a (LRU)
        assert not c.probe(a)
        assert c.probe(b) and c.probe(d)

    def test_probe_does_not_touch_lru(self):
        c = self.make(size=2 * 32 * 2, assoc=2, line=32)
        sets = c.num_sets
        a, b, d = 0, sets * 32, 2 * sets * 32
        c.access(a)
        c.access(b)
        c.probe(a)           # must NOT refresh a
        c.access(d)          # evicts a
        assert not c.probe(a)

    def test_hierarchy_latencies(self):
        h = MemoryHierarchy(ProcessorConfig())
        lat_cold = h.load_latency(0x4000, now=0)
        assert lat_cold == 100  # cold: misses everywhere -> memory
        lat_hot = h.load_latency(0x4000, now=200)
        assert lat_hot == 1

    def test_l2_hit_after_l1_eviction(self):
        cfg = ProcessorConfig(l1d=CacheConfig(64, 1, 32, 1))  # tiny L1
        h = MemoryHierarchy(cfg)
        h.load_latency(0x0, now=0)
        h.load_latency(0x40, now=110)   # evicts line 0 from 2-set L1
        h.load_latency(0x80, now=220)
        lat = h.load_latency(0x0, now=330)
        assert lat == cfg.l2.hit_latency

    def test_mshr_limit_delays(self):
        cfg = ProcessorConfig(mshrs=1)
        h = MemoryHierarchy(cfg)
        l1 = h.load_latency(0x10000, now=0)
        l2 = h.load_latency(0x20000, now=0)   # must wait for first fill
        assert l2 > l1

    def test_store_allocates(self):
        h = MemoryHierarchy(ProcessorConfig())
        h.store_access(0x5000)
        assert h.load_latency(0x5000, now=300) == 1


class TestRenameTable:
    def test_write_and_restore(self):
        rt = RenameTable(strided_pcs_per_entry=2)
        rec = rt.snapshot_reg(5)
        tok = object()
        rt.write(5, tok, 42, (1, 2))
        assert rt.owner[5] is tok and rt.vect_pc[5] == 42
        rt.restore_reg(rec)
        assert rt.owner[5] is None and rt.vect_pc[5] is None
        assert rt.strided_pcs[5] == ()

    def test_strided_cap_and_overflow_count(self):
        rt = RenameTable(strided_pcs_per_entry=2)
        rt.write(1, None, None, (10, 20, 30))
        assert rt.strided_pcs[1] == (10, 20)
        assert rt.overflow_count == 1

    def test_merge_strided_dedups_preserving_order(self):
        rt = RenameTable(strided_pcs_per_entry=4)
        rt.write(1, None, None, (10, 20))
        rt.write(2, None, None, (20, 30))
        assert rt.merge_strided((1, 2)) == (10, 20, 30)

    def test_assignment_stats(self):
        rt = RenameTable(strided_pcs_per_entry=4)
        rt.write(1, None, None, (10,))
        rt.write(2, None, None, (10, 20))
        assert rt.assign_count == 2 and rt.assign_sum == 3

    def test_clear_owner_only_for_matching_inst(self):
        rt = RenameTable()
        a, b = object(), object()
        rt.write(3, a, None, ())
        rt.clear_owner_if(3, b)
        assert rt.owner[3] is a
        rt.clear_owner_if(3, a)
        assert rt.owner[3] is None


class TestFreeList:
    def test_alloc_release_roundtrip(self):
        fl = FreeList(4)
        assert fl.alloc(3)
        assert fl.in_use == 3
        assert not fl.alloc(2)
        fl.release(3)
        assert fl.in_use == 0

    def test_alloc_up_to(self):
        fl = FreeList(3)
        assert fl.alloc_up_to(5) == 3
        assert fl.alloc_up_to(1) == 0

    def test_double_release_asserts(self):
        fl = FreeList(1)
        fl.alloc(1)
        fl.release(1)
        with pytest.raises(AssertionError):
            fl.release(1)

    @given(st.lists(st.integers(min_value=1, max_value=8), max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_never_negative(self, requests):
        fl = FreeList(16)
        held = 0
        for n in requests:
            if fl.alloc(n):
                held += n
            elif held:
                fl.release(held)
                held = 0
            assert 0 <= fl.free <= 16


def _issues_per_cycle(src, cfg=None):
    """Issue count per cycle when ``src`` runs on the core."""
    from repro.observe.base import Observer
    from repro.uarch import simulate

    class IssueLog(Observer):
        def __init__(self):
            self.per_cycle = {}

        def on_issue(self, inst, cycle, latency):
            self.per_cycle[cycle] = self.per_cycle.get(cycle, 0) + 1

    log = IssueLog()
    simulate(assemble(src), cfg or ProcessorConfig(), observer=log)
    return [n for _, n in sorted(log.per_cycle.items())]


class TestFUPool:
    def test_capacities_match_table1(self):
        p = FUPool(ProcessorConfig())
        assert p.capacity[FU_SLOT[FUClass.INT_ALU]] == 6
        assert p.capacity[FU_SLOT[FUClass.INT_MUL]] == 3
        assert p.capacity[FU_SLOT[FUClass.FP_ADD]] == 4
        assert p.capacity[FU_SLOT[FUClass.FP_MUL]] == 2
        assert p.avail == list(p.capacity)

    def test_div_shares_mul_units(self):
        assert FU_SLOT[FUClass.INT_DIV] == FU_SLOT[FUClass.INT_MUL]
        assert FU_SLOT[FUClass.FP_DIV] == FU_SLOT[FUClass.FP_MUL]
        assert FU_SLOT[FUClass.BRANCH] == FU_SLOT[FUClass.INT_ALU]
        # Six independent multiplies and divides, dispatched together:
        # the three shared mul/div units issue at most three a cycle.
        body = [f"{'mul' if i % 2 else 'div'} r{1 + i}, r7, r8"
                for i in range(6)]
        counts = _issues_per_cycle("\n".join(body) + "\nhalt")
        assert counts == [3, 3]

    def test_reset_restores(self):
        # Twelve independent adds on one int ALU: the budget is spent in
        # each cycle and restored in the next, one issue per cycle.
        body = [f"addi r{1 + i % 6}, r0, {i}" for i in range(12)]
        counts = _issues_per_cycle("\n".join(body) + "\nhalt",
                                   ProcessorConfig(num_int_alu=1))
        assert counts == [1] * 12


class TestConfigs:
    def test_presets(self):
        assert scal(2).l1d_ports == 2 and not scal(2).wide_bus
        assert wb(1).wide_bus and wb(1).ci_policy is None
        c = ci(2, regs=512)
        assert c.ci_policy == "ci" and c.wide_bus and c.phys_regs == 512

    def test_spec_mem_wrapper(self):
        c = with_spec_mem(ci(1), 768)
        assert c.spec_mem_size == 768 and c.spec_mem_latency == 2

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            ProcessorConfig(ci_policy="bogus")

    def test_too_few_regs_rejected(self):
        with pytest.raises(ValueError):
            ProcessorConfig(phys_regs=32)

    def test_rename_regs(self):
        assert ProcessorConfig(phys_regs=256).rename_regs == 192
