"""Tests for the functional interpreter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import InterpError, assemble, run
from repro.isa.opcodes import to_unsigned

HAMMOCK_SRC = """
.dataw a 5 0 3 0 0 7
    li r1, 0
    li r2, 0
    li r3, 0
    li r4, 0
loop:
    slli r5, r1, 3
    la  r6, a
    add r6, r6, r5
    ld  r0, 0(r6)
    beqz r0, else
    addi r2, r2, 1
    j ip
else:
    addi r3, r3, 1
ip: add r4, r4, r0
    addi r1, r1, 1
    slti r7, r1, 6
    bnez r7, loop
    halt
"""


class TestHammockProgram:
    """The paper's Figure 1 kernel: count zero/non-zero elements, sum all."""

    def test_counts_and_sum(self):
        r = run(assemble(HAMMOCK_SRC))
        assert r.halted
        assert r.reg(2) == 3   # non-zero elements
        assert r.reg(3) == 3   # zero elements
        assert r.reg(4) == 15  # sum

    def test_branch_statistics(self):
        r = run(assemble(HAMMOCK_SRC))
        # 6 iterations: 6 hammock branches + 6 loop-closing branches.
        assert r.branches == 12
        assert r.loads == 6

    def test_memory_untouched(self):
        p = assemble(HAMMOCK_SRC)
        r = run(p)
        assert r.stores == 0
        assert r.memory == p.initial_memory()


class TestBasics:
    def test_falls_off_end(self):
        r = run(assemble("addi r1, r1, 7"))
        assert not r.halted and r.reg(1) == 7

    def test_halt_stops(self):
        r = run(assemble("halt\naddi r1, r1, 7"))
        assert r.halted and r.reg(1) == 0

    def test_store_then_load(self):
        r = run(assemble("""
        .data buf 2
            la r1, buf
            li r2, 99
            st r2, 8(r1)
            ld r3, 8(r1)
            halt
        """))
        assert r.reg(3) == 99

    def test_uninitialised_memory_reads_zero(self):
        r = run(assemble(".data buf 1\nla r1, buf\nld r2, 0(r1)\nhalt"))
        assert r.reg(2) == 0

    def test_runaway_guard(self):
        with pytest.raises(InterpError):
            run(assemble("loop: j loop"), max_steps=100)

    def test_negative_values_roundtrip_memory(self):
        r = run(assemble("""
        .data buf 1
            la r1, buf
            li r2, -5
            st r2, 0(r1)
            ld r3, 0(r1)
            halt
        """))
        assert r.reg(3) == to_unsigned(-5)

    def test_trace_hook_sees_every_instruction(self):
        seen = []
        run(assemble("nop\nnop\nhalt"),
            trace_hook=lambda pc, i, res, ea: seen.append(pc))
        assert seen == [0, 1, 2]

    def test_trace_hook_reports_load_address(self):
        records = []
        run(assemble(".data buf 2\nla r1, buf\nld r2, 8(r1)\nhalt"),
            trace_hook=lambda pc, i, res, ea: records.append((pc, ea)))
        assert records[1][1] is not None

    def test_state_injection(self):
        p = assemble("add r2, r0, r1\nhalt")
        regs = [0] * 64
        regs[0], regs[1] = 3, 4
        r = run(p, regs=regs)
        assert r.reg(2) == 7


class TestLoopSemantics:
    @given(st.lists(st.integers(min_value=-100, max_value=100),
                    min_size=1, max_size=20))
    @settings(max_examples=25, deadline=None)
    def test_sum_matches_python(self, values):
        words = " ".join(str(v) for v in values)
        src = f"""
        .dataw vec {words}
            li r1, 0
            li r4, 0
        loop:
            slli r5, r1, 3
            la r6, vec
            add r6, r6, r5
            ld r0, 0(r6)
            add r4, r4, r0
            addi r1, r1, 1
            slti r7, r1, {len(values)}
            bnez r7, loop
            halt
        """
        r = run(assemble(src))
        assert r.reg(4) == to_unsigned(sum(values))

    @given(st.integers(min_value=1, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_countdown(self, n):
        src = f"""
            li r1, {n}
        loop:
            subi r1, r1, 1
            bnez r1, loop
            halt
        """
        r = run(assemble(src))
        assert r.reg(1) == 0
        assert r.branches == n
        assert r.taken == n - 1
