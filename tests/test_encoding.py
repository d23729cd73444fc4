"""Round-trip tests for the binary instruction/program encoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import assemble, run
from repro.isa.encoding import (
    EncodingError,
    INSTRUCTION_SIZE,
    decode_instruction,
    decode_program,
    encode_instruction,
    encode_program,
)
from repro.workloads import get_workload, kernel_names
from repro.workloads.micro import MICRO_PATTERNS, micro_program


def roundtrip(instr):
    return decode_instruction(encode_instruction(instr), pc=instr.pc)


class TestInstructionRoundtrip:
    def test_alu(self):
        i = assemble("add r1, r2, r3").code[0]
        assert roundtrip(i) == i

    def test_negative_immediate(self):
        i = assemble("addi r1, r2, -12345").code[0]
        j = roundtrip(i)
        assert j.imm == -12345 and j == i

    def test_memory_forms(self):
        for src in ("ld r1, 16(r2)", "st r3, 8(r4)"):
            i = assemble(src).code[0]
            assert roundtrip(i) == i

    def test_branches(self):
        p = assemble("x: beq r1, r2, x\nbnez r3, x\nj x")
        for i in p.code:
            assert roundtrip(i) == i

    def test_no_operand_forms(self):
        for src in ("nop", "halt"):
            i = assemble(src).code[0]
            assert roundtrip(i) == i

    def test_record_size(self):
        i = assemble("nop").code[0]
        assert len(encode_instruction(i)) == INSTRUCTION_SIZE

    def test_bad_length_rejected(self):
        with pytest.raises(EncodingError):
            decode_instruction(b"\x00" * 7)

    def test_bad_opcode_rejected(self):
        blob = bytearray(encode_instruction(assemble("nop").code[0]))
        blob[0] = 0xEE
        with pytest.raises(EncodingError):
            decode_instruction(bytes(blob))

    @given(st.integers(min_value=-(1 << 62), max_value=(1 << 62)))
    @settings(max_examples=30, deadline=None)
    def test_immediate_domain(self, imm):
        i = assemble("li r5, 0").code[0]
        i = type(i)(op=i.op, rd=5, imm=imm, pc=0)
        assert roundtrip(i).imm == imm


class TestProgramRoundtrip:
    @pytest.mark.parametrize("name", kernel_names())
    def test_suite_kernels_bit_exact(self, name):
        prog = get_workload(name).program(0.3, 1)
        again = decode_program(encode_program(prog))
        assert again.code == prog.code
        assert again.data_init == prog.data_init
        assert again.name == prog.name

    @pytest.mark.parametrize("name", sorted(MICRO_PATTERNS))
    def test_micro_patterns_execute_identically(self, name):
        prog = micro_program(name)
        again = decode_program(encode_program(prog))
        a, b = run(prog), run(again)
        assert a.regs == b.regs and a.steps == b.steps

    def test_bad_magic(self):
        with pytest.raises(EncodingError):
            decode_program(b"XXXX" + b"\x00" * 32)

    def test_bad_version(self):
        blob = bytearray(encode_program(assemble("halt", name="v")))
        blob[4] = 99
        with pytest.raises(EncodingError):
            decode_program(bytes(blob))

    def test_empty_program(self):
        prog = assemble("", name="empty")
        again = decode_program(encode_program(prog))
        assert again.code == [] and again.name == "empty"
