"""Decode-once program image (DESIGN.md §9).

A :class:`ProgramImage` compiles a :class:`~repro.isa.program.Program`
into flat, immutable arrays-of-structs indexed by PC: execution-dispatch
kind, a structural flag bitmask, operand registers, immediates, resolved
branch targets, source tuples and the evaluation callables.  Everything
the fetch/dispatch hot loops used to re-read through ``Instruction``
attribute lookups per *dynamic* instance is paid once per *static*
instruction and shared read-only by the timing core
(:mod:`repro.uarch.core` / :mod:`repro.uarch.frontend`), the functional
interpreter (:mod:`repro.isa.interp`) and the fault oracle
(:mod:`repro.faults.oracle`).

The image is cached on the program object (``program._image``) so sweeps
that re-run one kernel under dozens of configurations predecode it once;
:attr:`ProgramImage.digest` feeds the persistent result cache's key so
predecode-layer changes invalidate cleanly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .opcodes import FU_LATENCY, FU_SLOT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .program import Program

#: bump when the image layout or encoding semantics change — part of the
#: result-cache key (see ``repro.runtime.keys.job_key``)
PREDECODE_VERSION = 1

# -- structural flag bits (``ProgramImage.flags``) -----------------------
F_LOAD = 1 << 0
F_STORE = 1 << 1
F_MEM = 1 << 2
F_COND_BRANCH = 1 << 3
F_JUMP = 1 << 4
F_HALT = 1 << 5
F_WRITES_REG = 1 << 6
F_BACKWARD = 1 << 7      # loop-closing conditional branch

# -- fetch control classes (``ProgramImage.ctrl``) -----------------------
# One int telling the fetch loop everything it needs about redirection:
CTRL_SEQ = 0             # falls through, nothing to predict
CTRL_COND_FWD = 1        # conditional, forward target
CTRL_COND_BWD = 2        # conditional, backward target
CTRL_JUMP = 3            # unconditional jump
CTRL_HALT = 4            # stops fetch


class ProgramImage:
    """Flat read-only decode of one program, indexed by PC.

    Every array is a tuple of length ``n`` (one slot per static
    instruction).  Register fields are encoded *or-zero*: a missing
    ``rs1``/``rs2`` reads register 0, which is safe because every
    evaluation callable ignores its unused operands (the encoding is
    asserted against ``Instruction.srcs`` at build time via ``srcs``
    staying the authoritative dependence list).  ``rd`` is only
    meaningful where ``flags & F_WRITES_REG``.

    ``fu_slot`` and ``fu_lat`` resolve ``fu_class`` once per PC: the
    per-cycle issue budget the instruction draws on (shared units
    folded, see ``FU_SLOT``) and its execution latency.  Both derive
    from ``fu_class``, so the digest need not cover them.
    """

    __slots__ = ("n", "kind", "flags", "ctrl", "rd", "rs1", "rs2", "imm",
                 "target", "srcs", "alu_fn", "branch_fn", "fu_class",
                 "fu_slot", "fu_lat", "_digest")

    def __init__(self, code) -> None:
        n = len(code)
        kind = [0] * n
        flags = [0] * n
        ctrl = [CTRL_SEQ] * n
        rd = [0] * n
        rs1 = [0] * n
        rs2 = [0] * n
        imm = [0] * n
        target = [0] * n
        srcs: list = [()] * n
        alu_fn: list = [None] * n
        branch_fn: list = [None] * n
        fu_class = [0] * n
        for pc, instr in enumerate(code):
            assert instr.pc == pc, "program invariant: code[i].pc == i"
            kind[pc] = instr.kind
            f = 0
            if instr.is_load:
                f |= F_LOAD
            if instr.is_store:
                f |= F_STORE
            if instr.is_mem:
                f |= F_MEM
            if instr.is_cond_branch:
                f |= F_COND_BRANCH
            if instr.is_jump:
                f |= F_JUMP
            if instr.is_halt:
                f |= F_HALT
            if instr.writes_reg:
                f |= F_WRITES_REG
            if instr.is_backward_branch:
                f |= F_BACKWARD
            flags[pc] = f
            if instr.is_cond_branch:
                ctrl[pc] = (CTRL_COND_BWD if instr.is_backward_branch
                            else CTRL_COND_FWD)
            elif instr.is_jump:
                ctrl[pc] = CTRL_JUMP
            elif instr.is_halt:
                ctrl[pc] = CTRL_HALT
            rd[pc] = instr.rd if instr.rd is not None else 0
            rs1[pc] = instr.rs1 if instr.rs1 is not None else 0
            rs2[pc] = instr.rs2 if instr.rs2 is not None else 0
            imm[pc] = instr.imm
            target[pc] = instr.target if instr.target is not None else 0
            srcs[pc] = instr.srcs
            alu_fn[pc] = instr.alu_fn
            branch_fn[pc] = instr.branch_fn
            fu_class[pc] = instr.fu_class
        self.n = n
        self.kind = tuple(kind)
        self.flags = tuple(flags)
        self.ctrl = tuple(ctrl)
        self.rd = tuple(rd)
        self.rs1 = tuple(rs1)
        self.rs2 = tuple(rs2)
        self.imm = tuple(imm)
        self.target = tuple(target)
        self.srcs = tuple(srcs)
        self.alu_fn = tuple(alu_fn)
        self.branch_fn = tuple(branch_fn)
        self.fu_class = tuple(fu_class)
        self.fu_slot = tuple(FU_SLOT[fu] for fu in fu_class)
        self.fu_lat = tuple(FU_LATENCY[fu] for fu in fu_class)
        self._digest: Optional[str] = None

    @property
    def digest(self) -> str:
        """SHA-256 over the image encoding (plus ``PREDECODE_VERSION``).

        Hashing is owned by :mod:`repro.runtime.keys` (imported lazily —
        the runtime layer sits above the ISA layer); the result is
        cached here since digests feed every cache-key derivation.
        """
        if self._digest is None:
            from ..runtime.keys import digest_image
            self._digest = digest_image(self)
        return self._digest


def predecode(program: "Program") -> ProgramImage:
    """The (cached) decode-once image for ``program``.

    The image is immutable and safe to share across cores, the
    interpreter and the oracle; repeated calls return the same object.
    """
    image = getattr(program, "_image", None)
    if image is None:
        image = ProgramImage(program.code)
        program._image = image
    return image


def image_digest(program: "Program") -> str:
    """Convenience accessor: the predecode digest for a program."""
    return predecode(program).digest


__all__ = [
    "ProgramImage", "predecode", "image_digest", "PREDECODE_VERSION",
    "F_LOAD", "F_STORE", "F_MEM", "F_COND_BRANCH", "F_JUMP", "F_HALT",
    "F_WRITES_REG", "F_BACKWARD",
    "CTRL_SEQ", "CTRL_COND_FWD", "CTRL_COND_BWD", "CTRL_JUMP", "CTRL_HALT",
]
