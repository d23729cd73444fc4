"""Differential oracle: timing-core state vs. the functional interpreter.

The timing core executes functionally at dispatch — including down
wrong paths — against a speculative register file and memory image with
per-instruction undo records.  Its *committed* architectural state is
therefore the speculative state with every in-flight (uncommitted)
window instruction undone.  :func:`committed_state` reconstructs that
non-destructively; :func:`diff_against_interpreter` replays the program
on the functional :mod:`repro.isa.interp` reference and reports every
divergence in the register file, memory image, or committed-instruction
count.

This is the correctness contract fault injection is held to: any fault
the injector fires must leave the program's architectural outcome
untouched (a simulator may lose performance to a fault, never results).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..isa.predecode import F_STORE, F_WRITES_REG
from ..uarch.rob import MEM_ABSENT


class OracleMismatch(RuntimeError):
    """The timing core's final state diverged from the interpreter."""


def committed_state(core) -> Tuple[List[int], Dict[int, int]]:
    """The core's committed (register file, memory) state, reconstructed.

    Non-destructive: walks the window youngest-to-oldest applying each
    in-flight instruction's undo record to *copies* of the speculative
    state, exactly as ``Core._recover``'s squash walk would, without
    touching the core.  Reads the core's shared decode-once image for the
    structural facts.
    """
    regs = list(core.sregs)
    mem = dict(core.mem)
    flags_a = core.image.flags
    rd_a = core.image.rd
    for inst in reversed(core.window):
        flags = flags_a[inst.pc]
        if flags & F_STORE and inst.eff_addr is not None:
            if inst.mem_old is MEM_ABSENT:
                mem.pop(inst.eff_addr, None)
            else:
                mem[inst.eff_addr] = inst.mem_old
        if flags & F_WRITES_REG and inst.sreg_old is not None:
            regs[rd_a[inst.pc]] = inst.sreg_old
    return regs, mem


def diff_against_interpreter(core, max_diffs: int = 8) -> List[str]:
    """Divergences between the core's committed state and the reference.

    Returns an empty list when the states match — or when the run is not
    comparable (the core did not halt: a ``max_instructions`` cut-off or
    an injected crash leaves a mid-program state the whole-program
    interpreter reference cannot be compared against).
    """
    if not core.halted:
        return []
    from ..isa.interp import run as interp_run
    ref = interp_run(core.program,
                     max_steps=max(2_000_000, core.stats.committed * 2))
    diffs: List[str] = []
    if core.stats.committed != ref.steps:
        diffs.append(f"committed {core.stats.committed} instructions, "
                     f"interpreter executed {ref.steps}")
    regs, mem = committed_state(core)
    for r, (got, want) in enumerate(zip(regs, ref.regs)):
        if got != want:
            diffs.append(f"r{r}: core={got} interp={want}")
            if len(diffs) >= max_diffs:
                diffs.append("... (more register diffs suppressed)")
                return diffs
    for addr in sorted(set(mem) | set(ref.memory)):
        got, want = mem.get(addr, 0), ref.memory.get(addr, 0)
        if got != want:
            diffs.append(f"mem[{addr}]: core={got} interp={want}")
            if len(diffs) >= max_diffs:
                diffs.append("... (more memory diffs suppressed)")
                return diffs
    return diffs


def check_final_state(core) -> None:
    """Raise :class:`OracleMismatch` if the core diverged from the
    interpreter reference (no-op on non-halted runs)."""
    diffs = diff_against_interpreter(core)
    if diffs:
        raise OracleMismatch(
            f"{core.program.name}: final architectural state diverged "
            f"from the functional interpreter:\n  " + "\n  ".join(diffs))
