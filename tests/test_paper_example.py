"""White-box test of the paper's own running example (Figure 1).

The paper walks its mechanism through this exact loop and states:

* I7 (the hammock branch on a[i] == 0) is hard to predict,
* I11 (`ADD R4, R4, R0`) is the re-convergent point and control
  independent,
* I5 (the strided load) and its dependents I6/I11 get vectorized,
* I12/I13 (the induction-variable updates), although control independent,
  are NOT vectorized because they do not depend on a strided load.

We assemble the same loop, run the mechanism, and assert all of it by
inspecting the engine's SRSMT and stride-predictor state.
"""

import random

import pytest

from repro import hooks_for
from repro.isa import assemble
from repro.uarch import Core, ci
from repro.ci import estimate_reconvergent_point


@pytest.fixture(scope="module")
def machine():
    rng = random.Random(7)
    # ~half the elements zero, in no learnable order: I7 stays hard.
    vals = [0 if rng.random() < 0.5 else rng.randint(1, 9)
            for _ in range(400)]
    src = f"""
    .dataw a {' '.join(map(str, vals))}
        li   r1, 0              ; I1
        li   r2, 0              ; I2
        li   r3, 0              ; I3
        li   r4, 0              ; I4
        la   r9, a
    loop:
        add  r10, r9, r1
        ld   r0, 0(r10)         ; I5: strided load (via R1 induction)
        beqz r0, else_          ; I6/I7: compare-and-branch
        addi r2, r2, 1          ; I8
        j    ip                 ; I9
    else_:
        addi r3, r3, 1          ; I10
    ip: add  r4, r4, r0         ; I11: re-convergent point
        addi r1, r1, 8          ; I12
        slti r11, r1, 3200      ; I13
        bnez r11, loop          ; I14
        halt
    """
    prog = assemble(src, name="figure1")
    cfg = ci(1, 512)
    engine = hooks_for(cfg)
    core = Core(cfg, prog, engine)
    core.run()
    return prog, core, engine


def pc_of(prog, text_prefix):
    return next(i.pc for i in prog.code if i.text.startswith(text_prefix))


class TestFigure1:
    def test_reconvergent_point_is_i11(self, machine):
        prog, _, _ = machine
        branch = prog.code[pc_of(prog, "beqz")]
        assert estimate_reconvergent_point(prog, branch) == \
            prog.labels["ip"]

    def test_hammock_branch_is_hard(self, machine):
        prog, _, engine = machine
        assert engine.filter.mbs.is_hard(pc_of(prog, "beqz"))

    def test_loop_branch_treated_as_easy(self, machine):
        # The loop-closing branch saturates the MBS while the loop runs
        # (its single mispredict — the exit — is counted as easy).  The
        # exit itself flips the direction and resets the counter to the
        # middle, so we assert via the misprediction classification.
        _, core, _ = machine
        assert core.stats.mispredicts > core.stats.mispredicts_hard
        assert core.stats.mispredicts_hard > 50  # the hammock's

    def test_i5_selected_and_strided(self, machine):
        prog, _, engine = machine
        se = engine.selector.stride.lookup(pc_of(prog, "ld"))
        assert se is not None and se.stride == 8
        assert se.selected  # the S flag (step 2 marked it)

    def test_i5_and_i11_vectorized(self, machine):
        prog, _, engine = machine
        assert engine.replicas.srsmt.lookup(pc_of(prog, "ld")) is not None
        assert engine.replicas.srsmt.lookup(prog.labels["ip"]) is not None

    def test_i12_i13_not_vectorized(self, machine):
        """Control independent but not strided-load dependent: skipped."""
        prog, _, engine = machine
        assert engine.replicas.srsmt.lookup(pc_of(prog, "addi r1")) is None
        assert engine.replicas.srsmt.lookup(pc_of(prog, "slti")) is None

    def test_hammock_arms_not_vectorized(self, machine):
        prog, _, engine = machine
        assert engine.replicas.srsmt.lookup(pc_of(prog, "addi r2")) is None
        assert engine.replicas.srsmt.lookup(pc_of(prog, "addi r3")) is None

    def test_reuse_happened(self, machine):
        _, core, _ = machine
        assert core.stats.committed_reused > 100
        assert core.stats.ci_reused > 0

    def test_architectural_result_correct(self, machine):
        prog, core, _ = machine
        from repro.isa import run as frun
        oracle = frun(prog)
        assert core.stats.committed == oracle.steps
        assert core.sregs == oracle.regs
