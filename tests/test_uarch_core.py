"""Integration tests for the out-of-order core's timing behaviour."""

import json
import os

import pytest

from repro import hooks_for
from repro.isa import assemble, run
from repro.uarch import (Core, ProcessorConfig, SimulationError, ci, scal,
                         simulate, wb)
from repro.workloads import all_workloads, build_program

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def sim(src, cfg=None, **kw):
    return simulate(assemble(src), cfg or ProcessorConfig(), **kw)


class TestBasicExecution:
    def test_empty_halt(self):
        st = sim("halt")
        assert st.committed == 1 and st.cycles >= 1

    def test_commit_count_matches_functional(self):
        src = """
            li r1, 10
        loop:
            subi r1, r1, 1
            bnez r1, loop
            halt
        """
        p = assemble(src)
        assert simulate(p).committed == run(p).steps

    def test_ipc_bounded_by_commit_width(self):
        st = sim("\n".join(["addi r1, r1, 1"] * 64) + "\nhalt")
        assert st.ipc <= 8.0 + 1e-9

    def test_independent_ops_superscalar(self):
        # 6 independent chains -> IPC should comfortably exceed 1.
        body = []
        for i in range(240):
            body.append(f"addi r{1 + (i % 6)}, r{1 + (i % 6)}, 1")
        st = sim("\n".join(body) + "\nhalt")
        assert st.ipc > 3.0

    def test_dependent_chain_serialises(self):
        st = sim("\n".join(["addi r1, r1, 1"] * 100) + "\nhalt")
        # 1-cycle ALU chain: roughly one per cycle, plus pipeline fill.
        assert st.cycles >= 100

    def test_mul_latency_visible(self):
        chain_add = sim("\n".join(["addi r1, r1, 1"] * 50) + "\nhalt")
        chain_mul = sim("\n".join(["muli r1, r1, 1"] * 50) + "\nhalt")
        assert chain_mul.cycles > chain_add.cycles + 25  # 2-cycle vs 1-cycle

    def test_div_longer_than_mul(self):
        mul = sim("li r2, 3\n" + "\n".join(["mul r1, r1, r2"] * 30) + "\nhalt")
        div = sim("li r2, 3\n" + "\n".join(["div r1, r1, r2"] * 30) + "\nhalt")
        assert div.cycles > mul.cycles + 30 * 8


class TestBranchBehaviour:
    def test_predictable_loop_cheap(self):
        st = sim("""
            li r1, 200
        loop:
            subi r1, r1, 1
            bnez r1, loop
            halt
        """)
        assert st.cond_branches == 200
        assert st.mispredicts <= 8   # cold-start only

    def test_random_branch_mispredicts(self):
        st = simulate(build_program("bzip2", 0.5), ProcessorConfig())
        assert st.mispredict_rate > 0.1
        assert st.squashed > 0

    def test_misprediction_penalty_visible(self):
        # Same instruction count; one version branches on noise.
        prog_noisy = build_program("bzip2", 0.5)
        st = simulate(prog_noisy, ProcessorConfig())
        ipc_noisy = st.ipc
        st2 = simulate(build_program("eon", 0.5), ProcessorConfig())
        assert st2.ipc > ipc_noisy  # easy branches -> higher IPC

    def test_wrong_path_work_is_squashed_not_committed(self):
        p = build_program("vpr", 0.5)
        st = simulate(p, ProcessorConfig())
        assert st.committed == run(p).steps
        assert st.squashed > 0


class TestMemorySystem:
    def test_store_load_forwarding(self):
        st = sim("""
        .data buf 1
            la r1, buf
            li r2, 7
            st r2, 0(r1)
            ld r3, 0(r1)
            halt
        """)
        assert st.store_forwards >= 1

    def test_l1_access_counting(self):
        st = sim("""
        .dataw arr 1 2 3 4
            la r1, arr
            ld r2, 0(r1)
            ld r3, 8(r1)
            ld r4, 16(r1)
            ld r5, 24(r1)
            halt
        """)
        assert st.l1d_load_accesses == 4

    def test_wide_bus_groups_same_line_loads(self):
        src = """
        .dataw arr 1 2 3 4
            la r1, arr
            ld r2, 0(r1)
            ld r3, 8(r1)
            ld r4, 16(r1)
            ld r5, 24(r1)
            halt
        """
        narrow = sim(src, scal(1))
        wide = sim(src, wb(1))
        assert wide.l1d_accesses < narrow.l1d_accesses

    def test_wide_bus_helps_on_memory_dense_kernels(self):
        p = build_program("gap", 0.5)
        assert simulate(p, wb(1)).ipc > simulate(p, scal(1)).ipc * 1.15

    def test_cold_misses_counted(self):
        st = simulate(build_program("bzip2", 0.5), ProcessorConfig())
        assert st.l1d_misses > 0


class TestRegisterPressure:
    def test_small_regfile_hurts(self):
        p = build_program("vpr", 0.5)
        small = simulate(p, ProcessorConfig(phys_regs=80))
        big = simulate(p, ProcessorConfig(phys_regs=512))
        assert small.ipc < big.ipc
        assert small.rename_stall_cycles > big.rename_stall_cycles

    def test_usage_sampling(self):
        st = simulate(build_program("bzip2", 0.5), ProcessorConfig())
        assert 0 < st.avg_regs_in_use <= st.regs_in_use_peak
        assert st.regs_in_use_peak <= ProcessorConfig().rename_regs


class TestLimits:
    def test_max_instructions_stops_early(self):
        p = build_program("bzip2", 0.5)
        st = simulate(p, ProcessorConfig(), max_instructions=1000)
        assert st.committed <= 1008  # within one commit group

    def test_runaway_raises(self):
        with pytest.raises(SimulationError):
            sim("loop: j loop", ProcessorConfig(max_cycles=5000))

    def test_fall_off_end_terminates(self):
        st = sim("addi r1, r1, 1\naddi r2, r2, 2")
        assert st.committed == 2


class TestDeterminism:
    def test_same_program_same_stats(self):
        p = build_program("twolf", 0.5)
        a = simulate(p, ProcessorConfig())
        b = simulate(p, ProcessorConfig())
        assert a.as_dict() == b.as_dict()


class TestRenameMap:
    def test_clear_owner_only_for_matching_inst(self):
        """A retiring writer clears its register's owner only while it
        still is the owner; undo restores the previous owner."""
        from repro.uarch import MechanismHooks

        class OwnerAtCommit(MechanismHooks):
            def __init__(self):
                self.seen = []

            def on_commit(self, inst):
                if inst.instr.rd == 1:
                    self.seen.append((inst, self.core.owner[1]))

        hooks = OwnerAtCommit()
        core = Core(ProcessorConfig(), assemble("""
            li   r1, 1
            addi r1, r1, 1
            halt
        """), hooks)
        core.run()
        (first, owner_then), (second, owner_last) = hooks.seen
        assert owner_then is second   # the younger writer still owns r1
        assert owner_last is None     # the value is architectural
        assert first.rename_undo is None and second.rename_undo is None


@pytest.mark.parametrize("name", [s.name for s in all_workloads()])
def test_every_kernel_commits_functional_count(name):
    """Golden cross-check: timing simulation must commit exactly the
    functional dynamic instruction count, for every kernel."""
    p = build_program(name, 0.4)
    assert simulate(p, ProcessorConfig()).committed == run(p).steps


class TestIPCTimeline:
    def test_interval_series_consistent(self):
        st = simulate(build_program("bzip2", 0.4), ProcessorConfig())
        series = st.interval_ipc
        assert len(series) == len(st.interval_committed)
        # The series must integrate back to the total committed count.
        total = sum(x * st.interval_cycles for x in series)
        assert abs(total - st.interval_committed[-1]) < 1e-6

    def test_mechanism_warms_up(self):
        from repro import run_program
        from repro.uarch import ci
        st = run_program(build_program("bzip2", 0.6), ci(1, 512))
        series = st.interval_ipc
        assert len(series) >= 6
        # Steady-state intervals beat the cold first interval (stride
        # predictor training + replica batches ramping).
        assert max(series[3:]) > series[0]


@pytest.mark.parametrize("scheme", ["scal", "wb", "ci"])
def test_only_the_mechanism_holds_rename_fields(scheme):
    """The stridedPC and V/S+Seq rename fields are mechanism state: a
    core without a mechanism holds none, and under ``ci`` the mechanism
    that holds them still counts the golden ``stridedpc_*`` values."""
    cfg = {"scal": scal(1, 256), "wb": wb(1, 512), "ci": ci(1, 512)}[scheme]
    hooks = hooks_for(cfg)
    core = Core(cfg, build_program("bzip2", 0.3, 1), hooks)
    st = core.run()
    keys = ("stridedpc_assignments", "stridedpc_sum", "stridedpc_overflow")
    counts = {k: getattr(st, k) for k in keys}
    if hooks is None:
        held = [name for obj in (core, *vars(core).values())
                for name in ("strided_pcs", "vect_pc", "merge_strided")
                if hasattr(obj, name)]
        assert held == []
        assert counts == dict.fromkeys(keys, 0)
    else:
        assert hooks.rename_fields is not None
        with open(os.path.join(GOLDEN, f"suite_{scheme}.json")) as fh:
            golden = json.load(fh)["bzip2"]
        assert counts == {k: golden[k] for k in keys}
