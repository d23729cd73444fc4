"""Sampled simulation: plans, checkpoints, estimates, sharing.

The load-bearing guarantees:

* functional checkpoints are *architecturally exact* — a core booted
  from one finishes the program in exactly the state the interpreter
  reaches (the interp-vs-core equivalence oracle, run at several
  boundaries per tier-1 kernel);
* the store round-trips checkpoints bit-exactly and quarantines
  corruption instead of booting from garbage;
* sampling is strictly opt-in — a spec without ``sampling`` keys and
  runs exactly as before;
* sampled estimates land within tolerance of exact simulation on the
  tier-1 kernels at scale 0.3;
* a policy sweep over one kernel performs exactly one fast-forward.
"""

import json
import os
import tempfile
import unittest

from repro import hooks_for
from repro.isa import interp
from repro.runtime.keys import program_fingerprint, run_key
from repro.runtime.spec import RunSpec
from repro.sampling import (
    Checkpoint,
    CheckpointError,
    CheckpointStore,
    SamplingError,
    SamplingPlan,
    SamplingSpec,
    combine,
    ensure_checkpoints,
    feature_pass,
    is_interval_token,
    parse_interval,
    relative_ci,
    run_sampled_spec,
    sample_program,
)
from repro.sampling.plan import GRANULARITY, N_SPARSE, coverage_for
from repro.uarch import Core

TIER1 = ("bzip2", "mcf", "gcc")


def exact_ipc(spec: RunSpec) -> float:
    cfg = spec.resolved_cfg()
    core = Core(cfg, spec.program(), hooks_for(cfg))
    core.run()
    return core.stats.committed / core.stats.cycles


class TestSamplingSpec(unittest.TestCase):
    def test_auto_is_phased(self):
        self.assertTrue(SamplingSpec.parse("auto").phased)
        self.assertTrue(SamplingSpec.parse("").phased)
        self.assertTrue(SamplingSpec.parse("g=500").phased)

    def test_k_selects_systematic(self):
        spec = SamplingSpec.parse("k=8,w=100,m=200")
        self.assertFalse(spec.phased)
        self.assertEqual((spec.k, spec.w, spec.m), (8, 100, 200))

    def test_rejections(self):
        for bad in ("i=3,b=500,w=10,m=20,n=1000",  # interval token
                    "k=0", "w=-1", "m=0", "g=8",   # below floors
                    "k=4,g=250",                   # both shapes
                    "q=9",                         # unknown field
                    "k=abc", "k"):                 # malformed
            with self.assertRaises(SamplingError, msg=bad):
                SamplingSpec.parse(bad)


class TestPlanShapes(unittest.TestCase):
    def test_systematic_tiles_the_run(self):
        plan = SamplingPlan.systematic(10000, SamplingSpec.parse("k=4"))
        self.assertEqual(plan.k, 4)
        self.assertEqual(sum(plan.weights), 10000)
        for iv in plan.intervals:
            self.assertLessEqual(iv.boundary + iv.warmup + iv.measure,
                                 10000)

    def test_interval_token_round_trip(self):
        plan = SamplingPlan.systematic(10000, SamplingSpec.parse("k=3"))
        for i in range(plan.k):
            token = plan.token(i)
            self.assertTrue(is_interval_token(token))
            iv, total = parse_interval(token)
            self.assertEqual(total, 10000)
            self.assertEqual((iv.boundary, iv.warmup, iv.measure),
                             (plan.intervals[i].boundary,
                              plan.intervals[i].warmup,
                              plan.intervals[i].measure))

    @staticmethod
    def _two_phase_features(n_micro, flip_at):
        """Synthetic feature stream: low-miss phase then high-miss."""
        feats = []
        for j in range(n_micro):
            missy = j >= flip_at
            feats.append({"loads": 80, "stores": 20, "branches": 25,
                          "taken": 12, "miss": 90 if missy else 5,
                          "acc": 100, "n": GRANULARITY})
        return feats

    def test_phased_dense_measures_every_phase_contiguously(self):
        n_micro, flip = 24, 12                 # total 6000 < N_DENSE
        total = n_micro * GRANULARITY
        plan = SamplingPlan.phased(
            total, self._two_phase_features(n_micro, flip),
            SamplingSpec())
        self.assertEqual(plan.k, 2)
        self.assertEqual(sum(iv.measure for iv in plan.intervals), total)
        self.assertEqual(sum(plan.weights), total)
        self.assertEqual(plan.intervals[1].boundary
                         + plan.intervals[1].warmup, flip * GRANULARITY)

    def test_phased_sparse_spreads_a_budget(self):
        n_micro = 100                          # total 25000 > N_SPARSE
        total = n_micro * GRANULARITY
        plan = SamplingPlan.phased(
            total, self._two_phase_features(n_micro, 50), SamplingSpec())
        self.assertGreaterEqual(plan.k, 3)
        self.assertEqual(sum(plan.weights), total)
        # Sparse mode simulates a small fraction of the run in detail.
        self.assertLess(plan.detailed_instructions, 0.25 * total)
        # Both phases are represented by at least one window.
        flip_pc = 50 * GRANULARITY
        starts = [iv.boundary + iv.warmup for iv in plan.intervals]
        self.assertTrue(any(s < flip_pc for s in starts))
        self.assertTrue(any(s >= flip_pc for s in starts))

    def test_coverage_tapers(self):
        self.assertEqual(coverage_for(1000), 1.0)
        self.assertEqual(coverage_for(N_SPARSE + 1), 0.10)
        mid = coverage_for((8000 + N_SPARSE) // 2)
        self.assertTrue(0.10 < mid < 1.0)

    def test_plan_payload_round_trip(self):
        plan = SamplingPlan.systematic(9999, SamplingSpec.parse("k=5"))
        again = SamplingPlan.from_payload(
            json.loads(json.dumps(plan.to_payload())))
        self.assertEqual(again, plan)

    def test_plans_are_deterministic(self):
        spec = RunSpec("bzip2", 0.3, 1)
        store = CheckpointStore(enabled=False)
        total, feats = feature_pass(spec.program(), GRANULARITY, store)
        a = SamplingPlan.phased(total, feats, SamplingSpec())
        b = SamplingPlan.phased(total, feats, SamplingSpec())
        self.assertEqual(a, b)
        self.assertEqual(sum(a.weights), total)


class TestCheckpointStore(unittest.TestCase):
    def _spec(self):
        return RunSpec("mcf", 0.3, 1)

    def test_round_trip_on_disk(self):
        spec = self._spec()
        prog = spec.program()
        fp = program_fingerprint(prog)
        with tempfile.TemporaryDirectory() as root:
            store = CheckpointStore(root=root, enabled=True)
            made = ensure_checkpoints(prog, [0, 700, 1500], store)
            fresh = CheckpointStore(root=root, enabled=True)
            for b in (700, 1500):
                again = fresh.get(fp, b)
                self.assertIsNotNone(again)
                self.assertEqual(again, made[b])

    def test_result_cache_audit_spares_checkpoints(self):
        # The checkpoint store lives under <cache root>/checkpoints/.
        # Result-cache walks (verify/info/clear) must prune that subtree:
        # checkpoint envelopes use a different schema, so auditing them
        # as result entries would quarantine every valid checkpoint.
        from repro.runtime.cache import ResultCache
        spec = self._spec()
        prog = spec.program()
        fp = program_fingerprint(prog)
        with tempfile.TemporaryDirectory() as root:
            store = CheckpointStore(
                root=os.path.join(root, "checkpoints"), enabled=True)
            ensure_checkpoints(prog, [0, 700], store)
            cache = ResultCache(root=root, enabled=True)
            report = cache.verify()
            self.assertEqual(report["corrupt"], 0)
            self.assertEqual(cache.info()["entries"], 0)
            self.assertEqual(cache.clear(), 0)
            self.assertIsNotNone(
                CheckpointStore(root=store.root, enabled=True).get(fp, 700))

    def test_corruption_quarantines(self):
        spec = self._spec()
        prog = spec.program()
        fp = program_fingerprint(prog)
        with tempfile.TemporaryDirectory() as root:
            store = CheckpointStore(root=root, enabled=True)
            ensure_checkpoints(prog, [800], store)
            from repro.runtime.keys import checkpoint_key
            path = store.path_for(checkpoint_key(fp, 800))
            with open(path, "w") as fh:
                fh.write('{"schema": broken')
            fresh = CheckpointStore(root=root, enabled=True)
            self.assertIsNone(fresh.get(fp, 800))
            self.assertFalse(os.path.exists(path))
            qdir = os.path.join(root, "quarantine")
            self.assertTrue(os.listdir(qdir))
            report = fresh.verify()
            self.assertEqual(report["corrupt"], 0)
            self.assertEqual(report["quarantined"], 1)

    def test_tampered_payload_fails_checksum(self):
        spec = self._spec()
        prog = spec.program()
        fp = program_fingerprint(prog)
        with tempfile.TemporaryDirectory() as root:
            store = CheckpointStore(root=root, enabled=True)
            made = ensure_checkpoints(prog, [600], store)
            from repro.runtime.keys import checkpoint_key
            path = store.path_for(checkpoint_key(fp, 600))
            with open(path) as fh:
                envelope = json.load(fh)
            envelope["payload"]["regs"][3] ^= 1   # silent bit flip
            with open(path, "w") as fh:
                json.dump(envelope, fh)
            fresh = CheckpointStore(root=root, enabled=True)
            self.assertIsNone(fresh.get(fp, 600))   # never boots garbage
            self.assertNotEqual(made[600].regs[3] ^ 1, made[600].regs[3])

    def test_one_fast_forward_cold_zero_warm(self):
        spec = self._spec()
        prog = spec.program()
        with tempfile.TemporaryDirectory() as root:
            store = CheckpointStore(root=root, enabled=True)
            ensure_checkpoints(prog, [500, 1000, 2000], store)
            self.assertEqual(store.fast_forwards, 1)
            fresh = CheckpointStore(root=root, enabled=True)
            ensure_checkpoints(prog, [500, 1000, 2000], fresh)
            self.assertEqual(fresh.fast_forwards, 0)

    def test_boundary_beyond_program_end_raises(self):
        spec = self._spec()
        prog = spec.program()
        store = CheckpointStore(enabled=False)
        with self.assertRaises(CheckpointError):
            ensure_checkpoints(prog, [10**9], store)


class TestArchitecturalEquivalence(unittest.TestCase):
    """The oracle: a core booted from a checkpoint finishes the program
    in exactly the architectural state the pure interpreter computes."""

    @staticmethod
    def _mem_equal(a, b):
        keys = set(a) | set(b)
        return all(a.get(k, 0) == b.get(k, 0) for k in keys)

    def test_boot_from_checkpoint_matches_interpreter(self):
        from repro.faults.oracle import committed_state
        for kernel in TIER1:
            spec = RunSpec(kernel, 0.3, 1)
            prog = spec.program()
            cfg = spec.resolved_cfg()
            ref = interp.run(prog)
            total = ref.steps
            boundaries = [total // 4, total // 2, (3 * total) // 4]
            store = CheckpointStore(enabled=False)
            ckpts = ensure_checkpoints(prog, boundaries, store)
            for b in boundaries:
                core = Core(cfg, prog, hooks_for(cfg), boot=ckpts[b])
                core.run()
                self.assertEqual(core.stats.committed, total - b,
                                 f"{kernel}@{b}: wrong remaining length")
                regs, mem = committed_state(core)
                self.assertEqual(regs, ref.regs, f"{kernel}@{b}: regs")
                self.assertTrue(self._mem_equal(mem, ref.memory),
                                f"{kernel}@{b}: memory")

    def test_interp_resume_equals_straight_run(self):
        spec = RunSpec("gcc", 0.3, 1)
        prog = spec.program()
        straight = interp.run(prog)
        regs = [0] * len(straight.regs)
        memory = prog.initial_memory()
        pc, done = 0, 0
        for cut in (313, 1009, 2500):
            part = interp.run(prog, max_steps=cut - done, regs=regs,
                              memory=memory, start_pc=pc,
                              allow_partial=True)
            done += part.steps
            pc = part.pc
        rest = interp.run(prog, regs=regs, memory=memory, start_pc=pc,
                          allow_partial=True)
        self.assertTrue(rest.halted)
        self.assertEqual(done + rest.steps, straight.steps)
        self.assertEqual(regs, straight.regs)
        self.assertEqual(memory, straight.memory)


class TestEstimates(unittest.TestCase):
    def test_whole_run_interval_is_exact(self):
        """A k=1 plan covering the whole run reproduces exact stats."""
        spec = RunSpec("mcf", 0.3, 1)
        store = CheckpointStore(enabled=False)
        est, plan = sample_program(spec.program(), spec.resolved_cfg(),
                                   "k=1,w=0,m=999999999", store)
        self.assertEqual(plan.k, 1)
        cfg = spec.resolved_cfg()
        core = Core(cfg, spec.program(), hooks_for(cfg))
        core.run()
        self.assertEqual(est.cycles, core.stats.cycles)
        self.assertEqual(est.committed, core.stats.committed)
        self.assertTrue(est.sampled)
        self.assertEqual(est.sample_rel_ci, 0.0)

    def test_tier1_accuracy_at_scale_03(self):
        """Sampled IPC within 2% of exact on the tier-1 kernels."""
        for kernel in TIER1:
            spec = RunSpec(kernel, 0.3, 1, sampling="auto")
            store = CheckpointStore(enabled=False)
            est = run_sampled_spec(spec, store)
            exact = exact_ipc(RunSpec(kernel, 0.3, 1))
            err = abs(float(est.ipc) - exact) / exact
            self.assertLess(err, 0.02,
                            f"{kernel}: sampled {float(est.ipc):.4f} vs "
                            f"exact {exact:.4f} ({err:.2%})")
            self.assertTrue(est.sampled)
            self.assertEqual(est.committed, plan_total(spec, store))

    def test_relative_ci(self):
        self.assertEqual(relative_ci([1.0]), 0.0)
        self.assertAlmostEqual(relative_ci([1.0, 1.0, 1.0]), 0.0)
        spread = relative_ci([1.0, 2.0, 1.5, 2.5])
        self.assertGreater(spread, 0.0)
        # Weighted: a dominant weight shrinks the effective sample size,
        # never yielding a tighter bound than the unweighted series.
        self.assertGreaterEqual(relative_ci([1.0, 2.0], [999, 1]), 0.0)

    def test_combine_rejects_wrong_arity(self):
        plan = SamplingPlan.systematic(1000, SamplingSpec.parse("k=2"))
        with self.assertRaises(SamplingError):
            combine(plan, [])


def plan_total(spec: RunSpec, store: CheckpointStore) -> int:
    from repro.sampling import plan_for
    return plan_for(spec, store).total


class TestSharingAndOptIn(unittest.TestCase):
    def test_policy_sweep_shares_one_fast_forward(self):
        with tempfile.TemporaryDirectory() as root:
            os.environ["REPRO_CACHE_DIR"] = root
            try:
                from repro.experiments.common import Runner
                r = Runner(scale=0.3, seed=1, jobs=1, sampling="auto")
                specs = [RunSpec("bzip2", 0.3, 1, policy=p)
                         for p in ("ci", "ci-iw", "vect")]
                stats = r.run_many(specs)
                self.assertEqual(r.checkpoint_store().fast_forwards, 1)
                self.assertTrue(all(s.sampled for s in stats))
                self.assertEqual(len({float(s.ipc) for s in stats}), 3)
            finally:
                del os.environ["REPRO_CACHE_DIR"]

    def test_sampling_is_opt_in_for_keys(self):
        exact = RunSpec("bzip2", 0.3, 1)
        sampled = RunSpec("bzip2", 0.3, 1, sampling="auto")
        self.assertNotEqual(run_key(exact), run_key(sampled))
        # The exact key is what it always was: sampling=None folds
        # nothing into the digest (pinned by tests/golden/run_keys.json).

    def test_sampling_rejects_riders(self):
        with self.assertRaises(ValueError):
            RunSpec("bzip2", 0.3, 1, sampling="auto",
                    faults="squash@400").validate()
        with self.assertRaises(ValueError):
            RunSpec("bzip2", 0.3, 1, sampling="auto",
                    observe="cpi").validate()


class TestServeProtocol(unittest.TestCase):
    def test_jobspec_accepts_sampling(self):
        from repro.serve.protocol import parse_job, wire_dict
        spec = parse_job({"kernel": "bzip2", "scale": 0.3,
                          "sampling": "auto"})
        self.assertEqual(spec.sampling, "auto")
        self.assertEqual(wire_dict(spec)["sampling"], "auto")

    def test_jobspec_rejects_bad_sampling(self):
        from repro.serve.protocol import ProtocolError, parse_job
        for data in (
                {"kernel": "bzip2", "sampling": "z=1"},
                {"kernel": "bzip2", "sampling": "auto",
                 "faults": "squash@400"},
                {"kernel": "bzip2", "sampling": 7}):
            with self.assertRaises(ProtocolError):
                parse_job(data)

    def test_jobspec_accepts_interval_tokens(self):
        from repro.serve.protocol import ProtocolError, parse_job
        spec = parse_job(
            {"kernel": "bzip2", "sampling": "i=0,b=0,w=0,m=50,n=100"})
        self.assertTrue(is_interval_token(spec.sampling))
        with self.assertRaises(ProtocolError):
            parse_job({"kernel": "bzip2",
                       "sampling": "i=0,b=90,w=20,m=50,n=100"})


class TestCheckpointDataclass(unittest.TestCase):
    def test_payload_round_trip(self):
        ck = Checkpoint(inst_index=42, pc=7, regs=[1, 2, 3],
                        mem_delta={8: 9}, mem_tail=[(0, 64), (1, 128)],
                        branch_tail=[(5, 1), (6, 0)])
        again = Checkpoint.from_payload(
            json.loads(json.dumps(ck.to_payload())))
        self.assertEqual(again, ck)

    def test_bad_payload_raises(self):
        with self.assertRaises(CheckpointError):
            Checkpoint.from_payload({"pc": 0})


if __name__ == "__main__":
    unittest.main()
