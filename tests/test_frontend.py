"""Unit tests for the fetch unit."""

from repro.isa import assemble
from repro.uarch import ProcessorConfig
from repro.uarch.bpred import Gshare, StaticBTFN
from repro.uarch.frontend import FetchUnit


def make(src, cfg=None, bpred=None):
    cfg = cfg or ProcessorConfig()
    return FetchUnit(cfg, assemble(src), bpred or Gshare(cfg.gshare_bits))


class TestFetchWidth:
    def test_fetches_up_to_width(self):
        f = make("\n".join(["nop"] * 20))
        assert f.fetch_cycle(1) == 8
        assert len(f.queue) == 8

    def test_stops_at_taken_branch(self):
        # An unconditional jump counts as the cycle's one taken transfer.
        f = make("nop\nj tgt\nnop\nnop\ntgt: nop\nnop")
        n = f.fetch_cycle(1)
        assert n == 2                        # nop + j
        assert f.queue[-1][1].instr.is_jump
        assert f.pc == 4                     # redirected to the target

    def test_taken_prediction_redirects(self):
        # "Up to 1 taken branch" per cycle: fetch stops after the taken
        # backward branch; the next cycle resumes at its target.
        f = make("loop: nop\nbnez r1, loop\nnop", bpred=StaticBTFN())
        assert f.fetch_cycle(1) == 2
        assert [d.pc for _, d in f.queue] == [0, 1]
        assert f.pc == 0
        f.fetch_cycle(2)
        assert [d.pc for _, d in f.queue][2] == 0

    def test_not_taken_prediction_falls_through(self):
        f = make("beqz r1, skip\nnop\nskip: halt", bpred=StaticBTFN())
        f.fetch_cycle(1)
        assert [d.pc for _, d in f.queue] == [0, 1, 2]

    def test_stops_at_halt(self):
        f = make("nop\nhalt\nnop\nnop")
        assert f.fetch_cycle(1) == 2
        assert f.stalled

    def test_stops_past_code_end(self):
        f = make("nop\nnop")
        assert f.fetch_cycle(1) == 2
        assert f.stalled and f.fetch_cycle(2) == 0


class TestQueueAndRedirect:
    def test_frontend_depth_gates_pop(self):
        # Dispatch takes the queue head once its ready_at cycle arrives.
        cfg = ProcessorConfig(frontend_depth=3)
        f = make("nop\nnop", cfg)
        f.fetch_cycle(1)
        assert [ready for ready, _ in f.queue] == [4, 4]   # 1 + depth

    def test_frontend_depth_delays_dispatch(self):
        from repro.observe.base import Observer
        from repro.uarch import simulate

        class DispatchLog(Observer):
            def __init__(self):
                self.cycles = []

            def on_dispatch(self, inst, cycle):
                self.cycles.append(cycle)

        for depth in (1, 3):
            log = DispatchLog()
            simulate(assemble("nop\nnop\nhalt"),
                     ProcessorConfig(frontend_depth=depth), observer=log)
            assert log.cycles[0] == 1 + depth    # fetched at cycle 1

    def test_queue_capacity(self):
        cfg = ProcessorConfig(fetch_queue_size=10)
        f = make("\n".join(["nop"] * 40), cfg)
        f.fetch_cycle(1)
        f.fetch_cycle(2)
        assert len(f.queue) == 10            # capped

    def test_redirect_flushes_and_delays(self):
        f = make("\n".join(["nop"] * 20))
        f.fetch_cycle(1)
        f.redirect(15, cycle=1)
        assert len(f.queue) == 0
        assert f.fetch_cycle(1) == 0         # takes effect next cycle
        assert f.fetch_cycle(2) > 0
        assert f.queue[0][1].pc == 15

    def test_sequence_numbers_monotonic_across_redirects(self):
        f = make("\n".join(["nop"] * 30))
        f.fetch_cycle(1)
        last = f.queue[-1][1].seq
        f.redirect(0, cycle=1)
        f.fetch_cycle(2)
        assert f.queue[0][1].seq > last

    def test_empty_flag(self):
        f = make("nop")
        assert not f.empty
        f.fetch_cycle(1)
        f.queue.popleft()                    # dispatched
        assert f.empty
