"""Tests for the simulation service: protocol, queue, admission, server.

The end-to-end tests start a real :class:`ServeServer` on a loopback
port inside the test's event loop and drive it with the blocking
:class:`ServeClient` from a worker thread — the same topology as
production, minus the subprocess.
"""

import asyncio
import http.client
import json
import os
import threading

import pytest

from repro import run_kernel
from repro.runtime import FailedResult, ResultCache, RunSpec
from repro.runtime import parallel as parallel_mod
from repro.serve import protocol
from repro.serve.client import (RemoteRunner, ServeClient, ServeError,
                                parse_address)
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import ProtocolError
from repro.serve.queue import ServeQueue, Ticket
from repro.serve.scheduler import CircuitBreaker, SimExecutor
from repro.serve.server import ServeServer
from repro.uarch import SimStats
from repro.uarch.config import ProcessorConfig, ci
from repro.uarch.config import config_from_dict, config_to_dict

SCALE = 0.1
SEED = 1


# -- protocol ---------------------------------------------------------------

class TestProtocol:
    def test_jobspec_roundtrip(self):
        spec = RunSpec(kernel="gzip", scale=0.25, seed=3,
                       cfg=ci(2, 256), policy="vect")
        wire = protocol.wire_dict(spec)
        assert "observe" not in wire
        assert protocol.parse_job(wire) == spec

    def test_config_dict_roundtrip(self):
        cfg = ci(2, 256, replicas=8)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_config_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="no_such_knob"):
            config_from_dict({"no_such_knob": 1})

    def test_jobspec_rejects_unknown_policy_at_parse(self):
        with pytest.raises(ProtocolError):
            protocol.parse_job({"kernel": "gzip", "policy": "nope"})

    def test_parse_job_applies_server_checks(self):
        for data, match in (
                ({"kernel": "gzip", "observe": "cpi"}, "observers"),
                ({"kernel": "gzip", "priority": "sweep"}, "unknown"),
                ({"kernel": "gzip", "faults": "nope@x"}, None),
                ({"kernel": "gzip", "sampling": "auto",
                  "faults": "squash@400"}, "sampling"),
                (["gzip"], "object")):
            with pytest.raises(ProtocolError, match=match):
                protocol.parse_job(data)
        # The kernel is looked up per job at key time, not here.
        assert protocol.parse_job({"kernel": "nosuchkernel"}).kernel \
            == "nosuchkernel"

    def test_submit_body_requires_jobs(self):
        with pytest.raises(ProtocolError, match="jobs"):
            protocol.parse_submit_body({"v": protocol.PROTOCOL_VERSION})

    def test_version_check(self):
        with pytest.raises(ProtocolError, match="version") as exc_info:
            protocol.check_version({"v": 999})
        assert exc_info.value.kind == "unsupported-version"
        protocol.check_version({})   # absent version = current

    def test_error_info_failed_result_bridge(self):
        from repro.runtime import FailedResult
        fr = FailedResult("gzip", 0.1, 1, error="boom\nlast line",
                          phase="timeout", attempts=3)
        err = protocol.ErrorInfo.from_failed_result(fr)
        assert err.kind == "failed"
        assert err.phase == "timeout"
        back = err.to_failed_result("gzip", 0.1, 1)
        assert back.failed and back.phase == "timeout"
        assert back.attempts == 3

    def test_parse_address(self):
        assert parse_address("example:99") == ("example", 99)
        assert parse_address("http://h:1/") == ("h", 1)
        assert parse_address("h") == ("h", protocol.DEFAULT_PORT)
        with pytest.raises(ServeError):
            parse_address("h:notaport")


# -- queue ------------------------------------------------------------------

def _ticket(key, kernel="gzip"):
    return Ticket(RunSpec(kernel, SCALE, SEED), key, now=0.0)


class TestServeQueue:
    def test_coalesce_attaches_to_existing_entry(self):
        q = ServeQueue()
        first = _ticket("k1")
        assert q.coalesce(first) is None
        q.push(first)
        twin = _ticket("k1")
        entry = q.coalesce(twin)
        assert entry is not None and len(entry.tickets) == 2
        assert twin.coalesced and q.depth == 1

    def test_coalesce_onto_running_entry(self):
        q = ServeQueue()
        q.push(_ticket("k1"))
        [entry] = q.pop_batch(8)
        assert entry.state == protocol.RUNNING
        twin = _ticket("k1")
        assert q.coalesce(twin) is entry
        assert twin.state == protocol.RUNNING

    def test_coalesced_ticket_keeps_arrival_order(self):
        q = ServeQueue()
        q.push(_ticket("k1"))
        q.push(_ticket("k2"))
        entry = q.coalesce(_ticket("k2"))
        assert entry is not None and len(entry.tickets) == 2
        assert [e.key for e in q.pop_batch(8)] == ["k1", "k2"]

    def test_arrival_order_across_senders(self):
        q = ServeQueue()
        for key in ("a1", "a2", "b1", "a3", "c1"):
            q.push(_ticket(key))
        assert [e.key for e in q.pop_batch(3)] == ["a1", "a2", "b1"]
        assert [e.key for e in q.pop_batch(8)] == ["a3", "c1"]
        assert q.depth == 0 and q.inflight == 5

    def test_cancel_only_queued(self):
        q = ServeQueue()
        t = _ticket("k1")
        q.push(t)
        twin = _ticket("k1")
        q.coalesce(twin)
        assert q.cancel(twin)              # sibling keeps the entry
        assert "k1" in q.entries
        assert q.cancel(t)                 # last ticket removes it
        assert "k1" not in q.entries and q.depth == 0
        running = _ticket("k2")
        q.push(running)
        q.pop_batch(1)
        assert not q.cancel(running)       # the pool owns it now

    def test_drain_empties_every_lane(self):
        q = ServeQueue()
        q.push(_ticket("a"))
        q.push(_ticket("b"))
        drained = q.drain()
        assert {e.key for e in drained} == {"a", "b"}
        assert q.depth == 0 and not q.entries


# -- admission --------------------------------------------------------------

def _held(server, fn):
    """Start ``server`` with its dispatcher stopped (nothing leaves the
    queue), run blocking ``fn(client)`` in a thread, then drain."""
    async def main():
        await server.start()
        await server.dispatcher.stop()
        host, port = server.address
        client = ServeClient(f"{host}:{port}")
        try:
            return await asyncio.to_thread(fn, client)
        finally:
            server.request_shutdown()
            await server.wait_stopped()
    return asyncio.run(main())


def _raw_submit(client, specs):
    """POST a submit and return (HTTP status, Retry-After, envelope)."""
    conn = http.client.HTTPConnection(client.host, client.port,
                                      timeout=30)
    try:
        body = json.dumps({"v": protocol.PROTOCOL_VERSION,
                           "jobs": [protocol.wire_dict(s) for s in specs]})
        conn.request("POST", f"{protocol.API_PREFIX}/submit", body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return (resp.status, resp.getheader("Retry-After"),
                json.loads(resp.read()))
    finally:
        conn.close()


class TestAdmission:
    def test_accepts_under_depth(self, tmp_path):
        server = _serve_fixture(tmp_path, queue_depth=2)
        decisions = _held(server, lambda client: client.submit(
            [RunSpec("gzip", SCALE), RunSpec("mcf", SCALE)]))
        assert [d["accepted"] for d in decisions] == [True, True]
        assert server.metrics.counters["jobs_submitted"] == 2
        assert server.metrics.counters["jobs_rejected"] == 0

    def test_full_queue_answers_429_with_retry_after(self, tmp_path):
        server = _serve_fixture(tmp_path, queue_depth=1)

        def drive(client):
            [first] = client.submit([RunSpec("gzip", SCALE)])
            assert first["accepted"]
            return _raw_submit(client, [RunSpec("mcf", SCALE)])

        status, retry_header, env = _held(server, drive)
        assert status == 429
        assert float(retry_header) > 0
        [decision] = env["jobs"]
        assert not decision["accepted"]
        assert decision["error"]["kind"] == "rejected"
        assert decision["error"]["retry_after"] > 0
        assert server.metrics.counters["jobs_rejected"] == 1

    def test_dispatch_follows_arrival_order_across_clients(self, tmp_path):
        server = _serve_fixture(tmp_path)

        def drive(client):
            other = ServeClient(client.base_url)
            client.submit([RunSpec("gzip", SCALE), RunSpec("mcf", SCALE)])
            other.submit([RunSpec("vpr", SCALE)])
            client.submit([RunSpec("bzip2", SCALE)])
            other.submit([RunSpec("mcf", SCALE)])      # coalesces
            return [e.spec.kernel for e in server.queue.pop_batch(8)]

        assert _held(server, drive) == ["gzip", "mcf", "vpr", "bzip2"]
        assert server.metrics.counters["jobs_coalesced"] == 1


# -- metrics ----------------------------------------------------------------

class TestMetrics:
    def test_prometheus_rendering(self):
        m = ServerMetrics()
        m.inc("jobs_submitted", 3)
        m.observe_latency(0.5)
        m.observe_latency(1.5)
        text = m.render_prometheus(
            {"depth": 2, "inflight": 1, "queued_tickets": 2},
            {"sims_run": 5, "disk_hits": 4, "memo_hits": 3}, "ok")
        assert "repro_up 1" in text
        assert 'repro_server_state{state="ok"} 1' in text
        assert "repro_jobs_submitted_total 3" in text
        assert 'repro_cache_hits_total{layer="disk"} 4' in text
        assert 'repro_cache_hits_total{layer="memo"} 3' in text
        assert "repro_job_latency_seconds_count 2" in text
        assert "# TYPE repro_job_latency_seconds summary" in text

    def test_healthz_snapshot(self):
        m = ServerMetrics()
        snap = m.snapshot({"depth": 0, "inflight": 0, "queued_tickets": 0},
                          {"sims_run": 2, "disk_hits": 1, "memo_hits": 0},
                          state="draining", jobs=4)
        assert snap["status"] == "draining"
        assert snap["cache_hits"] == 1
        assert snap["latency_seconds"]["count"] == 0

    def test_quantiles(self):
        m = ServerMetrics()
        for x in (1.0, 2.0, 3.0, 4.0, 100.0):
            m.observe_latency(x)
        p50, p95 = m.latency_quantiles()
        assert p50 == 3.0
        assert p95 == 100.0


# -- end-to-end -------------------------------------------------------------

def _serve_fixture(tmp_path, **kw):
    cache = ResultCache(root=str(tmp_path / "srvcache"), enabled=True)
    return ServeServer(port=0, cache=cache, jobs=1, **kw)


def _drive(server, fn):
    """Start ``server``, run blocking ``fn(client)`` in a thread, drain."""
    async def main():
        await server.start()
        host, port = server.address
        client = ServeClient(f"{host}:{port}", timeout=30.0)
        try:
            return await asyncio.to_thread(fn, client)
        finally:
            server.request_shutdown()
            await server.wait_stopped()
    return asyncio.run(main())


class TestServerEndToEnd:
    def test_submit_result_matches_local_simulation(self, tmp_path):
        cfg = ProcessorConfig()
        expected = run_kernel("gzip", cfg, scale=SCALE, seed=SEED)

        def drive(client):
            [(status, stats)] = client.run(
                [RunSpec(kernel="gzip", scale=SCALE, seed=SEED, cfg=cfg)])
            assert status.state == protocol.DONE
            return SimStats.from_dict(stats)

        got = _drive(_serve_fixture(tmp_path), drive)
        assert got == expected

    def test_concurrent_clients_identical_and_run_once(self, tmp_path):
        """Twin submissions coalesce: identical stats, one simulation."""
        server = _serve_fixture(tmp_path)
        specs = [RunSpec(kernel="gzip", scale=SCALE, seed=SEED),
                 RunSpec(kernel="mcf", scale=SCALE, seed=SEED)]

        def drive(client):
            barrier = threading.Barrier(2)
            results = [None, None]

            def one(slot):
                barrier.wait()
                results[slot] = client.run(specs)

            threads = [threading.Thread(target=one, args=(i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return results

        a, b = _drive(server, drive)
        stats_a = [SimStats.from_dict(s) for _, s in a]
        stats_b = [SimStats.from_dict(s) for _, s in b]
        assert stats_a == stats_b
        # each distinct job simulated exactly once across both clients
        assert server.executor.totals()["sims_run"] == len(specs)
        coalesced = server.metrics.counters["jobs_coalesced"]
        cached = (server.executor.totals()["disk_hits"]
                  + server.executor.totals()["memo_hits"])
        assert coalesced + cached >= len(specs)

    def test_warm_resubmit_hits_memo_not_pool(self, tmp_path):
        server = _serve_fixture(tmp_path)

        def drive(client):
            spec = RunSpec(kernel="gzip", scale=SCALE, seed=SEED)
            client.run([spec])
            [(status, _)] = client.run([spec])
            return status

        status = _drive(server, drive)
        assert status.source in ("memo", "disk")
        assert server.executor.totals()["sims_run"] == 1

    def test_bad_kernel_fails_cleanly(self, tmp_path):
        def drive(client):
            [(status, stats)] = client.run(
                [RunSpec(kernel="nosuchkernel", scale=SCALE)])
            assert stats is None
            return status

        status = _drive(_serve_fixture(tmp_path), drive)
        assert status.state == protocol.FAILED
        assert status.error.kind == "bad-request"

    def test_health_and_metrics_endpoints(self, tmp_path):
        def drive(client):
            client.run([RunSpec(kernel="gzip", scale=SCALE)])
            return client.health(), client.metrics_text()

        health, metrics = _drive(_serve_fixture(tmp_path), drive)
        assert health["status"] == "ok"
        assert health["counters"]["jobs_completed"] == 1
        assert health["sims_run"] == 1
        assert "repro_up 1" in metrics
        assert "repro_sims_total 1" in metrics

    def test_unknown_id_is_not_found(self, tmp_path):
        def drive(client):
            with pytest.raises(ServeError, match="unknown job id"):
                client.status("jnope")
            return True

        assert _drive(_serve_fixture(tmp_path), drive)

    def test_version_mismatch_rejected(self, tmp_path):
        def drive(client):
            status, env = client._request(
                "POST", "/v1/submit",
                {"v": 999, "jobs": [{"kernel": "gzip"}]})
            return status, env

        status, env = _drive(_serve_fixture(tmp_path), drive)
        assert status == 400 and not env["ok"]
        assert "version" in env["error"]["message"]

    def test_v1_body_gets_unsupported_version(self, tmp_path):
        v1_job = {"kernel": "gzip", "scale": SCALE, "seed": SEED,
                  "priority": "interactive", "client": "submit-1"}

        def drive(client):
            return client._request("POST", "/v1/submit",
                                   {"v": 1, "jobs": [v1_job]})

        status, env = _drive(_serve_fixture(tmp_path), drive)
        assert status == 400 and not env["ok"]
        assert env["error"]["kind"] == "unsupported-version"
        assert "v2" in env["error"]["message"]

    def test_bad_kernel_in_batch_fails_only_that_job(self, tmp_path):
        server = _serve_fixture(tmp_path)

        def drive(client):
            return client.run([RunSpec("gzip", SCALE, SEED),
                               RunSpec("nosuchkernel", SCALE, SEED),
                               RunSpec("mcf", SCALE, SEED)])

        (good, stats), (bad, none), (also_good, _) = _drive(server, drive)
        assert good.state == also_good.state == protocol.DONE
        assert stats is not None and none is None
        assert bad.state == protocol.FAILED
        assert bad.error.kind == "bad-request"
        assert "nosuchkernel" in bad.error.message
        assert server.executor.totals()["sims_run"] == 2

    def test_graceful_drain_cancels_queued_jobs(self, tmp_path):
        """Shutdown with queued work: queued tickets go cancelled, the
        daemon drains without orphaned state."""
        server = _serve_fixture(tmp_path)

        def drive(client):
            [decision] = client.submit([RunSpec("gzip", SCALE)])
            assert decision["accepted"]
            return decision["id"]

        ticket = server._tickets[_held(server, drive)]
        assert ticket.state == protocol.CANCELLED
        assert ticket.error.kind == "cancelled"

    def test_backpressure_rejects_when_full(self, tmp_path):
        server = _serve_fixture(tmp_path, queue_depth=1)

        def drive(client):
            first = client.submit([RunSpec("gzip", SCALE)])
            second = client.submit([RunSpec("mcf", SCALE)])
            twin = client.submit([RunSpec("gzip", SCALE)])
            return first, second, twin

        first, second, twin = _held(server, drive)
        assert first[0]["accepted"]
        assert not second[0]["accepted"]
        assert second[0]["error"]["kind"] == "rejected"
        assert second[0]["error"]["retry_after"] > 0
        # A full queue still lets a twin fan in: it adds no work.
        assert twin[0]["accepted"] and twin[0]["coalesced"]
        assert server.metrics.counters["jobs_rejected"] == 1
        assert server.metrics.counters["jobs_coalesced"] == 1

    def test_cancel_endpoint(self, tmp_path):
        def drive(client):
            [d] = client.submit([RunSpec("gzip", SCALE)])
            assert client.cancel(d["id"])
            return client.status(d["id"])

        st = _held(_serve_fixture(tmp_path), drive)
        assert st.state == protocol.CANCELLED


# -- RemoteRunner -----------------------------------------------------------

class TestRemoteRunner:
    def test_remote_runner_matches_local(self, tmp_path):
        cfg = ProcessorConfig()
        expected = run_kernel("mcf", cfg, scale=SCALE, seed=SEED)
        server = _serve_fixture(tmp_path)

        def drive(client):
            runner = RemoteRunner(client.base_url, scale=SCALE, seed=SEED)
            first = runner.run("mcf", cfg)
            again = runner.run("mcf", cfg)     # local memo, no round trip
            return first, again, runner

        first, again, runner = _drive(server, drive)
        assert first == expected and again == expected
        assert runner.memo_hits == 1
        assert runner.server_sources.get("sim") == 1
        assert "served by" in runner.runtime_summary()

    def test_remote_runner_keep_going_collects_failures(self, tmp_path):
        def drive(client):
            runner = RemoteRunner(client.base_url, scale=SCALE, seed=SEED,
                                  keep_going=True)
            out = runner.run_many([RunSpec("nosuchkernel", SCALE, SEED)])
            return out, runner

        out, runner = _drive(_serve_fixture(tmp_path), drive)
        assert getattr(out[0], "failed", False)
        assert len(runner.failures) == 1

    def test_remote_runner_raises_without_keep_going(self, tmp_path):
        def drive(client):
            runner = RemoteRunner(client.base_url, scale=SCALE, seed=SEED)
            with pytest.raises(ServeError, match="nosuchkernel"):
                runner.run("nosuchkernel", ProcessorConfig())
            return True

        assert _drive(_serve_fixture(tmp_path), drive)

    def test_unreachable_server_is_a_serve_error(self, monkeypatch):
        # Millisecond delays; every reconnect attempt still runs.
        from repro.serve import client
        monkeypatch.setattr(client, "BACKOFF_BASE", 0.001)
        monkeypatch.setattr(client, "BACKOFF_CAP", 0.004)
        runner = RemoteRunner("127.0.0.1:1", scale=SCALE, seed=SEED)
        with pytest.raises(ServeError, match="cannot reach") as exc_info:
            runner.run("gzip", ProcessorConfig())
        assert f"after {client.RECONNECT_TRIES + 1} attempt(s)" \
            in str(exc_info.value)


# -- crash safety -----------------------------------------------------------

class TestCrashRecovery:
    """The journal contract, end to end: a crashed incarnation's work
    survives into its successor with nothing lost and nothing re-run."""

    def test_restart_replays_incomplete_and_serves_completed(self, tmp_path):
        from repro.serve.journal import replay_journal

        jpath = str(tmp_path / "journal.jsonl")
        cfg = ProcessorConfig()
        done_spec = RunSpec(kernel="gzip", scale=SCALE, seed=SEED)
        lost_spec = RunSpec(kernel="mcf", scale=SCALE, seed=SEED)
        expected = {
            "gzip": run_kernel("gzip", cfg, scale=SCALE, seed=SEED),
            "mcf": run_kernel("mcf", cfg, scale=SCALE, seed=SEED),
        }

        # Incarnation 1: complete one job, then crash with a second
        # job journaled as accepted but never dispatched.
        server1 = _serve_fixture(tmp_path, journal=jpath)

        async def crash_run():
            await server1.start()
            host, port = server1.address
            client = ServeClient(f"{host}:{port}", timeout=30.0)
            [(status, _)] = await asyncio.to_thread(
                client.run, [done_spec])
            assert status.state == protocol.DONE
            server1.journal.note_accepted(
                lost_spec.cache_key(), lost_spec.to_dict())
            server1.abort()   # kill -9, in spirit

        asyncio.run(crash_run())

        # Incarnation 2: same journal, same cache root.
        server2 = _serve_fixture(tmp_path, journal=jpath)

        def drive(client):
            return client.run([done_spec, lost_spec])

        outcomes = _drive(server2, drive)

        # The incomplete job was re-enqueued from the journal...
        assert server2.metrics.counters["jobs_replayed"] == 1
        assert server2.journal_replay.epochs == 1   # predecessor's mark
        assert list(server2.journal_replay.incomplete) \
            == [lost_spec.cache_key()]
        # ...the completed one came back from the result cache, and
        # nothing was simulated twice.
        for (status, stats), kernel in zip(outcomes, ("gzip", "mcf")):
            assert status.state == protocol.DONE
            assert SimStats.from_dict(stats) == expected[kernel]
        done_status = outcomes[0][0]
        assert done_status.source in ("disk", "memo")
        assert server2.executor.totals()["sims_run"] == 1   # mcf only

        # The journal's whole history audits clean.
        replay = replay_journal(jpath, quarantine=False)
        assert replay.consistent
        assert replay.duplicate_sims() == []
        assert replay.epochs == 2

    def test_corrupt_tail_quarantined_on_startup(self, tmp_path):
        jpath = str(tmp_path / "journal.jsonl")
        with open(jpath, "w", encoding="utf-8") as fh:
            fh.write('{"v": 1, "sha256": "torn-mid-wri\n')

        server = _serve_fixture(tmp_path, journal=jpath)

        def drive(client):
            [(status, _)] = client.run(
                [RunSpec(kernel="gzip", scale=SCALE, seed=SEED)])
            return status

        status = _drive(server, drive)
        assert status.state == protocol.DONE
        assert server.journal_replay.corrupt == 1
        with open(jpath + ".quarantine", encoding="utf-8") as fh:
            assert "# line 1" in fh.read()

    def test_healthz_codes_follow_server_state(self, tmp_path):
        server = _serve_fixture(tmp_path)

        def drive(client):
            status, env = client._request("GET", "/healthz")
            assert status == 200 and env["status"] == "ok"
            server.breaker.note_batch(*_dead_batch())
            status, env = client._request("GET", "/healthz")
            assert status == 503
            assert env["status"] == "degraded:circuit-open"
            server.breaker.state = CircuitBreaker.OK
            return True

        assert _drive(server, drive)

    def test_open_breaker_refuses_new_work_until_cooldown(self, tmp_path):
        from repro.serve.protocol import ErrorInfo

        clock = {"now": 0.0}
        breaker = CircuitBreaker(cooldown=10.0, clock=lambda: clock["now"])
        server = _serve_fixture(tmp_path, breaker=breaker)
        gzip = RunSpec("gzip", SCALE, SEED)
        mcf = RunSpec("mcf", SCALE, SEED)

        async def main():
            await server.start()
            await server.dispatcher.stop()       # hold the queue
            host, port = server.address
            client = ServeClient(f"{host}:{port}")

            def submit(spec):
                return asyncio.to_thread(client.submit, [spec])

            [queued] = await submit(gzip)
            assert queued["accepted"]
            assert breaker.note_batch(*_dead_batch())   # trip it
            assert breaker.state == CircuitBreaker.OPEN

            [refused] = await submit(mcf)
            assert not refused["accepted"]
            err = ErrorInfo.from_dict(refused["error"])
            assert err.kind == "degraded"
            assert 0 < err.retry_after <= 10.0
            # No new work: a twin of the queued job still fans in.
            [twin] = await submit(gzip)
            assert twin["accepted"] and twin["coalesced"]

            clock["now"] = 10.5                  # cooldown elapsed
            [probe] = await submit(mcf)
            assert probe["accepted"] and not probe["coalesced"]

            # Release the queue: the half-open probe batch runs and its
            # healthy outcome closes the breaker.
            server.dispatcher._stopping = False
            server.dispatcher.start()
            outcomes = await asyncio.to_thread(client.run, [gzip, mcf])
            server.request_shutdown()
            await server.wait_stopped()
            return outcomes

        outcomes = asyncio.run(main())
        assert [st.state for st, _ in outcomes] == [protocol.DONE] * 2
        assert breaker.state == CircuitBreaker.OK
        assert server.metrics.counters["jobs_rejected_degraded"] == 1
        assert server.executor.totals()["sims_run"] == 2

    def test_replays_journal_written_by_v1_server(self, tmp_path):
        """A v1 ``accepted`` record carries ``priority``/``client`` in
        its spec: startup closes it as unreplayable, the server comes
        up healthy, and a resubmission runs the job exactly once."""
        from repro.serve.journal import JobJournal, replay_journal

        jpath = str(tmp_path / "journal.jsonl")
        spec = RunSpec("gzip", SCALE, SEED)
        key = spec.cache_key()
        v1_spec = dict(protocol.wire_dict(spec), priority="sweep",
                       client="cli-123")
        old = JobJournal(jpath)
        old.note_server_start()
        old.note_accepted(key, v1_spec)
        old.note_started([key])
        old.close()

        server = _serve_fixture(tmp_path, journal=jpath)

        def drive(client):
            health = client.health()
            [(status, stats)] = client.run([spec])
            return health, status, stats

        health, status, stats = _drive(server, drive)
        assert list(server.journal_replay.incomplete) == [key]
        assert server.metrics.counters["jobs_replayed"] == 0
        with open(jpath, encoding="utf-8") as fh:
            records = [json.loads(line)["record"] for line in fh]
        [closed] = [r for r in records if r["event"] == "cancelled"]
        assert closed["key"] == key
        assert closed["reason"].startswith("unreplayable spec")
        assert health["status"] == "ok"
        assert status.state == protocol.DONE
        assert SimStats.from_dict(stats) == run_kernel(
            "gzip", ProcessorConfig(), scale=SCALE, seed=SEED)
        assert server.executor.totals()["sims_run"] == 1
        assert replay_journal(jpath, quarantine=False).consistent

    def test_chaos_drop_reconnects_and_coalesces(self, tmp_path):
        """A connection cut after the submit is sent must not lose or
        duplicate the job: the retry coalesces onto the accepted one."""
        server = _serve_fixture(tmp_path)
        cfg = ProcessorConfig()
        expected = run_kernel("gzip", cfg, scale=SCALE, seed=SEED)

        def drive(client):
            drops = {"submit": 1, "poll": 1}

            def drop(method, path):
                if method == "POST" and path.endswith("/submit") \
                        and drops["submit"]:
                    drops["submit"] -= 1
                    return True
                if method == "GET" and "/status" in path \
                        and drops["poll"]:
                    drops["poll"] -= 1
                    return True
                return False

            client.chaos_drop = drop
            [(status, stats)] = client.run(
                [RunSpec(kernel="gzip", scale=SCALE, seed=SEED)])
            assert drops == {"submit": 0, "poll": 0}   # both fired
            assert status.state == protocol.DONE
            return stats

        stats = _drive(server, drive)
        assert SimStats.from_dict(stats) == expected
        assert server.executor.totals()["sims_run"] == 1


class _Entry:
    def __init__(self, key):
        self.key = key


def _failed(phase):
    return FailedResult("gzip", SCALE, SEED, "x", phase=phase)


def _dead_batch():
    """A batch whose every job ended in a transient phase."""
    return ([_Entry("a"), _Entry("b")],
            {"a": (_failed("timeout"), "failed"),
             "b": (_failed("pool"), "failed")})


class TestCircuitBreaker:
    def test_breaker_lifecycle(self):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(cooldown=10.0, clock=lambda: clock["now"])
        entries, dead = _dead_batch()
        assert breaker.allows()
        assert breaker.note_batch(entries, dead)   # one dead batch trips
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allows()
        assert 0.5 <= breaker.retry_after() <= 10.0
        clock["now"] = 10.5                        # cooldown elapsed
        assert breaker.allows()                    # half-open
        assert breaker.state == CircuitBreaker.OPEN
        healthy = {"a": (_failed("timeout"), "failed"),
                   "b": (_failed("worker"), "failed")}
        assert not breaker.note_batch(entries, healthy)
        assert breaker.state == CircuitBreaker.OK

    def test_batch_dead_classification(self):
        entries, dead = _dead_batch()
        assert CircuitBreaker.batch_dead(entries, dead)
        mixed = {"a": (_failed("timeout"), "failed"),
                 "b": (_failed("worker"), "failed")}
        assert not CircuitBreaker.batch_dead(entries, mixed)
        assert not CircuitBreaker.batch_dead([], {})


# -- the runtime's retry loop is the daemon's only one ----------------------

_real_run_job = parallel_mod._run_job


def _die_in_pool(job):
    """Kills its pool worker until the pool-rebuild count reaches
    ``_REPRO_TEST_LIVE_FROM``.  A forked worker inherits the count of
    its pass, so this kills every worker of the first passes; jobs run
    in-process (the parent) are never killed."""
    if (os.getpid() != int(os.environ["_REPRO_TEST_PARENT"])
            and parallel_mod.pool_restart_count()
            < int(os.environ["_REPRO_TEST_LIVE_FROM"])):
        os._exit(1)
    return _real_run_job(job)


class TestRuntimeRetries:
    KERNELS = ("gzip", "mcf", "vpr")

    def _kill_pools(self, monkeypatch, passes):
        monkeypatch.setenv("_REPRO_TEST_PARENT", str(os.getpid()))
        monkeypatch.setenv("_REPRO_TEST_LIVE_FROM",
                           str(parallel_mod.pool_restart_count() + passes))
        monkeypatch.setattr(parallel_mod, "_run_job", _die_in_pool)

    def _server(self, tmp_path, **kw):
        # Two jobs: a one-job runner takes the serial path, no pool.
        cache = ResultCache(root=str(tmp_path / "srvcache"), enabled=True)
        return ServeServer(port=0, cache=cache, jobs=2, **kw)

    def test_worker_deaths_absorbed_by_runtime_counted_once(
            self, tmp_path, monkeypatch):
        self._kill_pools(monkeypatch, passes=2)
        before = parallel_mod.pool_restart_count()
        server = self._server(tmp_path)
        specs = [RunSpec(k, SCALE, SEED) for k in self.KERNELS]

        outcomes = _drive(server, lambda client: client.run(specs))
        assert [st.state for st, _ in outcomes] \
            == [protocol.DONE] * len(specs)
        assert server.breaker.state == CircuitBreaker.OK
        assert server.metrics.counters["circuit_trips"] == 0
        assert parallel_mod.pool_restart_count() - before == 2
        assert server.executor.totals()["sims_run"] == len(specs)

    def test_exhausted_budget_fails_jobs_and_opens_breaker(
            self, tmp_path, monkeypatch):
        self._kill_pools(monkeypatch, passes=1000)
        server = self._server(tmp_path, retries=1)
        specs = [RunSpec(k, SCALE, SEED) for k in self.KERNELS]

        def drive(client):
            outcomes = client.run(specs)
            return outcomes, client._request("GET", "/healthz")

        outcomes, (code, health) = _drive(server, drive)
        for status, stats in outcomes:
            assert status.state == protocol.FAILED and stats is None
            assert status.error.kind == "failed"
            assert status.error.phase == "pool"
            assert status.error.attempts == 2
        assert code == 503
        assert health["status"] == "degraded:circuit-open"
        assert server.metrics.counters["circuit_trips"] == 1

    def test_default_retry_budget(self, tmp_path, monkeypatch):
        cache = ResultCache(root=str(tmp_path / "c"), enabled=True)
        monkeypatch.delenv("REPRO_RETRIES", raising=False)
        assert SimExecutor(cache=cache).retries == 7
        monkeypatch.setenv("REPRO_RETRIES", "2")
        assert SimExecutor(cache=cache).retries == 2
        assert SimExecutor(cache=cache, retries=0).retries == 0
